// The disk-resident directory entry table.
//
// Entries are serialized in HierKey (reverse-DN) order into pages of the
// simulated disk, with an in-memory sparse index (the first key of each
// page, plus the run's restarts for where records start), like one
// SSTable/segment of an LSM tree. Because the table is in the
// paper's global sort order, every atomic query scope is a key *range*:
//   base  -> the single key,
//   one   -> the subtree range, filtered to depth+1 (children),
//   sub   -> the subtree range,
// so atomic evaluation costs O(range pages) reads — the "atomic queries
// can be evaluated efficiently" assumption of Sec. 4.1.
//
// The mutable store (memtable + segments + compaction) lives in
// store/directory_store.h; EntryStore is the immutable segment format.

#ifndef NDQ_STORE_ENTRY_STORE_H_
#define NDQ_STORE_ENTRY_STORE_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/entry.h"
#include "core/instance.h"
#include "storage/disk.h"
#include "storage/run.h"
#include "store/page_synopsis.h"

namespace ndq {

class StoreStats;

/// \brief Anything that can stream serialized entries in key order.
///
/// Implemented by the immutable EntryStore segment and by the mutable
/// DirectoryStore (memtable + segments); the evaluation engine's atomic
/// operator works against this interface.
class EntrySource {
 public:
  using RecordFn = std::function<Status(std::string_view record)>;

  virtual ~EntrySource() = default;

  /// Calls `fn` for every record with start_key <= key < end_key (end_key
  /// empty = unbounded), in key order.
  Status ScanRange(std::string_view start_key, std::string_view end_key,
                   const RecordFn& fn) const {
    return ScanRange(start_key, end_key, {}, fn, nullptr);
  }

  /// The range scan of a leaf evaluation (exec/atomic.h ScanLeaves): as
  /// above, save that the source may pass over records that provably
  /// match none of `filters`, the filters of the leaves the scan serves.
  /// A bulk-loaded segment does, a page at a time, by its page synopses
  /// (store/page_synopsis.h), and adds the pages of the range it did not
  /// read to `*skipped_pages` (when non-null); every other source calls
  /// `fn` for every record of the range.
  virtual Status ScanRange(std::string_view start_key,
                           std::string_view end_key, ScanFilters filters,
                           const RecordFn& fn,
                           uint64_t* skipped_pages) const = 0;

  virtual uint64_t num_entries() const = 0;

  /// The pages and records a ScanRange(start_key, end_key, filters, ...)
  /// reads.
  struct RangeEstimate {
    uint64_t pages = 0;
    uint64_t records = 0;
  };

  /// Cost-model hook (no I/O). The default is deliberately coarse — the
  /// whole store, at ~40 entries per page; implementations refine it from
  /// their sparse indexes.
  virtual RangeEstimate EstimateRange(std::string_view start_key,
                                      std::string_view end_key,
                                      ScanFilters filters) const {
    (void)start_key;
    (void)end_key;
    (void)filters;
    return {num_entries() / 40 + 1, num_entries()};
  }
  uint64_t EstimateRangePages(std::string_view start_key,
                              std::string_view end_key) const {
    return EstimateRange(start_key, end_key, {}).pages;
  }
  uint64_t EstimateRangeRecords(std::string_view start_key,
                                std::string_view end_key) const {
    return EstimateRange(start_key, end_key, {}).records;
  }

  /// Cardinality statistics (store/stats.h) for the cost model and the
  /// optimizer, or nullptr when the source keeps none (every EntryStore
  /// segment but a bulk load's). Estimates derived from the result are
  /// upper bounds; 0 proves emptiness.
  virtual const StoreStats* stats() const { return nullptr; }

  /// A consistent point-in-time snapshot of this source, or nullptr when
  /// the source is immutable and can be read directly (the default).
  /// Mutable sources (DirectoryStore) return their published state, whose
  /// scans, estimates, and stats all observe one version regardless of
  /// concurrent writers; the segment pages it names stay allocated until
  /// the last holder releases it, whatever compaction does meanwhile.
  /// Evaluators pin once per query (docs/WRITE_PATH.md).
  virtual std::shared_ptr<const EntrySource> PinSnapshot() const {
    return nullptr;
  }

  /// Monotonic mutation version: bumped on every state change of a
  /// mutable source; 0 forever on immutable sources. Snapshots report the
  /// version they captured. Cache keys (exec/operand_cache.h users)
  /// include it so results computed against an old snapshot can never be
  /// served after the store has moved on.
  virtual uint64_t version() const { return 0; }
};

/// \brief One immutable sorted segment of serialized entries.
class EntryStore : public EntrySource {
  // The pages one range scan reads (entry_store.cc).
  class PagePlan;

 public:
  EntryStore() = default;

  /// Serializes all entries of `instance` (already in key order): the
  /// segment a local engine plans over, so it alone carries statistics
  /// and page synopses, folded from each entry in the same pass that
  /// serializes it.
  static Result<EntryStore> BulkLoad(Disk* disk,
                                     const DirectoryInstance& instance);

  /// Serializes the entries `next` yields, in strictly increasing key
  /// order, until it returns nullptr. No statistics or synopses: the
  /// fleet build (which streams each shard's entries out of the global
  /// instance) plans from the shards' range geometry alone, and parses no
  /// entry.
  static Result<EntryStore> FromEntries(
      Disk* disk, const std::function<const Entry*()>& next);

  /// Builds a segment from serialized entry records: `next` yields them
  /// in strictly increasing key order and returns false at end. No
  /// statistics or synopses: a DirectoryStore keeps its own statistics
  /// for the whole store, and its compaction and recovery fold the
  /// records they stream into them; its scans merge segments, so none
  /// may skip a page (a newer segment's page can shadow an older one's).
  static Result<EntryStore> FromStream(
      Disk* disk, const std::function<Result<bool>(std::string*)>& next);

  /// A page-for-page copy of this segment on `disk` (CopyRun), which must
  /// have the same page size: byte-identical pages, the same sparse index,
  /// and the same shared StoreStats and PageSynopses objects (if any). A
  /// failed copy frees the pages it allocated.
  Result<EntryStore> CopyTo(Disk* disk) const;

  using EntrySource::ScanRange;

  /// Reads the range with a Cursor: only pages overlapping the range, and
  /// of those only the ones a page synopsis admits for some of `filters`
  /// (all of them when the segment has no synopses or no filter is
  /// given), each at most once.
  Status ScanRange(std::string_view start_key, std::string_view end_key,
                   ScanFilters filters, const RecordFn& fn,
                   uint64_t* skipped_pages) const override;

  /// Point lookup.
  Result<std::optional<Entry>> Get(std::string_view hier_key) const;

  /// The pages a ScanRange(start, end, filters) would read, from the
  /// in-memory sparse index and synopses alone, exact up to records that
  /// span page boundaries, and the records starting in them, counted from
  /// the run's restarts. With filters and synopses the records bound the
  /// matches; 0 proves none. Used by the cost model (exec/cost.h).
  RangeEstimate EstimateRange(std::string_view start_key,
                              std::string_view end_key,
                              ScanFilters filters) const override;

  /// \brief Pull-style cursor over a key range (used by the LSM merge and
  /// ScanRange).
  ///
  /// It reads the records of a start page (one a record starts in) when
  /// the page is admitted, and otherwise seeks to the first restart of
  /// the next admitted one (run.restarts). Pages are admitted by a
  /// PageSynopses::Probe over `filters`; without synopses or filters,
  /// every start page is, and the cursor reads on to the end of the store
  /// as a plain scan does. With them, a start page past the last one the
  /// range can start a record in (by the sparse index) holds no wanted
  /// record and is not admitted. With io-depth > 0 the reader prefetches
  /// exactly the pages the cursor will read up to that last page.
  class Cursor {
   public:
    Cursor();
    /// Positions before the first record with key >= start_key. `end_key`
    /// (empty = unbounded) bounds the pages admission may seek to; the
    /// caller still ends the scan at the first key >= end_key.
    Cursor(const EntryStore* store, std::string_view start_key,
           std::string_view end_key = {}, ScanFilters filters = {});
    ~Cursor();
    Cursor(Cursor&&) noexcept;
    Cursor& operator=(Cursor&&) noexcept;

    /// Advances; returns false at end-of-store. After true, record()/key()
    /// are valid.
    Result<bool> Next();
    const std::string& record() const { return record_; }
    std::string_view key() const { return key_; }

    /// Pages of the range the cursor passed over without reading them.
    uint64_t skipped_pages() const { return skipped_; }

   private:
    /// Positions the reader at the first admitted start page at or past
    /// the one `from` begins (a first restart of a page, or the end);
    /// false when none is left.
    Result<bool> Enter(std::vector<RunRestart>::const_iterator from);

    const EntryStore* store_ = nullptr;
    // The plan outlives the reader, whose prefetcher asks it for pages.
    std::unique_ptr<PagePlan> plan_;
    std::unique_ptr<RunReader> reader_;
    std::string start_key_;
    std::string record_;
    std::string_view key_;
    // The first restart of the start page after the one being read, and
    // its record number (num_records when none).
    std::vector<RunRestart>::const_iterator next_page_;
    uint64_t next_page_record_ = 0;
    uint64_t skipped_ = 0;
    bool primed_ = false;
  };

  uint64_t num_entries() const override { return run_.num_records; }
  /// Folded by BulkLoad; nullptr for every other segment (fleet shards,
  /// flushes, compactions, FromManifest). Shared so EntryStore stays
  /// copyable, and so a CopyTo replica reports the same object.
  const StoreStats* stats() const override { return stats_.get(); }
  /// Folded by BulkLoad beside the statistics, shared the same way;
  /// nullptr for every other segment.
  const PageSynopses* synopses() const { return synopses_.get(); }
  uint64_t num_pages() const { return run_.pages.size(); }
  const Run& run() const { return run_; }
  Disk* disk() const { return disk_; }

  /// Frees the segment's pages.
  Status Destroy();

  /// Serializes the segment's metadata: magic `ndqseg3`, the page
  /// format, the record and payload counts, the page list, the restarts
  /// and the per-page keys. Pair with SimDisk::SaveToFile to persist a
  /// store across processes.
  std::string SerializeManifest() const;

  /// Re-attaches a segment to `disk` from a manifest produced by
  /// SerializeManifest (the disk must hold the corresponding image). The
  /// restarts are checked as ReverseRunReader checks them (CheckRestarts),
  /// so the segment's run is the one its writer produced; any other magic
  /// or a damaged manifest is Corruption.
  static Result<EntryStore> FromManifest(Disk* disk,
                                         std::string_view manifest);

 private:
  Disk* disk_ = nullptr;
  // Written with page restarts: the first record starting in page p is the
  // first of run_.restarts at an offset >= p * page_size, and a page with
  // no restart has no record start.
  Run run_;
  std::shared_ptr<const StoreStats> stats_;
  std::shared_ptr<const PageSynopses> synopses_;
  // Sparse index: first_keys_[i] is the key of the first record *starting*
  // in page i of run_.pages (records may span pages; a page with no record
  // start repeats the previous key).
  std::vector<std::string> first_keys_;

  /// Writes the records `next(&record, offset)` pulls, in strictly
  /// increasing key order, until it returns false; `offset` is the payload
  /// byte the pulled record will start at. Defined and instantiated in
  /// entry_store.cc, so each builder's pull is called directly.
  template <typename Pull>
  Status BuildFrom(Disk* disk, Pull&& next);

  /// The restart a read of the records at `key`'s position starts from,
  /// in run_.restarts: the first record starting in the last page whose
  /// first key is <= `key`, backed up over pages in which no record
  /// starts. The store must hold a record.
  std::vector<RunRestart>::const_iterator StartRestart(
      std::string_view key) const;
};

}  // namespace ndq

#endif  // NDQ_STORE_ENTRY_STORE_H_
