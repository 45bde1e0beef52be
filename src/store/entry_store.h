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

namespace ndq {

class StoreStats;

/// \brief Anything that can stream serialized entries in key order.
///
/// Implemented by the immutable EntryStore segment and by the mutable
/// DirectoryStore (memtable + segments); the evaluation engine's atomic
/// operator works against this interface.
class EntrySource {
 public:
  virtual ~EntrySource() = default;

  /// Calls `fn` for every record with start_key <= key < end_key (end_key
  /// empty = unbounded), in key order.
  virtual Status ScanRange(
      std::string_view start_key, std::string_view end_key,
      const std::function<Status(std::string_view record)>& fn) const = 0;

  virtual uint64_t num_entries() const = 0;

  /// Cost-model hooks (no I/O). The defaults are deliberately coarse —
  /// the whole store; implementations refine them from their indexes.
  virtual uint64_t EstimateRangeRecords(std::string_view start_key,
                                        std::string_view end_key) const {
    (void)start_key;
    (void)end_key;
    return num_entries();
  }
  virtual uint64_t EstimateRangePages(std::string_view start_key,
                                      std::string_view end_key) const {
    // Assume ~40 entries per page when nothing better is known.
    return EstimateRangeRecords(start_key, end_key) / 40 + 1;
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
 public:
  EntryStore() = default;

  /// Serializes all entries of `instance` (already in key order): the
  /// segment a local engine plans over, so it alone carries statistics,
  /// folded from each entry in the same pass that serializes it.
  static Result<EntryStore> BulkLoad(Disk* disk,
                                     const DirectoryInstance& instance);

  /// Serializes the entries `next` yields, in strictly increasing key
  /// order, until it returns nullptr. No statistics: the fleet build
  /// (which streams each shard's entries out of the global instance)
  /// plans from the shards' range geometry alone.
  static Result<EntryStore> FromEntries(
      Disk* disk, const std::function<const Entry*()>& next);

  /// Builds a segment from serialized entry records: `next` yields them
  /// in strictly increasing key order and returns false at end. No
  /// statistics: a DirectoryStore keeps its own for the whole store, and
  /// its compaction and recovery fold the records they stream into them.
  static Result<EntryStore> FromStream(
      Disk* disk, const std::function<Result<bool>(std::string*)>& next);

  /// A page-for-page copy of this segment on `disk` (CopyRun), which must
  /// have the same page size: byte-identical pages, the same sparse index,
  /// and the same shared StoreStats object (if any). A failed copy frees
  /// the pages it allocated.
  Result<EntryStore> CopyTo(Disk* disk) const;

  /// Calls `fn` for every record with start_key <= key < end_key (end_key
  /// empty = unbounded), in key order. Only pages overlapping the range
  /// are read.
  Status ScanRange(std::string_view start_key, std::string_view end_key,
                   const std::function<Status(std::string_view record)>& fn)
      const override;

  /// Point lookup.
  Result<std::optional<Entry>> Get(std::string_view hier_key) const;

  /// Calls `fn` with the record of each of `keys` (strictly increasing),
  /// in key order; a key the segment lacks is NotFound. One reader walks
  /// the keys: it reads on when a record starts in the page it holds or
  /// the next one, and seeks otherwise, so it reads each page at most
  /// once, and only pages that hold part of a wanted record.
  Status ScanKeys(const std::vector<std::string>& keys,
                  const std::function<Status(std::string_view record)>& fn)
      const;

  /// Estimated number of pages a ScanRange(start, end) would read, from
  /// the in-memory sparse index alone (no I/O). Exact up to records that
  /// span page boundaries. Used by the cost model (exec/cost.h).
  uint64_t EstimateRangePages(std::string_view start_key,
                              std::string_view end_key) const override;

  /// Estimated number of records in [start_key, end_key): the records
  /// starting in the pages the range overlaps, counted from the run's
  /// restarts (no I/O).
  uint64_t EstimateRangeRecords(std::string_view start_key,
                                std::string_view end_key) const override;

  /// \brief Pull-style cursor over a key range (used by the LSM merge).
  class Cursor {
   public:
    Cursor() = default;
    /// Positions before the first record with key >= start_key.
    Cursor(const EntryStore* store, std::string_view start_key);

    /// Advances; returns false at end-of-store. After true, record()/key()
    /// are valid.
    Result<bool> Next();
    const std::string& record() const { return record_; }
    std::string_view key() const { return key_; }

   private:
    const EntryStore* store_ = nullptr;
    std::unique_ptr<RunReader> reader_;
    std::string start_key_;
    std::string record_;
    std::string_view key_;
    bool primed_ = false;
  };

  uint64_t num_entries() const override { return run_.num_records; }
  /// Folded by BulkLoad; nullptr for every other segment (fleet shards,
  /// flushes, compactions, FromManifest). Shared so EntryStore stays
  /// copyable, and so a CopyTo replica reports the same object.
  const StoreStats* stats() const override { return stats_.get(); }
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
  // Sparse index: first_keys_[i] is the key of the first record *starting*
  // in page i of run_.pages (records may span pages; a page with no record
  // start repeats the previous key).
  std::vector<std::string> first_keys_;

  /// Pulls the next record into `*record`; false at end.
  using RecordPull = std::function<Result<bool>(std::string* record)>;

  Status BuildFrom(Disk* disk, const RecordPull& next);

  /// The restart a read of the records at `key`'s position starts from:
  /// the first record starting in the last page whose first key is <=
  /// `key`, backed up over pages in which no record starts. The store must
  /// hold a record.
  const RunRestart& StartRestart(std::string_view key) const;
};

}  // namespace ndq

#endif  // NDQ_STORE_ENTRY_STORE_H_
