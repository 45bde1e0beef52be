// Sequential record runs on the simulated disk.
//
// A Run is the unit of inter-operator data flow in the evaluation engine:
// a chain of pages holding prefix-compressed records. Writers and readers
// each buffer exactly ONE page, so a whole operator pipeline runs in
// constant main memory — the property Theorems 8.3/8.4 assume. The page
// list itself is kept as in-memory metadata (the analogue of a file's
// extent table).

#ifndef NDQ_STORAGE_RUN_H_
#define NDQ_STORAGE_RUN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "storage/disk.h"
#include "storage/prefetcher.h"
#include "storage/serde.h"

namespace ndq {

/// Metadata for a run of records stored on disk pages. `format` is the
/// on-page record framing (storage/serde.h), carried per run so readers
/// never guess. `payload_bytes` counts the framed bytes actually appended
/// to the page stream, so pages.size() == ceil(payload_bytes / page_size)
/// in every format.
struct Run {
  std::vector<PageId> pages;
  uint64_t num_records = 0;
  uint64_t payload_bytes = 0;
  PageFormat format = PageFormat::kPrefix;

  bool empty() const { return num_records == 0; }
};

/// Releases a run's pages back to the disk.
Status FreeRun(Disk* disk, Run* run);

/// Produces a new run holding `run`'s records in reverse order, consuming
/// (freeing) the input. Costs O(pages) I/O: records are spilled in
/// page-sized batches and the batches replayed last-to-first. Used by the
/// descendant-direction hierarchy operators, which scan their input in
/// descending key order (see exec/hierarchy.h).
Result<Run> ReverseRun(Disk* disk, Run run);

/// Appends records to a new run, one page of buffering.
///
/// Error-path ownership: until Finish() succeeds, the writer owns every
/// page it has allocated, and its destructor frees them. A caller that
/// hits an error mid-write (or whose Finish() fails) simply drops the
/// writer — no partial run leaks.
class RunWriter {
 public:
  /// Writes in `format` (storage/serde.h), which is stamped into the
  /// finished Run: kKeyPrefix for records whose first field is a
  /// PutString sort key (serialized entries, pair records, spill items),
  /// kPrefix for anything else.
  explicit RunWriter(Disk* disk, PageFormat format = PageFormat::kPrefix);
  ~RunWriter();

  RunWriter(const RunWriter&) = delete;
  RunWriter& operator=(const RunWriter&) = delete;

  /// Appends one record (framed per the run's format; may span pages).
  Status Add(std::string_view record);

  /// Flushes the tail page and returns the finished run, transferring
  /// page ownership to the caller.
  Result<Run> Finish();

  uint64_t num_records() const { return run_.num_records; }

  /// Forces a restart for the first record starting in each page, making
  /// every such position a valid SeekTo target. Only seekable runs (the
  /// entry store's segment, whose sparse index records those positions)
  /// need this; scan-only runs skip it — on deep-directory keys a restart
  /// re-emits the whole reverse-DN key, so per-page restarts cost real
  /// compression. Call before the first Add().
  void set_page_restarts(bool on) { page_restarts_ = on; }

  /// Position where the most recent Add()'s frame started: page index
  /// within the run and byte offset within that page. With
  /// set_page_restarts(true), the first record starting in any page is
  /// always a restart point, so this position is a valid SeekTo target
  /// (the entry store's sparse index records it).
  size_t last_record_page() const { return last_record_page_; }
  uint32_t last_record_offset() const { return last_record_offset_; }

 private:
  Status FlushPage();

  Disk* disk_;
  Run run_;
  std::string buf_;  // current page payload
  bool finished_ = false;
  // Compression state.
  bool page_restarts_ = false;
  uint64_t records_since_restart_ = 0;
  size_t last_start_page_ = static_cast<size_t>(-1);
  size_t last_record_page_ = 0;
  uint32_t last_record_offset_ = 0;
  std::string prev_key_;     // kKeyPrefix: previous record's key
  std::string prev_rest_;    // kKeyPrefix: previous record minus the key
  std::string prev_record_;  // kPrefix: previous record, whole
};

/// Reads a run sequentially, one page of buffering. When the disk has an
/// async engine attached (Disk::SetIoDepth), the reader streams ahead
/// through a Prefetcher, keeping up to io-depth page reads in flight;
/// accounting is byte-identical either way (see storage/prefetcher.h).
class RunReader {
 public:
  RunReader(Disk* disk, const Run& run);

  /// Reads the next record into `record`. Returns false at end-of-run.
  /// Compressed records are reconstructed incrementally from the previous
  /// record's key/bytes; the caller always sees the original record.
  Result<bool> Next(std::string* record);

  /// Positions the reader at `byte_offset` within page `page_idx`, which
  /// must be the start of record number `record_index` AND (for compressed
  /// runs) a restart point — guaranteed for the first record starting in
  /// any page of a run written with set_page_restarts(true), which is
  /// what the entry store's sparse index stores. A frame that
  /// back-references history from here is reported as corruption, never
  /// read out of bounds.
  Status SeekTo(size_t page_idx, size_t byte_offset, uint64_t record_index);

  uint64_t records_read() const { return records_read_; }
  /// The index of the next page Next() loads: one past the page it holds.
  size_t next_page() const { return page_idx_; }

 private:
  Status LoadPage(size_t idx);
  /// Pulls `n` raw bytes across page boundaries.
  Status ReadBytes(size_t n, std::string* out);
  Result<uint64_t> ReadVarint();
  /// Rejects suffix lengths no well-formed frame could claim (an
  /// oversized length prefix) before any allocation happens.
  Status CheckFrameLength(uint64_t claimed) const;

  Disk* disk_;
  const Run* run_;
  Prefetcher prefetch_;
  std::string buf_;
  size_t page_idx_ = 0;   // next page to load
  size_t buf_pos_ = 0;
  uint64_t records_read_ = 0;
  // Compression state.
  std::string prev_key_;
  std::string prev_rest_;
  std::string prev_record_;
};

}  // namespace ndq

#endif  // NDQ_STORAGE_RUN_H_
