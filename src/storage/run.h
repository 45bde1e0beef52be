// Sequential record runs on the simulated disk.
//
// A Run is the unit of inter-operator data flow in the evaluation engine:
// a chain of pages holding prefix-compressed records. Writers and forward
// readers each buffer exactly ONE page, and the reverse reader one page,
// the heads of at most two more and one restart chunk of records, so a
// whole operator pipeline runs in constant main memory — the property
// Theorems 8.3/8.4 assume. The page list and the restart positions are
// kept as in-memory metadata (the analogue of a file's extent table).

#ifndef NDQ_STORAGE_RUN_H_
#define NDQ_STORAGE_RUN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "storage/disk.h"
#include "storage/prefetcher.h"
#include "storage/serde.h"

namespace ndq {

/// A restart point (storage/serde.h): record number `record` starts at
/// byte `offset` of the run's page stream — page offset / page_size, byte
/// offset % page_size — and decodes without history.
struct RunRestart {
  uint64_t record = 0;
  uint64_t offset = 0;

  bool operator==(const RunRestart&) const = default;
};

/// Metadata for a run of records stored on disk pages. `format` is the
/// on-page record framing (storage/serde.h), carried per run so readers
/// never guess. `payload_bytes` counts the framed bytes actually appended
/// to the page stream, so pages.size() == ceil(payload_bytes / page_size)
/// in every format. `restarts` lists every restart the writer emitted, in
/// order (record 0 first): the one record of where the run's records
/// start that anything reads — RunReader::SeekTo targets, the entry
/// store's sparse index and segment manifests, and ReverseRunReader's
/// chunks.
struct Run {
  std::vector<PageId> pages;
  std::vector<RunRestart> restarts;
  uint64_t num_records = 0;
  uint64_t payload_bytes = 0;
  PageFormat format = PageFormat::kPrefix;

  bool empty() const { return num_records == 0; }
};

/// Releases a run's pages back to the disk.
Status FreeRun(Disk* disk, Run* run);

/// Checks `run`'s restart metadata against its pages: the payload fills
/// the pages, the first restart is record 0 at offset 0, and each restart
/// lies past the one before it, in records and in bytes, by at most
/// kRestartInterval records, before the run's end. Corruption otherwise;
/// an empty run passes. ReverseRunReader and segment manifests
/// (store/entry_store.h) both check by it.
Status CheckRestarts(const Run& run, uint64_t page_size);

/// Copies `run` from `from` to a new run on `to`, page for page: each
/// page is read once through a Prefetcher (counted on `from`, and an
/// async read's fault surfaces here, on the calling thread), allocated
/// and written once on `to`; the metadata is copied as is. The disks
/// must share a page size (InvalidArgument otherwise). A failed copy
/// frees the pages it allocated.
Result<Run> CopyRun(Disk* from, const Run& run, Disk* to);

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
  /// Bytes appended so far: where the next record's frame starts.
  uint64_t payload_bytes() const { return run_.payload_bytes; }

  /// Forces a restart for the first record starting in each page, so the
  /// first restart at or past any page's start is the first record
  /// starting there. Only seekable runs (the entry store's segment, whose
  /// sparse index seeks by run.restarts) need this; scan-only runs skip
  /// it — on deep-directory keys a restart re-emits the whole reverse-DN
  /// key, so per-page restarts cost real compression. Call before the
  /// first Add().
  void set_page_restarts(bool on) { page_restarts_ = on; }

  /// The restarts emitted so far (the finished run's `restarts`).
  const std::vector<RunRestart>& restarts() const { return run_.restarts; }

 private:
  Status FlushPage();

  Disk* disk_;
  Run run_;
  std::string buf_;  // current page payload
  bool finished_ = false;
  // Compression state.
  bool page_restarts_ = false;
  std::string prev_key_;     // kKeyPrefix: previous record's key
  std::string prev_rest_;    // kKeyPrefix: previous record minus the key
  std::string prev_record_;  // kPrefix: previous record, whole
};

namespace run_internal {

/// \brief The prefix-compression state a run's frames decode against.
///
/// Holds the previous record (kPrefix) or its key and remainder
/// (kKeyPrefix). RunReader and ReverseRunReader share it, so both decode
/// — and reject — every frame alike.
class FrameDecoder {
 public:
  /// Forgets the previous record: the next frame must be a restart.
  void Reset();

  /// Decodes the next frame of `format` from `in` into `record`: `in` is
  /// a reader with ReadVarint(), ReadBytes(n, out) and
  /// CheckFrameLength(n). A frame that back-references more than the
  /// previous record holds is Corruption.
  template <typename Input>
  Status Decode(PageFormat format, Input* in, std::string* record);

 private:
  std::string prev_key_;
  std::string prev_rest_;
  std::string prev_record_;
};

}  // namespace run_internal

/// Reads a run sequentially, one page of buffering. When the disk has an
/// async engine attached (Disk::SetIoDepth), the reader streams ahead
/// through a Prefetcher, keeping up to io-depth page reads in flight;
/// accounting is byte-identical either way (see storage/prefetcher.h).
class RunReader {
 public:
  /// A reader that seeks (a range scan) may say where it starts reading
  /// and which page it reads after each, so its prefetcher fetches only
  /// those (Prefetcher::NextPage); by default, every page from the first.
  RunReader(Disk* disk, const Run& run, size_t first_page = 0,
            Prefetcher::NextPage next_page = nullptr);

  /// Reads the next record into `record`. Returns false at end-of-run.
  /// Compressed records are reconstructed incrementally from the previous
  /// record's key/bytes; the caller always sees the original record.
  Result<bool> Next(std::string* record);

  /// Positions the reader at restart `at`, one of run.restarts: the next
  /// Next() decodes record number at.record from byte at.offset of the
  /// page stream. A restart past the payload is Corruption, and a frame
  /// that back-references history from there is reported as corruption,
  /// never read out of bounds.
  Status SeekTo(const RunRestart& at);

  uint64_t records_read() const { return records_read_; }
  /// The index of the next page Next() loads: one past the page it holds.
  size_t next_page() const { return page_idx_; }

 private:
  friend class run_internal::FrameDecoder;

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
  run_internal::FrameDecoder frame_;
};

/// \brief Reads a run from its last record to its first.
///
/// LevelDB's Block::Iter::Prev over a whole run: the reader walks the
/// run's restart chunks (run.restarts; a chunk is a restart record and
/// the records up to the next restart, at most kRestartInterval) from
/// last to first, decodes each chunk forward and hands its records out
/// last first. No page byte differs from a forward-read run.
///
/// Each page is read once, through the counted Disk path and the same
/// prefetch window as RunReader, in the order the chunks need them:
/// chunk i reads its pages up to the one where chunk i+1 starts. The
/// bytes of that shared page before chunk i+1's restart end chunk i, so
/// the reader keeps them from when it decoded chunk i+1. It holds the
/// page it is decoding, that carried head, and one chunk of decoded
/// records. A chunk that runs across a whole page also keeps the head of
/// its own first page, which ends the chunk before it, while it decodes
/// the pages past it: reading every page once needs that third, partial
/// page.
///
/// A run without restart metadata is InvalidArgument, metadata that
/// CheckRestarts rejects is Corruption, and so is a damaged frame: a
/// chunk must decode exactly its own bytes into exactly its own records.
/// Errors are sticky.
class ReverseRunReader {
 public:
  ReverseRunReader(Disk* disk, const Run& run);

  /// Reads the record before the one last returned, starting with the
  /// run's last record. Returns false once the first record is out.
  Result<bool> Next(std::string* record);

 private:
  friend class run_internal::FrameDecoder;

  static constexpr uint64_t kNoPage = ~uint64_t{0};

  /// Decodes chunk `c` into chunk_ and carries its first page's head.
  Status DecodeChunk(size_t c);
  /// Reads run page `page`, the next one of order_, into page_.
  Status LoadPage(uint64_t page);
  /// Points cur_/avail_ at the chunk bytes from pos_ to the end of their
  /// page or of the chunk.
  Status Fill();
  Result<uint64_t> ReadVarint();
  Status ReadBytes(uint64_t n, std::string* out);
  /// Rejects a suffix length the rest of the chunk cannot hold, before
  /// any allocation.
  Status CheckFrameLength(uint64_t claimed) const;

  Disk* disk_;
  const Run* run_;
  std::vector<PageId> order_;  // the run's pages in the order chunks read
  Status status_;              // metadata check, then the first error
  Prefetcher prefetch_;        // streams order_
  size_t next_read_ = 0;       // index into order_
  size_t chunks_left_ = 0;     // chunks not yet decoded
  std::vector<std::string> chunk_;
  size_t chunk_left_ = 0;      // records of chunk_ not yet handed out
  // Page bytes: the page being decoded, the carried head of the page the
  // later chunk starts on, and (for a chunk longer than a page) the head
  // of the chunk's own first page.
  std::string page_;
  uint64_t page_no_ = kNoPage;
  std::string carry_;
  uint64_t carry_page_ = kNoPage;
  std::string head_;
  uint64_t first_page_ = 0;  // the decoding chunk's first page
  uint64_t head_len_ = 0;    // bytes of it before the chunk's restart
  // Decode cursor over the chunk's bytes [pos_, end_) of the page stream.
  uint64_t pos_ = 0;
  uint64_t end_ = 0;
  const char* cur_ = nullptr;
  size_t avail_ = 0;
  run_internal::FrameDecoder frame_;
};

}  // namespace ndq

#endif  // NDQ_STORAGE_RUN_H_
