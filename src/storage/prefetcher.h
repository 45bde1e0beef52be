// Scan prefetch over a run's page list.
//
// Sorted-run scans are the dominant cold I/O in every operator pipeline,
// and their access order is fully known up front: a Run's extent table
// (run.pages) lists exactly the pages a sequential reader will touch, in
// order. The Prefetcher exploits that: when its disk has an async engine
// attached (Disk::SetIoDepth), it keeps a window of up to io_depth reads
// in flight ahead of the consumer, so the consumer's LoadPage usually
// finds the next page already resident (a prefetch hit) instead of
// stalling a full device latency (an io-wait).
//
// Accounting (see disk.h): the window's physical reads are uncounted;
// Read() runs Disk::FinishAsyncRead at consumption, so counted page reads
// and fault-injection op order are byte-identical to a synchronous scan.
// Pages fetched ahead but never consumed (early-terminated range scans,
// abandoned readers) are counted as prefetch_wasted — real work the
// simulation deliberately does NOT charge as a transfer, because the
// synchronous execution would never have issued it.
//
// Adaptive backoff: when the device's recent reads complete faster than
// an async-queue round trip (Disk::PrefetchWorthwhile — e.g. a FileDisk
// whose pages are warm in the OS cache), the window stops submitting and
// misses are served by plain synchronous ReadPage, which performs the
// same observable sequence. Prefetch then costs nothing when it cannot
// help, instead of adding handoff latency to every page.
//
// Thread-compatible (one consumer), like the RunReader that owns it.

#ifndef NDQ_STORAGE_PREFETCHER_H_
#define NDQ_STORAGE_PREFETCHER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "storage/async_disk.h"

namespace ndq {

class Disk;

class Prefetcher {
 public:
  /// The index of the page a reader reads after page `idx`; an index past
  /// the list ends the stream.
  using NextPage = std::function<size_t(size_t idx)>;

  /// Streams `*pages` (not owned; must outlive the prefetcher) on `disk`,
  /// from index `first` on in the order `next` gives (null: idx + 1), so
  /// a reader that skips pages has only the ones it reads fetched ahead.
  /// Degrades to plain synchronous ReadPage when the disk has no async
  /// engine, so callers can construct one unconditionally.
  Prefetcher(Disk* disk, const std::vector<PageId>* pages, size_t first = 0,
             NextPage next = nullptr);

  /// Cancels the window; completed-but-unconsumed fetches count as
  /// prefetch_wasted.
  ~Prefetcher();

  Prefetcher(const Prefetcher&) = delete;
  Prefetcher& operator=(const Prefetcher&) = delete;

  /// Reads pages[idx] into `buf` (page_size bytes) with sync-identical
  /// accounting, then tops the prefetch window back up from the page
  /// after idx.
  /// Supports out-of-order idx (SeekTo): skipped-over in-flight pages
  /// stay in the window in case the scan passes them later.
  Status Read(size_t idx, uint8_t* buf);

  bool async() const { return async_ != nullptr; }

 private:
  void TopUpWindow();
  void DropWindow();
  size_t After(size_t idx) const { return next_ ? next_(idx) : idx + 1; }

  Disk* const disk_;
  const std::vector<PageId>* const pages_;
  const NextPage next_;
  AsyncDisk* const async_;  // null = sync fallback
  /// In-flight/completed fetches by page index.
  std::map<size_t, AsyncDisk::RequestHandle> window_;
  /// Next page index the window will submit.
  size_t next_submit_;
};

}  // namespace ndq

#endif  // NDQ_STORAGE_PREFETCHER_H_
