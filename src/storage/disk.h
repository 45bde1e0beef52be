// Page-granular block devices: the abstract Disk interface, plus the
// simulated implementation the theorems are measured on.
//
// Disk is the device contract the whole system is written against: every
// persistent structure (the entry store, intermediate operator runs,
// spilled stacks) lives in pages of SOME Disk, and every transfer is
// counted in IoStats. The base class owns everything the paper's
// accounting depends on — transfer counters, fault-injection hooks,
// simulated latency, and the async read engine — while subclasses provide
// only the physical page operations:
//   * SimDisk (below) keeps pages in memory: deterministic, fast, and the
//     substrate for every theorem-bound check;
//   * FileDisk (storage/file_disk.h) keeps pages in a real file via
//     pread/pwrite, so benches can report actual-hardware wall-clock next
//     to the simulated page counts.
//
// Asynchronous reads. SetIoDepth(N) attaches an AsyncDisk
// (storage/async_disk.h): a submit/complete queue served by N I/O worker
// threads. Sequential scans then stream ahead through a Prefetcher
// (storage/prefetcher.h) instead of stalling one page at a time. The
// design invariant is that async I/O NEVER changes the simulated
// accounting: a prefetched read performs its physical transfer early
// (PhysicalRead — no counters, no fault check), and the transfer is
// counted and offered to the fault injector only when a consumer actually
// takes the page (FinishAsyncRead), in exactly the order a synchronous
// execution would have issued it. Page counts stay byte-identical whether
// io-depth is 0 or 64; wall-clock is what changes.
//
// SimDisk is safe for concurrent use by the parallel evaluator
// (exec/parallel_evaluator.h):
//   * the page table is a chunked array behind atomic chunk pointers, so
//     it grows without invalidating concurrent readers;
//   * per-slot state (live flag, page bytes) is guarded by a sharded
//     mutex keyed on the page id;
//   * the free list and slot-count growth sit under one allocation mutex;
//   * IoStats counters are relaxed atomics, so the simulated-I/O
//     accounting stays exact under any interleaving.
// SaveToFile/LoadFromFile are NOT safe against concurrent page traffic;
// quiesce the device first (they are checkpoint/restore paths).

#ifndef NDQ_STORAGE_DISK_H_
#define NDQ_STORAGE_DISK_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/status.h"
#include "storage/io_stats.h"

namespace ndq {

class AsyncDisk;
class FaultInjector;
enum class FaultOp : uint8_t;

using PageId = uint32_t;
inline constexpr PageId kInvalidPage = static_cast<PageId>(-1);

/// Default page size. 4 KiB holds a few dozen typical directory entries,
/// i.e. a blocking factor B in the tens, matching the paper's setting.
inline constexpr size_t kDefaultPageSize = 4096;

/// \brief Abstract page device: accounting, faults, latency and async
/// reads in the base; physical storage in the subclass.
class Disk {
 public:
  explicit Disk(size_t page_size = kDefaultPageSize);
  virtual ~Disk();

  Disk(const Disk&) = delete;
  Disk& operator=(const Disk&) = delete;

  size_t page_size() const { return page_size_; }

  /// Allocates a zeroed page and returns its id. Fails with
  /// ResourceExhausted when the device is full, or Unavailable when an
  /// attached FaultInjector refuses the operation.
  Result<PageId> Allocate();

  /// Returns a page to the free list. Reading a freed page is an error.
  Status Free(PageId id);

  /// Copies the page into `buf` (page_size() bytes).
  Status ReadPage(PageId id, uint8_t* buf);

  /// Copies `buf` (page_size() bytes) into the page.
  Status WritePage(PageId id, const uint8_t* buf);

  /// Durability barrier: blocks until every completed WritePage is on
  /// stable media. SimDisk pages are always "durable" (the crash model is
  /// process death, not power loss), so its barrier is a no-op; FileDisk
  /// issues fdatasync. Consults the fault injector (FaultOp::kSync)
  /// before the physical barrier, like every other device op. The WAL
  /// (store/wal.h) calls this on commit.
  Status Sync();

  const IoStats& stats() const { return stats_; }
  void ResetStats() { stats_.Reset(); }

  /// Number of live (allocated, not freed) pages.
  size_t live_pages() const {
    return live_pages_.load(std::memory_order_relaxed);
  }

  /// Simulated device latency added to every page transfer (the
  /// transferring thread sleeps; concurrent transfers overlap, like real
  /// disk queue depth). 0 (the default) keeps tests instantaneous;
  /// bench_parallel and bench_io turn it on to measure how parallelism
  /// and prefetch hide I/O stalls. Applies to async physical reads too
  /// (the I/O worker sleeps, not the consumer).
  void set_transfer_latency_micros(uint32_t us) {
    latency_micros_.store(us, std::memory_order_relaxed);
  }
  uint32_t transfer_latency_micros() const {
    return latency_micros_.load(std::memory_order_relaxed);
  }

  /// Attaches a fault-injection policy (storage/fault_injector.h): every
  /// subsequent Read/Write/Allocate/Free first consults it and fails —
  /// before any side effect — when a rule fires. Pass nullptr to detach.
  /// The injector is NOT owned and must outlive its attachment. The hook
  /// is zero-cost when detached (one relaxed atomic load). With async
  /// reads the consult happens at completion-consumption time (see
  /// FinishAsyncRead), so campaigns sweep the same deterministic op
  /// stream at any io-depth.
  void set_fault_injector(FaultInjector* injector) {
    injector_.store(injector, std::memory_order_release);
  }
  FaultInjector* fault_injector() const {
    return injector_.load(std::memory_order_acquire);
  }

  // -------------------------------------------------------------------
  // Async read engine
  // -------------------------------------------------------------------

  /// Attaches (depth > 0) or detaches (depth == 0) the async read engine:
  /// `depth` I/O worker threads serving a submit/complete queue, i.e. at
  /// most `depth` physical reads in flight at once. Sequential run scans
  /// pick the engine up automatically (storage/prefetcher.h). NOT safe
  /// against concurrent page traffic; quiesce the device first (the
  /// engine does: Engine::SetIoDepth drains in-flight queries).
  void SetIoDepth(size_t depth);
  size_t io_depth() const;
  /// The attached engine, or nullptr when io_depth() == 0.
  AsyncDisk* async() const { return async_.get(); }

  /// Physical page read for the async engine: transfers the bytes and
  /// simulates device latency, but neither counts the transfer nor
  /// consults the fault injector — that happens at consumption via
  /// FinishAsyncRead, keeping the simulated op stream identical to a
  /// synchronous execution.
  Status PhysicalRead(PageId id, uint8_t* buf);

  /// Consumption-time bookkeeping for a prefetched page: consults the
  /// fault injector (exactly where a sync ReadPage would), then reports
  /// `physical` (the PhysicalRead outcome), and only on success counts
  /// the transfer. Returns the status the equivalent sync ReadPage would
  /// have returned.
  Status FinishAsyncRead(PageId id, const Status& physical);

  /// Prefetch observability, surfaced in IoStats and EXPLAIN ANALYZE.
  void CountPrefetchHit();
  void CountPrefetchWasted(uint64_t n);
  void AddIoWaitMicros(uint64_t us);

  /// Whether read-ahead is likely to pay for itself on this device right
  /// now. The device keeps an EWMA of recent physical read durations
  /// (sampled in ReadPage and PhysicalRead); when reads complete faster
  /// than the async engine's own round-trip overhead — a warm FileDisk
  /// served from page cache, a zero-latency SimDisk — issuing them
  /// through the queue only adds handoff cost, so the Prefetcher falls
  /// back to plain synchronous reads (accounting is identical either
  /// way; see storage/prefetcher.h). Optimistic until enough samples
  /// accumulate, so cold starts still get read-ahead.
  bool PrefetchWorthwhile() const;

 protected:
  // Physical operations, implemented by the device. The base class has
  // already consulted the fault injector; implementations do no stats
  // accounting and no latency simulation.
  virtual Result<PageId> DoAllocate() = 0;
  virtual Status DoFree(PageId id) = 0;
  virtual Status DoRead(PageId id, uint8_t* buf) = 0;
  virtual Status DoWrite(PageId id, const uint8_t* buf) = 0;
  /// Physical durability barrier; default is the no-op of devices whose
  /// writes are durable at completion (SimDisk).
  virtual Status DoSync() { return Status::OK(); }

  /// Consults the attached injector (if any); on refusal, counts the
  /// fault and returns the injected status.
  Status CheckFault(FaultOp op, PageId id);
  void SimulateLatency() const;

  /// For subclass restore paths (e.g. SimDisk::LoadFromFile) that replace
  /// the whole device image outside Allocate/Free.
  void set_live_pages(size_t n) {
    live_pages_.store(n, std::memory_order_relaxed);
  }

  /// Subclass destructors MUST call this first: it joins the async
  /// engine's worker threads before the physical storage they read from
  /// is torn down. Idempotent.
  void ShutdownAsync();

 private:
  /// Folds one physical-read duration into the EWMA (relaxed atomics;
  /// lost updates under races only slow convergence).
  void RecordReadSample(uint64_t ns);

  size_t page_size_;
  std::atomic<size_t> live_pages_{0};
  std::atomic<uint32_t> latency_micros_{0};
  std::atomic<FaultInjector*> injector_{nullptr};
  std::unique_ptr<AsyncDisk> async_;
  // Adaptive prefetch state: EWMA of physical read durations + sample
  // count for the warmup heuristic.
  std::atomic<uint64_t> read_ewma_ns_{0};
  std::atomic<uint64_t> read_samples_{0};
  IoStats stats_;
};

/// \brief The in-memory simulated device (the paper's measurement
/// substrate). See the file comment for the concurrency structure.
class SimDisk : public Disk {
 public:
  explicit SimDisk(size_t page_size = kDefaultPageSize) : Disk(page_size) {}
  ~SimDisk() override;

  /// Writes the device image (page size, live pages, contents) to a file.
  /// Freed slots are preserved so PageIds remain stable across reload.
  Status SaveToFile(const std::string& path) const;

  /// Reads a device image previously written by SaveToFile. Replaces this
  /// disk's contents; the page size must match the image's.
  Status LoadFromFile(const std::string& path);

 protected:
  Result<PageId> DoAllocate() override;
  Status DoFree(PageId id) override;
  Status DoRead(PageId id, uint8_t* buf) override;
  Status DoWrite(PageId id, const uint8_t* buf) override;

 private:
  // Page slots live in fixed-size chunks whose addresses never change, so
  // readers can reach a slot without holding the allocation mutex. The
  // chunk directory is a fixed array of atomic pointers (published with
  // release stores, read with acquire loads).
  static constexpr size_t kChunkBits = 12;
  static constexpr size_t kChunkSize = size_t{1} << kChunkBits;  // slots
  static constexpr size_t kMaxChunks = size_t{1} << 12;  // 16M pages max
  static constexpr size_t kShards = 16;

  struct PageSlot {
    std::unique_ptr<uint8_t[]> data;
    bool live = false;
  };

  /// Slot pointer for `id`, or nullptr if the id was never allocated.
  PageSlot* SlotFor(PageId id) const;
  std::mutex& ShardFor(PageId id) const {
    return shard_mu_[id % kShards];
  }
  void FreeAllChunks();

  std::array<std::atomic<PageSlot*>, kMaxChunks> chunks_{};
  std::atomic<size_t> num_slots_{0};
  mutable std::mutex alloc_mu_;  // free_list_ + chunk growth
  mutable std::array<std::mutex, kShards> shard_mu_;
  std::vector<PageId> free_list_;
};

/// \brief RAII I/O attribution scope for the current thread.
///
/// While alive, every page operation performed BY THIS THREAD on `disk`
/// (or on any disk, when `disk` is nullptr) is additionally counted into
/// `*acc`. Scopes nest per thread, and only the INNERMOST matching scope
/// receives a given operation — so a parent scope measures exactly the
/// I/O not claimed by a nested child scope. The parallel evaluator opens
/// one scope per traced plan node; per-node I/O attribution then stays
/// exact even when sibling subtrees run on other threads (each thread has
/// its own scope stack), and cumulative subtree I/O is recovered as
/// self + sum of children. Async reads are attributed to the CONSUMING
/// thread's scope (the physical transfer happens on an I/O worker with no
/// scopes), so per-operator attribution is io-depth-invariant too.
class IoScope {
 public:
  IoScope(const Disk* disk, IoStats* acc);
  ~IoScope();

  IoScope(const IoScope&) = delete;
  IoScope& operator=(const IoScope&) = delete;
};

}  // namespace ndq

#endif  // NDQ_STORAGE_DISK_H_
