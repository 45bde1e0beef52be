// Thread-safety of the storage layer: concurrent SimDisk page traffic
// with exact IoStats accounting, per-thread IoScope attribution, and the
// ThreadPool's nested fork/join. These are the primary ThreadSanitizer
// targets.

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "exec/thread_pool.h"
#include "storage/disk.h"

namespace ndq {
namespace {

TEST(StorageConcurrencyTest, DiskCountersStayExactUnderContention) {
  constexpr int kThreads = 8;
  constexpr int kPagesPerThread = 64;
  SimDisk disk(128);

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&disk, t] {
      std::vector<uint8_t> buf(128);
      for (int i = 0; i < kPagesPerThread; ++i) {
        PageId p = *disk.Allocate();
        std::memset(buf.data(), t + 1, buf.size());
        ASSERT_TRUE(disk.WritePage(p, buf.data()).ok());
        std::vector<uint8_t> back(128);
        ASSERT_TRUE(disk.ReadPage(p, back.data()).ok());
        // No tearing: the page holds exactly what this thread wrote.
        EXPECT_EQ(std::memcmp(buf.data(), back.data(), buf.size()), 0);
        ASSERT_TRUE(disk.Free(p).ok());
      }
    });
  }
  for (std::thread& t : threads) t.join();

  // Relaxed atomics lose nothing: every operation is counted exactly.
  constexpr uint64_t kOps = uint64_t{kThreads} * kPagesPerThread;
  EXPECT_EQ(disk.stats().pages_allocated, kOps);
  EXPECT_EQ(disk.stats().page_writes, kOps);
  EXPECT_EQ(disk.stats().page_reads, kOps);
  EXPECT_EQ(disk.stats().pages_freed, kOps);
  EXPECT_EQ(disk.live_pages(), 0u);
}

TEST(StorageConcurrencyTest, IoScopeAttributesPerThread) {
  SimDisk disk(128);
  constexpr int kThreads = 4;
  IoStats per_thread[kThreads];

  // Each thread does a known amount of I/O inside its own scope; scope
  // stacks are thread-local, so a sibling's transfers never leak in.
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&disk, &per_thread, t] {
      IoScope scope(&disk, &per_thread[t]);
      std::vector<uint8_t> buf(128, static_cast<uint8_t>(t));
      for (int i = 0; i <= t; ++i) {
        PageId p = *disk.Allocate();
        ASSERT_TRUE(disk.WritePage(p, buf.data()).ok());
        ASSERT_TRUE(disk.ReadPage(p, buf.data()).ok());
        ASSERT_TRUE(disk.Free(p).ok());
      }
    });
  }
  for (std::thread& t : threads) t.join();

  for (int t = 0; t < kThreads; ++t) {
    const uint64_t n = static_cast<uint64_t>(t) + 1;
    EXPECT_EQ(per_thread[t].page_writes, n) << "thread " << t;
    EXPECT_EQ(per_thread[t].page_reads, n) << "thread " << t;
    EXPECT_EQ(per_thread[t].pages_allocated, n) << "thread " << t;
  }
}

TEST(StorageConcurrencyTest, NestedIoScopesSplitSelfFromChild) {
  SimDisk disk(128);
  IoStats parent, child;
  std::vector<uint8_t> buf(128, 7);
  {
    IoScope outer(&disk, &parent);
    PageId p = *disk.Allocate();
    ASSERT_TRUE(disk.WritePage(p, buf.data()).ok());
    {
      IoScope inner(&disk, &child);
      ASSERT_TRUE(disk.ReadPage(p, buf.data()).ok());
      ASSERT_TRUE(disk.ReadPage(p, buf.data()).ok());
    }
    ASSERT_TRUE(disk.Free(p).ok());
  }
  // The inner scope claimed its reads; the parent kept only its own ops.
  EXPECT_EQ(child.page_reads, 2u);
  EXPECT_EQ(child.page_writes, 0u);
  EXPECT_EQ(parent.page_reads, 0u);
  EXPECT_EQ(parent.page_writes, 1u);
  EXPECT_EQ(parent.pages_allocated, 1u);
  EXPECT_EQ(parent.pages_freed, 1u);
}

TEST(ThreadPoolTest, NestedForkJoinCompletesEverything) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.parallelism(), 4u);
  std::atomic<int> leaf_count{0};

  // Two levels of fork/join: the outer Wait() must help run inner tasks
  // rather than deadlock waiting for workers that are blocked on it.
  {
    ThreadPool::TaskGroup outer(&pool);
    for (int i = 0; i < 8; ++i) {
      outer.Run([&pool, &leaf_count] {
        ThreadPool::TaskGroup inner(&pool);
        for (int j = 0; j < 8; ++j) {
          inner.Run([&leaf_count] {
            leaf_count.fetch_add(1, std::memory_order_relaxed);
          });
        }
      });
    }
  }
  EXPECT_EQ(leaf_count.load(), 64);
}

TEST(ThreadPoolTest, WorkerIdsAreStableAndInRange) {
  ThreadPool pool(3);
  EXPECT_EQ(ThreadPool::current_worker_id(), 0u) << "caller is worker 0";
  std::mutex mu;
  std::vector<uint32_t> seen;
  {
    ThreadPool::TaskGroup group(&pool);
    for (int i = 0; i < 32; ++i) {
      group.Run([&] {
        uint32_t id = ThreadPool::current_worker_id();
        std::lock_guard<std::mutex> lock(mu);
        seen.push_back(id);
      });
    }
  }
  ASSERT_EQ(seen.size(), 32u);
  for (uint32_t id : seen) EXPECT_LT(id, 3u);
}

TEST(ThreadPoolTest, SinglethreadedPoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.parallelism(), 1u);
  int ran = 0;
  {
    ThreadPool::TaskGroup group(&pool);
    group.Run([&ran] { ++ran; });
    group.Run([&ran] { ++ran; });
  }
  EXPECT_EQ(ran, 2);
}

}  // namespace
}  // namespace ndq
