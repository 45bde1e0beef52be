#include "storage/run.h"

#include <vector>

#include <gtest/gtest.h>

#include "storage/fault_injector.h"
#include "storage/serde.h"

namespace ndq {
namespace {

TEST(RunTest, WriteReadSmallRecords) {
  SimDisk disk(128);
  RunWriter w(&disk);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(w.Add("record-" + std::to_string(i)).ok());
  }
  ndq::Run run = w.Finish().ValueOrDie();
  EXPECT_EQ(run.num_records, 100u);

  RunReader r(&disk, run);
  std::string rec;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(r.Next(&rec).ValueOrDie());
    EXPECT_EQ(rec, "record-" + std::to_string(i));
  }
  EXPECT_FALSE(r.Next(&rec).ValueOrDie());
  EXPECT_FALSE(r.Next(&rec).ValueOrDie());  // stable at end
}

TEST(RunTest, RecordsSpanPages) {
  SimDisk disk(64);
  RunWriter w(&disk);
  std::string big(1000, 'z');
  ASSERT_TRUE(w.Add(big).ok());
  ASSERT_TRUE(w.Add("tail").ok());
  ndq::Run run = w.Finish().ValueOrDie();
  EXPECT_GT(run.pages.size(), 10u);  // 1000 bytes over 64-byte pages

  RunReader r(&disk, run);
  std::string rec;
  ASSERT_TRUE(r.Next(&rec).ValueOrDie());
  EXPECT_EQ(rec, big);
  ASSERT_TRUE(r.Next(&rec).ValueOrDie());
  EXPECT_EQ(rec, "tail");
}

TEST(RunTest, EmptyRun) {
  SimDisk disk(64);
  RunWriter w(&disk);
  ndq::Run run = w.Finish().ValueOrDie();
  EXPECT_TRUE(run.empty());
  EXPECT_TRUE(run.pages.empty());
  RunReader r(&disk, run);
  std::string rec;
  EXPECT_FALSE(r.Next(&rec).ValueOrDie());
}

TEST(RunTest, EmptyRecordsAllowed) {
  SimDisk disk(64);
  RunWriter w(&disk);
  ASSERT_TRUE(w.Add("").ok());
  ASSERT_TRUE(w.Add("x").ok());
  ASSERT_TRUE(w.Add("").ok());
  ndq::Run run = w.Finish().ValueOrDie();
  RunReader r(&disk, run);
  std::string rec;
  ASSERT_TRUE(r.Next(&rec).ValueOrDie());
  EXPECT_EQ(rec, "");
  ASSERT_TRUE(r.Next(&rec).ValueOrDie());
  EXPECT_EQ(rec, "x");
  ASSERT_TRUE(r.Next(&rec).ValueOrDie());
  EXPECT_EQ(rec, "");
}

TEST(RunTest, IoIsLinearInPayload) {
  // Writing N records costs ceil(bytes/page) writes; reading them back the
  // same number of reads: the linear-I/O building block of every theorem.
  SimDisk disk(4096);
  RunWriter w(&disk);
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(w.Add("payload-payload-payload-" + std::to_string(i)).ok());
  }
  ndq::Run run = w.Finish().ValueOrDie();
  uint64_t expected_pages =
      (run.payload_bytes + disk.page_size() - 1) / disk.page_size();
  EXPECT_EQ(run.pages.size(), expected_pages);
  EXPECT_EQ(disk.stats().page_writes, expected_pages);

  disk.ResetStats();
  RunReader r(&disk, run);
  std::string rec;
  while (r.Next(&rec).ValueOrDie()) {
  }
  EXPECT_EQ(disk.stats().page_reads, expected_pages);
  EXPECT_EQ(r.records_read(), static_cast<uint64_t>(n));
}

TEST(RunTest, FreeRunReleasesPages) {
  SimDisk disk(64);
  RunWriter w(&disk);
  for (int i = 0; i < 50; ++i) ASSERT_TRUE(w.Add("some record").ok());
  ndq::Run run = w.Finish().ValueOrDie();
  EXPECT_GT(disk.live_pages(), 0u);
  ASSERT_TRUE(FreeRun(&disk, &run).ok());
  EXPECT_EQ(disk.live_pages(), 0u);
  EXPECT_TRUE(run.empty());
}

TEST(RunTest, AddAfterFinishRejected) {
  SimDisk disk(64);
  RunWriter w(&disk);
  ASSERT_TRUE(w.Add("x").ok());
  ASSERT_TRUE(w.Finish().ok());
  EXPECT_FALSE(w.Add("y").ok());
}

// A run of `n` keyed records in `format` (kPrefix treats them as opaque).
Run WriteKeyed(Disk* disk, PageFormat format, int n) {
  RunWriter w(disk, format);
  for (int i = 0; i < n; ++i) {
    std::string rec;
    ByteWriter(&rec).PutString("key-" + std::to_string(1000 + i));
    rec += "value-" + std::to_string(i);
    EXPECT_TRUE(w.Add(rec).ok());
  }
  return w.Finish().ValueOrDie();
}

TEST(RunTest, CopyRunIsPageForPage) {
  for (PageFormat format : {PageFormat::kPrefix, PageFormat::kKeyPrefix}) {
    for (int n : {0, 1, 300}) {
      SCOPED_TRACE("format " + std::to_string(static_cast<int>(format)) +
                   ", " + std::to_string(n) + " records");
      SimDisk from(128), to(128);
      ndq::Run run = WriteKeyed(&from, format, n);
      ASSERT_EQ(run.pages.size() > 1, n > 1);  // empty, one page, many
      from.ResetStats();
      ndq::Run copy = CopyRun(&from, run, &to).ValueOrDie();

      // One read per page on the source, one allocation and write per
      // page on the target.
      EXPECT_EQ(from.stats().page_reads, run.pages.size());
      EXPECT_EQ(from.stats().page_writes, 0u);
      EXPECT_EQ(to.stats().page_writes, run.pages.size());
      EXPECT_EQ(to.live_pages(), run.pages.size());
      EXPECT_EQ(copy.restarts, run.restarts);
      EXPECT_EQ(copy.num_records, run.num_records);
      EXPECT_EQ(copy.payload_bytes, run.payload_bytes);
      EXPECT_EQ(copy.format, run.format);
      ASSERT_EQ(copy.pages.size(), run.pages.size());
      std::vector<uint8_t> a(128), b(128);
      for (size_t i = 0; i < run.pages.size(); ++i) {
        ASSERT_TRUE(from.ReadPage(run.pages[i], a.data()).ok());
        ASSERT_TRUE(to.ReadPage(copy.pages[i], b.data()).ok());
        EXPECT_EQ(a, b) << "page " << i;
      }
      ASSERT_TRUE(FreeRun(&to, &copy).ok());
      EXPECT_EQ(to.live_pages(), 0u);
    }
  }
}

TEST(RunTest, CopyRunNeedsOnePageSize) {
  SimDisk from(128), to(256);
  ndq::Run run = WriteKeyed(&from, PageFormat::kPrefix, 50);
  EXPECT_EQ(CopyRun(&from, run, &to).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(to.live_pages(), 0u);
}

TEST(RunTest, FailedCopyRunFreesItsPages) {
  // Fail the copy at every read, allocation and write it makes, with and
  // without async reads: each attempt returns a Status and strands no
  // page on the target.
  const uint32_t ops = FaultOpBit(FaultOp::kRead) |
                       FaultOpBit(FaultOp::kAllocate) |
                       FaultOpBit(FaultOp::kWrite);
  SimDisk from(128);
  ndq::Run run = WriteKeyed(&from, PageFormat::kKeyPrefix, 100);
  ASSERT_GT(run.pages.size(), 3u);
  const uint64_t copy_ops = 3 * run.pages.size();
  for (size_t io_depth : {0, 2}) {
    from.SetIoDepth(io_depth);
    for (uint64_t nth = 1; nth <= copy_ops + 1; ++nth) {
      SCOPED_TRACE("io depth " + std::to_string(io_depth) + ", op " +
                   std::to_string(nth));
      SimDisk to(128);
      FaultInjector fi({FaultInjector::FailNth(nth, ops)});
      from.set_fault_injector(&fi);
      to.set_fault_injector(&fi);
      Result<ndq::Run> copy = CopyRun(&from, run, &to);
      from.set_fault_injector(nullptr);
      to.set_fault_injector(nullptr);
      if (nth > copy_ops) {
        // Past the copy's last op: nothing fires, and the copy is whole.
        EXPECT_EQ(fi.ops_seen(), copy_ops);
        ASSERT_TRUE(copy.ok()) << copy.status().ToString();
        EXPECT_EQ(to.live_pages(), run.pages.size());
        continue;
      }
      EXPECT_FALSE(copy.ok());
      EXPECT_EQ(fi.faults_fired(), 1u);
      EXPECT_EQ(to.live_pages(), 0u);
    }
  }
  from.SetIoDepth(0);
}

}  // namespace
}  // namespace ndq
