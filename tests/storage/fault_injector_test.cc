// FaultInjector unit tests: rule triggers (nth / every-kth / page /
// sticky / seeded probability), the spec parser, and the SimDisk hook —
// faults must fire BEFORE any device side effect and be counted in a
// dedicated IoStats counter, leaving the transfer counters comparable to
// the paper's bounds.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "storage/disk.h"
#include "storage/fault_injector.h"

namespace ndq {
namespace {

TEST(FaultInjectorTest, FailNthFiresExactlyOnce) {
  FaultInjector fi({FaultInjector::FailNth(3)});
  EXPECT_TRUE(fi.Check(FaultOp::kRead, 0).ok());
  EXPECT_TRUE(fi.Check(FaultOp::kRead, 1).ok());
  Status s = fi.Check(FaultOp::kRead, 2);
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
  // One-shot: later operations proceed.
  EXPECT_TRUE(fi.Check(FaultOp::kRead, 3).ok());
  EXPECT_TRUE(fi.Check(FaultOp::kWrite, 4).ok());
  EXPECT_EQ(fi.faults_fired(), 1u);
  EXPECT_EQ(fi.ops_seen(), 5u);
}

TEST(FaultInjectorTest, StickyRuleKeepsFailing) {
  FaultInjector fi(
      {FaultInjector::FailNth(2, kFaultAllOps, /*sticky=*/true)});
  EXPECT_TRUE(fi.Check(FaultOp::kWrite, 0).ok());
  EXPECT_FALSE(fi.Check(FaultOp::kWrite, 1).ok());
  EXPECT_FALSE(fi.Check(FaultOp::kRead, 2).ok());
  EXPECT_FALSE(fi.Check(FaultOp::kAllocate, 3).ok());
  EXPECT_EQ(fi.faults_fired(), 3u);
}

TEST(FaultInjectorTest, OpMaskRestrictsEligibility) {
  // The rule counts only writes; interleaved reads are invisible to it.
  FaultInjector fi(
      {FaultInjector::FailNth(2, FaultOpBit(FaultOp::kWrite))});
  EXPECT_TRUE(fi.Check(FaultOp::kWrite, 0).ok());
  EXPECT_TRUE(fi.Check(FaultOp::kRead, 1).ok());
  EXPECT_TRUE(fi.Check(FaultOp::kRead, 2).ok());
  EXPECT_FALSE(fi.Check(FaultOp::kWrite, 3).ok());
}

TEST(FaultInjectorTest, EveryKthFiresPeriodically) {
  FaultInjector fi({FaultInjector::FailEveryKth(3)});
  int failures = 0;
  for (int i = 0; i < 9; ++i) {
    if (!fi.Check(FaultOp::kRead, static_cast<uint32_t>(i)).ok()) {
      ++failures;
      EXPECT_EQ(i % 3, 2) << "op " << i;
    }
  }
  EXPECT_EQ(failures, 3);
}

TEST(FaultInjectorTest, PageFilterTargetsOnePage) {
  FaultInjector fi({FaultInjector::FailPage(7)});
  EXPECT_TRUE(fi.Check(FaultOp::kRead, 6).ok());
  EXPECT_FALSE(fi.Check(FaultOp::kRead, 7).ok());
  EXPECT_FALSE(fi.Check(FaultOp::kWrite, 7).ok());
  EXPECT_TRUE(fi.Check(FaultOp::kRead, 8).ok());
}

TEST(FaultInjectorTest, SeededProbabilityIsDeterministic) {
  auto sample = [](uint64_t seed) {
    FaultInjector::Rule r;
    r.probability = 0.3;
    FaultInjector fi({r}, seed);
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) {
      fired.push_back(!fi.Check(FaultOp::kRead, 0).ok());
    }
    return fired;
  };
  EXPECT_EQ(sample(42), sample(42));
  EXPECT_NE(sample(42), sample(43));
}

TEST(FaultInjectorTest, ResetCountersRestartsTriggers) {
  FaultInjector fi({FaultInjector::FailNth(2)});
  EXPECT_TRUE(fi.Check(FaultOp::kRead, 0).ok());
  EXPECT_FALSE(fi.Check(FaultOp::kRead, 1).ok());
  fi.ResetCounters();
  EXPECT_EQ(fi.faults_fired(), 0u);
  EXPECT_TRUE(fi.Check(FaultOp::kRead, 0).ok());
  EXPECT_FALSE(fi.Check(FaultOp::kRead, 1).ok());
}

TEST(FaultInjectorTest, ParseAcceptsTheDocumentedGrammar) {
  EXPECT_TRUE(FaultInjector::Parse("read:n=5").ok());
  EXPECT_TRUE(FaultInjector::Parse("write:every=3:sticky").ok());
  EXPECT_TRUE(FaultInjector::Parse("any:p=0.01:seed=42").ok());
  EXPECT_TRUE(FaultInjector::Parse("read:page=12:n=1;alloc:n=2").ok());
  EXPECT_TRUE(FaultInjector::Parse("read|write:n=1").ok());

  EXPECT_FALSE(FaultInjector::Parse("").ok());
  EXPECT_FALSE(FaultInjector::Parse("bogus:n=1").ok());
  EXPECT_FALSE(FaultInjector::Parse("read:n=").ok());
  EXPECT_FALSE(FaultInjector::Parse("read:p=nope").ok());
  EXPECT_FALSE(FaultInjector::Parse("read:frobnicate=1").ok());
  // Out of range or signed numbers, and a NaN probability, are errors
  // rather than a wrapped, negated, saturated or never-firing rule.
  for (const char* bad :
       {"read:page=4294967296", "read:n=-1", "read:every=-3",
        "read:n=99999999999999999999999", "read:p=nan", "read:seed=-1:n=1",
        "read:n=+5"}) {
    EXPECT_EQ(FaultInjector::Parse(bad).status().code(),
              StatusCode::kInvalidArgument)
        << bad;
  }
  EXPECT_TRUE(FaultInjector::Parse("read:page=4294967295").ok());
}

TEST(FaultInjectorTest, ParsedPolicyBehavesLikeTheBuiltOne) {
  Result<FaultInjector> parsed = FaultInjector::Parse("read:n=2");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  FaultInjector fi = parsed.TakeValue();
  EXPECT_TRUE(fi.Check(FaultOp::kWrite, 0).ok());  // writes not eligible
  EXPECT_TRUE(fi.Check(FaultOp::kRead, 0).ok());
  EXPECT_FALSE(fi.Check(FaultOp::kRead, 1).ok());
}

TEST(FaultInjectorTest, SimDiskFailsBeforeSideEffects) {
  SimDisk disk(256);
  Result<PageId> p = disk.Allocate();
  ASSERT_TRUE(p.ok());
  std::vector<uint8_t> payload(256, 'x');
  ASSERT_TRUE(disk.WritePage(*p, payload.data()).ok());

  FaultInjector fi({FaultInjector::FailNth(1, FaultOpBit(FaultOp::kWrite),
                                           /*sticky=*/true)});
  disk.set_fault_injector(&fi);
  IoStats before = disk.stats();
  std::vector<uint8_t> update(256, 'y');
  Status s = disk.WritePage(*p, update.data());
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
  // The fault fired before the device did anything: the page still holds
  // the old bytes and no write was counted — only the fault counter moved.
  IoStats after = disk.stats();
  EXPECT_EQ(uint64_t{after.page_writes}, uint64_t{before.page_writes});
  EXPECT_EQ(uint64_t{after.faults_injected},
            uint64_t{before.faults_injected} + 1);
  std::vector<uint8_t> read_back(256, 0);
  disk.set_fault_injector(nullptr);
  ASSERT_TRUE(disk.ReadPage(*p, read_back.data()).ok());
  EXPECT_EQ(read_back, payload);
  ASSERT_TRUE(disk.Free(*p).ok());
}

TEST(FaultInjectorTest, DetachRestoresNormalService) {
  SimDisk disk(256);
  FaultInjector fi({FaultInjector::FailEveryKth(1)});  // fail everything
  disk.set_fault_injector(&fi);
  EXPECT_FALSE(disk.Allocate().ok());
  disk.set_fault_injector(nullptr);
  Result<PageId> p = disk.Allocate();
  ASSERT_TRUE(p.ok());
  ASSERT_TRUE(disk.Free(*p).ok());
}

TEST(FaultInjectorTest, AllocateFaultLeavesNoLivePage) {
  SimDisk disk(256);
  FaultInjector fi(
      {FaultInjector::FailNth(1, FaultOpBit(FaultOp::kAllocate))});
  disk.set_fault_injector(&fi);
  size_t live = disk.live_pages();
  EXPECT_FALSE(disk.Allocate().ok());
  EXPECT_EQ(disk.live_pages(), live);
  disk.set_fault_injector(nullptr);
}

}  // namespace
}  // namespace ndq
