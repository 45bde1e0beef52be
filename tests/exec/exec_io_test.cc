// I/O-complexity checks at the operator level: the number of page
// transfers per operator must scale linearly with input pages (Theorems
// 5.1, 6.1, 6.2), with the naive baselines quadratic; the embedded
// reference operators sort (Theorem 7.1).

#include <gtest/gtest.h>

#include "exec/boolean.h"
#include "exec/common.h"
#include "exec/hierarchy.h"
#include "exec/embedded_ref.h"
#include "exec/naive.h"
#include "gen/random_forest.h"

namespace ndq {
namespace {

struct Lists {
  SimDisk disk{4096};
  DirectoryInstance inst{Schema(), false};
  EntryList l1, l2;

  explicit Lists(size_t n, uint32_t seed = 7) {
    gen::RandomForestOptions opt;
    opt.seed = seed;
    opt.num_entries = n;
    inst = gen::RandomForest(opt);
    std::vector<const Entry*> c0, c1;
    for (const auto& [key, entry] : inst) {
      (void)key;
      if (entry.HasClass("class0")) c0.push_back(&entry);
      if (entry.HasClass("class1") || entry.HasClass("class0")) {
        c1.push_back(&entry);
      }
    }
    l1 = MakeEntryList(&disk, c0).TakeValue();
    l2 = MakeEntryList(&disk, c1).TakeValue();
  }

  uint64_t InputPages() const { return l1.pages.size() + l2.pages.size(); }
};

// Measures operator I/O for input size n.
template <typename Fn>
uint64_t MeasureIo(Lists* lists, const Fn& fn) {
  uint64_t before = lists->disk.stats().TotalTransfers();
  fn(lists);
  return lists->disk.stats().TotalTransfers() - before;
}

TEST(ExecIoTest, BooleanIsLinear) {
  // I/O at 4x the input size must stay within ~5x of the I/O at 1x
  // (linear growth; allow slack for page rounding).
  auto run = [](Lists* l) {
    EntryList out =
        EvalBoolean(&l->disk, QueryOp::kAnd, l->l1, l->l2).TakeValue();
    ASSERT_TRUE(FreeRun(&l->disk, &out).ok());
  };
  Lists small(2000), big(8000);
  uint64_t io_small = MeasureIo(&small, run);
  uint64_t io_big = MeasureIo(&big, run);
  EXPECT_LE(io_big, 5 * io_small + 16);
  // And the absolute count is a small multiple of the input pages.
  EXPECT_LE(io_big, 4 * big.InputPages() + 16);
}

TEST(ExecIoTest, HierarchyForwardIsLinear) {
  auto run = [](Lists* l) {
    EntryList out = EvalHierarchy(&l->disk, QueryOp::kAncestors, l->l1,
                                  l->l2, nullptr, std::nullopt)
                        .TakeValue();
    ASSERT_TRUE(FreeRun(&l->disk, &out).ok());
  };
  Lists small(2000), big(8000);
  uint64_t io_small = MeasureIo(&small, run);
  uint64_t io_big = MeasureIo(&big, run);
  EXPECT_LE(io_big, 5 * io_small + 16);
}

TEST(ExecIoTest, HierarchyBackwardIsLinear) {
  // The descendant direction reads its inputs and its annotated list
  // backwards, so it costs what the ancestor direction costs: one read
  // of the inputs, one write and one read of the annotated list, one
  // write of the output.
  auto run = [](Lists* l) {
    EntryList out = EvalHierarchy(&l->disk, QueryOp::kDescendants, l->l1,
                                  l->l2, nullptr, std::nullopt)
                        .TakeValue();
    ASSERT_TRUE(FreeRun(&l->disk, &out).ok());
  };
  Lists small(2000), big(8000);
  uint64_t io_small = MeasureIo(&small, run);
  uint64_t io_big = MeasureIo(&big, run);
  EXPECT_LE(io_big, 5 * io_small + 16);
  EXPECT_LE(io_big, 4 * big.InputPages() + 16);
}

TEST(ExecIoTest, NaiveHierarchyIsQuadratic) {
  // The witness-test baseline rescans L2 per L1 entry; its I/O must grow
  // far faster than the stack algorithm's.
  auto naive = [](Lists* l) {
    EntryList out =
        NaiveHierarchy(&l->disk, QueryOp::kAncestors, l->l1, l->l2, nullptr)
            .TakeValue();
    ASSERT_TRUE(FreeRun(&l->disk, &out).ok());
  };
  auto stack = [](Lists* l) {
    EntryList out = EvalHierarchy(&l->disk, QueryOp::kAncestors, l->l1,
                                  l->l2, nullptr, std::nullopt)
                        .TakeValue();
    ASSERT_TRUE(FreeRun(&l->disk, &out).ok());
  };
  Lists a(3000, 5), b(3000, 5);
  uint64_t io_naive = MeasureIo(&a, naive);
  uint64_t io_stack = MeasureIo(&b, stack);
  EXPECT_GT(io_naive, 10 * io_stack);

  // Quadratic growth: 3x input -> ~9x naive I/O.
  Lists c(9000, 5);
  uint64_t io_naive_big = MeasureIo(&c, naive);
  EXPECT_GT(io_naive_big, 5 * io_naive);
}

TEST(ExecIoTest, EmbeddedRefMatchesNaiveResultsCheaply) {
  Lists l(1500, 9);
  EntryList sorted =
      EvalEmbeddedRef(&l.disk, QueryOp::kValueDn, l.l1, l.l2, "ref",
                      std::nullopt)
          .TakeValue();
  EntryList naive =
      NaiveEmbeddedRef(&l.disk, QueryOp::kValueDn, l.l1, l.l2, "ref")
          .TakeValue();
  std::vector<Entry> a = ReadEntryList(&l.disk, sorted).TakeValue();
  std::vector<Entry> b = ReadEntryList(&l.disk, naive).TakeValue();
  EXPECT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size() && i < b.size(); ++i) {
    EXPECT_EQ(a[i], b[i]);
  }
  // dv direction too.
  EntryList sorted_dv =
      EvalEmbeddedRef(&l.disk, QueryOp::kDnValue, l.l1, l.l2, "ref",
                      std::nullopt)
          .TakeValue();
  EntryList naive_dv =
      NaiveEmbeddedRef(&l.disk, QueryOp::kDnValue, l.l1, l.l2, "ref")
          .TakeValue();
  EXPECT_EQ(ReadEntryList(&l.disk, sorted_dv).TakeValue(),
            ReadEntryList(&l.disk, naive_dv).TakeValue());
}

TEST(ExecIoTest, NaiveHierarchyMatchesStackResults) {
  for (QueryOp op : {QueryOp::kParents, QueryOp::kChildren,
                     QueryOp::kAncestors, QueryOp::kDescendants}) {
    Lists l(800, 13);
    EntryList fast =
        EvalHierarchy(&l.disk, op, l.l1, l.l2, nullptr, std::nullopt)
            .TakeValue();
    EntryList slow = NaiveHierarchy(&l.disk, op, l.l1, l.l2, nullptr)
                         .TakeValue();
    EXPECT_EQ(ReadEntryList(&l.disk, fast).TakeValue(),
              ReadEntryList(&l.disk, slow).TakeValue())
        << QueryOpToString(op);
  }
  // Constrained ops against naive too.
  Lists l(400, 17);
  EntryList l3 = [&] {
    std::vector<const Entry*> c2;
    for (const auto& [key, entry] : l.inst) {
      (void)key;
      if (entry.HasClass("class2")) c2.push_back(&entry);
    }
    return MakeEntryList(&l.disk, c2).TakeValue();
  }();
  for (QueryOp op : {QueryOp::kCoAncestors, QueryOp::kCoDescendants}) {
    EntryList fast =
        EvalHierarchy(&l.disk, op, l.l1, l.l2, &l3, std::nullopt)
            .TakeValue();
    EntryList slow =
        NaiveHierarchy(&l.disk, op, l.l1, l.l2, &l3).TakeValue();
    EXPECT_EQ(ReadEntryList(&l.disk, fast).TakeValue(),
              ReadEntryList(&l.disk, slow).TakeValue())
        << QueryOpToString(op);
  }
}

TEST(ExecIoTest, SimpleAggTwoScans) {
  // Theorem 6.1: <= 2 scans of the input + writing the output. Annotation
  // adds one materialization; total stays a small multiple of input pages.
  Lists l(4000, 21);
  AggSelFilter f = ParseAggSelFilter("count(x)>=1").ValueOrDie();
  uint64_t before = l.disk.stats().TotalTransfers();
  EntryList out = EvalSimpleAgg(&l.disk, l.l1, f).TakeValue();
  uint64_t io = l.disk.stats().TotalTransfers() - before;
  EXPECT_LE(io, 6 * l.l1.pages.size() + 16);
  ASSERT_TRUE(FreeRun(&l.disk, &out).ok());

  // With an entry-set aggregate the extra global scan is still linear.
  AggSelFilter f2 = ParseAggSelFilter("min(x)=min(min(x))").ValueOrDie();
  before = l.disk.stats().TotalTransfers();
  out = EvalSimpleAgg(&l.disk, l.l1, f2).TakeValue();
  io = l.disk.stats().TotalTransfers() - before;
  EXPECT_LE(io, 8 * l.l1.pages.size() + 16);
}

}  // namespace
}  // namespace ndq
