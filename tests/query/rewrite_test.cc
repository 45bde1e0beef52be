#include "query/rewrite.h"

#include <random>

#include <gtest/gtest.h>

#include "exec/parallel_evaluator.h"
#include "gen/random_forest.h"
#include "gen/random_query.h"
#include "query/parser.h"
#include "query/reference.h"
#include "testing/paper_fixture.h"

namespace ndq {
namespace {

QueryPtr P(const std::string& text) {
  return ParseQuery(text).TakeValue();
}

// Both queries produce identical results on `inst` per the oracle.
void ExpectEquivalent(const DirectoryInstance& inst, const QueryPtr& a,
                      const QueryPtr& b) {
  Result<std::vector<const Entry*>> ra = EvaluateReference(*a, inst);
  Result<std::vector<const Entry*>> rb = EvaluateReference(*b, inst);
  ASSERT_EQ(ra.ok(), rb.ok()) << a->ToString() << " vs " << b->ToString();
  if (!ra.ok()) return;
  ASSERT_EQ(ra->size(), rb->size())
      << a->ToString() << "\n-> " << b->ToString();
  for (size_t i = 0; i < ra->size(); ++i) {
    EXPECT_EQ((*ra)[i], (*rb)[i]);
  }
}

TEST(RewriteTest, MergeSameScopeAnd) {
  RewriteStats stats;
  QueryPtr q = P(
      "(& (dc=com ? sub ? objectClass=QHP) (dc=com ? sub ? priority<=1))");
  QueryPtr r = RewriteQuery(q, &stats);
  EXPECT_EQ(stats.merged_boolean_scans, 1u);
  EXPECT_EQ(r->op(), QueryOp::kLdap);
  ExpectEquivalent(testing::PaperInstance(), q, r);
}

TEST(RewriteTest, MergeSameScopeOrAndNested) {
  RewriteStats stats;
  // Both inner pairs share base+scope; after merging, the outer & merges
  // again into a single scan.
  QueryPtr q = P(
      "(& (| (dc=com ? sub ? objectClass=QHP)"
      "      (dc=com ? sub ? objectClass=callAppearance))"
      "   (dc=com ? sub ? priority=1))");
  QueryPtr r = RewriteQuery(q, &stats);
  EXPECT_EQ(stats.merged_boolean_scans, 2u);
  EXPECT_EQ(r->op(), QueryOp::kLdap);
  EXPECT_EQ(r->NodeCount(), 1u);
  ExpectEquivalent(testing::PaperInstance(), q, r);
}

TEST(RewriteTest, DifferentBasesNotMerged) {
  RewriteStats stats;
  QueryPtr q = P(
      "(& (dc=com ? sub ? objectClass=QHP)"
      "   (dc=att, dc=com ? sub ? priority<=1))");
  QueryPtr r = RewriteQuery(q, &stats);
  EXPECT_EQ(stats.merged_boolean_scans, 0u);
  EXPECT_EQ(r->op(), QueryOp::kAnd);
}

TEST(RewriteTest, DiffNeverMerged) {
  // (- ...) has no filter-level counterpart without ! over queries; it
  // must stay a set difference.
  RewriteStats stats;
  QueryPtr q = P(
      "(- (dc=com ? sub ? objectClass=QHP) (dc=com ? sub ? priority<=1))");
  QueryPtr r = RewriteQuery(q, &stats);
  EXPECT_EQ(r->op(), QueryOp::kDiff);
}

TEST(RewriteTest, CollapseIdempotent) {
  RewriteStats stats;
  QueryPtr q = P(
      "(| (c (dc=com ? sub ? ou=*) (dc=com ? sub ? uid=*))"
      "   (c (dc=com ? sub ? ou=*) (dc=com ? sub ? uid=*)))");
  QueryPtr r = RewriteQuery(q, &stats);
  EXPECT_EQ(stats.collapsed_idempotent, 1u);
  EXPECT_EQ(r->op(), QueryOp::kChildren);
  ExpectEquivalent(testing::PaperInstance(), q, r);
}

TEST(RewriteTest, DropExistentialAgg) {
  RewriteStats stats;
  QueryPtr q = P(
      "(d (dc=com ? sub ? objectClass=dcObject)"
      "   (dc=com ? sub ? objectClass=QHP) count($2)>0)");
  QueryPtr r = RewriteQuery(q, &stats);
  EXPECT_EQ(stats.dropped_existential_aggs, 1u);
  EXPECT_FALSE(r->agg().has_value());
  ExpectEquivalent(testing::PaperInstance(), q, r);
  // A non-trivial aggregate must be preserved.
  QueryPtr q2 = P(
      "(d (dc=com ? sub ? objectClass=dcObject)"
      "   (dc=com ? sub ? objectClass=QHP) count($2)>1)");
  QueryPtr r2 = RewriteQuery(q2, &stats);
  EXPECT_TRUE(r2->agg().has_value());
}

TEST(RewriteTest, ExpandAndContractParentsChildren) {
  // Theorem 8.2(d): p/c are expressible via ac/dc with a match-everything
  // third operand; the contraction undoes the expansion.
  DirectoryInstance inst = testing::PaperInstance();
  for (const char* text :
       {"(p (dc=com ? sub ? objectClass=QHP)"
        "   (dc=com ? sub ? objectClass=TOPSSubscriber))",
        "(c (dc=com ? sub ? objectClass=organizationalUnit)"
        "   (dc=com ? sub ? objectClass=SLAPolicyRules))",
        "(p (dc=com ? sub ? objectClass=callAppearance)"
        "   (dc=com ? sub ? objectClass=QHP) count($2)=1)"}) {
    SCOPED_TRACE(text);
    QueryPtr q = P(text);
    QueryPtr expanded = ExpandParentsChildren(q);
    EXPECT_NE(expanded->ToString(), q->ToString());
    EXPECT_TRUE(expanded->op() == QueryOp::kCoAncestors ||
                expanded->op() == QueryOp::kCoDescendants);
    // Equivalent on a prefix-closed instance.
    ExpectEquivalent(inst, q, expanded);
    // And the optimizer contracts it back to the cheap form.
    RewriteStats stats;
    QueryPtr contracted = RewriteQuery(expanded, &stats);
    EXPECT_EQ(stats.contracted_constrained, 1u);
    EXPECT_EQ(contracted->ToString(), q->ToString());
  }
}

TEST(RewriteTest, MergedScanHalvesLeafIo) {
  DirectoryInstance inst = testing::PaperInstance();
  SimDisk disk(512);
  EntryStore store = EntryStore::BulkLoad(&disk, inst).TakeValue();
  QueryPtr q = P(
      "(& (dc=com ? sub ? objectClass=QHP) (dc=com ? sub ? priority<=1))");
  QueryPtr r = RewriteQuery(q);

  SimDisk scratch(512);
  ParallelEvaluator evaluator(&scratch, &store);
  // Each leaf evaluated on its own scans the range once.
  disk.ResetStats();
  for (const QueryPtr& leaf : {q->q1(), q->q2()}) {
    ASSERT_TRUE(evaluator.EvaluateToEntries(*leaf).ok());
  }
  uint64_t io_separate = disk.stats().page_reads;
  disk.ResetStats();
  std::vector<Entry> after = evaluator.EvaluateToEntries(*r).TakeValue();
  uint64_t io_after = disk.stats().page_reads;
  EXPECT_LE(2 * io_after, io_separate + 1);  // one scan instead of two
  // The unmerged plan's sibling leaves share one scan of the same range.
  disk.ResetStats();
  std::vector<Entry> before = evaluator.EvaluateToEntries(*q).TakeValue();
  EXPECT_EQ(disk.stats().page_reads, io_after);
  EXPECT_EQ(before, after);
}

class RewritePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(RewritePropertyTest, RewritesPreserveSemanticsOnRandomQueries) {
  std::mt19937 rng(GetParam());
  gen::RandomForestOptions fopt;
  fopt.seed = static_cast<uint32_t>(GetParam());
  fopt.num_entries = 120;
  DirectoryInstance inst = gen::RandomForest(fopt);
  gen::RandomQueryOptions qopt;
  qopt.max_language = Language::kL3;
  for (int i = 0; i < 60; ++i) {
    QueryPtr q = gen::RandomQuery(&rng, inst, qopt);
    SCOPED_TRACE(q->ToString());
    QueryPtr r = RewriteQuery(q);
    ExpectEquivalent(inst, q, r);
    // The expansion direction must also preserve semantics (instances
    // from RandomForest are prefix-closed by construction).
    QueryPtr e = ExpandParentsChildren(q);
    ExpectEquivalent(inst, q, e);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RewritePropertyTest,
                         ::testing::Values(5, 15, 25));

}  // namespace
}  // namespace ndq
