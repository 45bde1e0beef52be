#include <gtest/gtest.h>

#include "exec/parallel_evaluator.h"
#include "query/parser.h"
#include "query/reference.h"
#include "testing/paper_fixture.h"

namespace ndq {
namespace {

TEST(EvaluatorStatsTest, CountsOperatorsAtomicsAndL) {
  DirectoryInstance inst = testing::PaperInstance();
  SimDisk disk;
  EntryStore store = EntryStore::BulkLoad(&disk, inst).TakeValue();
  ParallelEvaluator evaluator(&disk, &store);
  // |Q| = 6 nodes, 4 atomic leaves (Example 5.3 shape).
  QueryPtr q = ParseQuery(
                   "(dc (dc=att, dc=com ? sub ? objectClass=dcObject)"
                   "    (& (dc=att, dc=com ? sub ? sourcePort=25)"
                   "       (dc=att, dc=com ? sub ? "
                   "objectClass=trafficProfile))"
                   "    (dc=att, dc=com ? sub ? objectClass=dcObject))")
                   .TakeValue();
  ASSERT_TRUE(evaluator.EvaluateToEntries(*q).ok());
  const EvalStats stats = evaluator.stats();
  EXPECT_EQ(stats.operators_evaluated, q->NodeCount());
  EXPECT_EQ(stats.atomic_queries, 4u);
  // |L| of Theorem 8.3 = cumulative atomic outputs: verify against the
  // oracle leaf by leaf.
  uint64_t expected_l = 0;
  for (const Query* leaf : q->Leaves()) {
    expected_l += EvaluateReference(*leaf, inst).TakeValue().size();
  }
  EXPECT_EQ(stats.atomic_output_records, expected_l);

  // Stats accumulate across queries and reset on demand.
  ASSERT_TRUE(evaluator.EvaluateToEntries(*q).ok());
  EXPECT_EQ(evaluator.stats().atomic_queries, 8u);
  evaluator.ResetStats();
  EXPECT_EQ(evaluator.stats().operators_evaluated, 0u);
}

}  // namespace
}  // namespace ndq
