#include "exec/cost.h"

#include <gtest/gtest.h>

#include "exec/parallel_evaluator.h"
#include "gen/dif_gen.h"
#include "query/parser.h"
#include "query/rewrite.h"
#include "testing/paper_fixture.h"

namespace ndq {
namespace {

using testing::D;

struct CostFixture {
  SimDisk disk{1024};
  DirectoryInstance inst;
  EntryStore store;

  CostFixture() : inst(Schema(), false) {
    gen::DifOptions opt;
    opt.num_orgs = 4;
    inst = gen::GenerateDif(opt);
    store = EntryStore::BulkLoad(&disk, inst).TakeValue();
  }

  CostEstimate Est(const std::string& text) {
    QueryPtr q = ParseQuery(text).TakeValue();
    return EstimateCost(store, *q);
  }

  uint64_t Measure(const std::string& text) {
    QueryPtr q = ParseQuery(text).TakeValue();
    SimDisk scratch(1024);
    ParallelEvaluator evaluator(&scratch, &store);
    disk.ResetStats();
    EXPECT_TRUE(evaluator.EvaluateToEntries(*q).ok());
    return disk.stats().TotalTransfers() +
           scratch.stats().TotalTransfers();
  }
};

TEST(CostTest, LeafEstimatesTrackScope) {
  CostFixture f;
  CostEstimate whole = f.Est("(dc=com ? sub ? objectClass=*)");
  CostEstimate domain =
      f.Est("(dc=sub0, dc=org0, dc=com ? sub ? objectClass=*)");
  CostEstimate base = f.Est("(dc=sub0, dc=org0, dc=com ? base ? dc=*)");
  EXPECT_GT(whole.leaf_pages, domain.leaf_pages);
  EXPECT_GT(domain.leaf_pages, base.leaf_pages);
  EXPECT_GE(base.leaf_pages, 1.0);
  // Whole-forest leaf estimate equals the store's page count.
  EXPECT_DOUBLE_EQ(whole.leaf_pages,
                   static_cast<double>(f.store.num_pages()));
}

TEST(CostTest, SiblingLeavesOverOneBasePriceTheirRangeOnce) {
  CostFixture f;
  CostEstimate sub = f.Est("(dc=org0, dc=com ? sub ? objectClass=QHP)");
  CostEstimate one = f.Est("(dc=org0, dc=com ? one ? objectClass=*)");
  CostEstimate other = f.Est("(dc=org1, dc=com ? sub ? objectClass=QHP)");
  // One base: the widest range, once, whatever the scopes and the order.
  // objectClass=* admits every page of it, so the shared scan reads the
  // pages the QHP leaf alone would skip.
  EXPECT_LT(sub.leaf_pages, one.leaf_pages);
  EXPECT_DOUBLE_EQ(f.Est("(c (dc=org0, dc=com ? one ? objectClass=*)"
                         "   (dc=org0, dc=com ? sub ? objectClass=QHP))")
                       .leaf_pages,
                   std::max(sub.leaf_pages, one.leaf_pages));
  EXPECT_DOUBLE_EQ(f.Est("(dc (dc=org0, dc=com ? sub ? objectClass=QHP)"
                         "    (dc=org1, dc=com ? sub ? objectClass=QHP)"
                         "    (dc=org0, dc=com ? one ? objectClass=*))")
                       .leaf_pages,
                   std::max(sub.leaf_pages, one.leaf_pages) +
                       other.leaf_pages);
  // Different bases, and a leaf that repeats its sibling, scan apart.
  EXPECT_DOUBLE_EQ(f.Est("(a (dc=org0, dc=com ? sub ? objectClass=QHP)"
                         "   (dc=org1, dc=com ? sub ? objectClass=QHP))")
                       .leaf_pages,
                   sub.leaf_pages + other.leaf_pages);
  EXPECT_DOUBLE_EQ(f.Est("(a (dc=org0, dc=com ? sub ? objectClass=QHP)"
                         "   (dc=org0, dc=com ? sub ? objectClass=QHP))")
                       .leaf_pages,
                   2 * sub.leaf_pages);
  // A nested leaf is not a sibling.
  EXPECT_DOUBLE_EQ(
      f.Est("(d (dc=org0, dc=com ? sub ? objectClass=QHP)"
            "   (& (dc=org0, dc=com ? one ? objectClass=*)"
            "      (dc=org1, dc=com ? sub ? objectClass=QHP)))")
          .leaf_pages,
      sub.leaf_pages + one.leaf_pages + other.leaf_pages);
  // And the shared price is what the evaluator reads from the store.
  QueryPtr q = ParseQuery("(c (dc=org0, dc=com ? one ? objectClass=*)"
                          "   (dc=org0, dc=com ? sub ? objectClass=QHP))")
                   .TakeValue();
  SimDisk scratch(1024);
  ParallelEvaluator evaluator(&scratch, &f.store);
  f.disk.ResetStats();
  ASSERT_TRUE(evaluator.EvaluateToEntries(*q).ok());
  EXPECT_DOUBLE_EQ(static_cast<double>(f.disk.stats().page_reads),
                   EstimateCost(f.store, *q).leaf_pages);
}

TEST(CostTest, LeafRecordEstimateIsUpperBoundOnResults) {
  CostFixture f;
  for (const char* text :
       {"(dc=com ? sub ? objectClass=QHP)",
        "(dc=org0, dc=com ? sub ? objectClass=trafficProfile)",
        "(dc=sub0, dc=org0, dc=com ? one ? objectClass=*)"}) {
    QueryPtr q = ParseQuery(text).TakeValue();
    CostEstimate est = EstimateCost(f.store, *q);
    SimDisk scratch(1024);
    ParallelEvaluator evaluator(&scratch, &f.store);
    std::vector<Entry> r = evaluator.EvaluateToEntries(*q).TakeValue();
    EXPECT_GE(est.output_records + 0.5, static_cast<double>(r.size()))
        << text;
  }
}

TEST(CostTest, OperatorCostsOrderPlansCorrectly) {
  // The model must rank a domain-scoped plan cheaper than the same plan
  // over the whole forest, and an L3 plan above its L1 core.
  CostFixture f;
  CostEstimate narrow = f.Est(
      "(c (dc=sub0, dc=org0, dc=com ? sub ? objectClass=TOPSSubscriber)"
      "   (dc=sub0, dc=org0, dc=com ? sub ? objectClass=QHP))");
  CostEstimate wide = f.Est(
      "(c (dc=com ? sub ? objectClass=TOPSSubscriber)"
      "   (dc=com ? sub ? objectClass=QHP))");
  EXPECT_LT(narrow.TotalPages(), wide.TotalPages());

  CostEstimate l1 = f.Est(
      "(a (dc=com ? sub ? objectClass=QHP) (dc=com ? sub ? dc=*))");
  CostEstimate l3 = f.Est(
      "(vd (dc=com ? sub ? objectClass=SLAPolicyRules)"
      "    (dc=com ? sub ? objectClass=trafficProfile) SLATPRef)");
  EXPECT_GT(l3.operator_pages, 0.0);
  EXPECT_GT(l1.operator_pages, 0.0);
}

TEST(CostTest, EstimatesWithinSanityBandOfMeasurement) {
  // Not a precision model — but for representative plans the estimate
  // should land within an order of magnitude of the measured I/O.
  CostFixture f;
  for (const char* text : {
           "(dc=com ? sub ? objectClass=QHP)",
           "(c (dc=com ? sub ? objectClass=TOPSSubscriber)"
           "   (dc=com ? sub ? objectClass=QHP) count($2)>=3)",
           "(dc (dc=com ? sub ? objectClass=dcObject)"
           "    (& (dc=com ? sub ? sourcePort=25)"
           "       (dc=com ? sub ? objectClass=trafficProfile))"
           "    (dc=com ? sub ? objectClass=dcObject))",
       }) {
    SCOPED_TRACE(text);
    double est = f.Est(text).TotalPages();
    double measured = static_cast<double>(f.Measure(text));
    EXPECT_LE(measured, 20.0 * est);
    EXPECT_LE(est, 20.0 * measured);
  }
}

TEST(CostTest, RewriteReducesEstimatedCost) {
  // The optimizer's scan merge must be visible to the cost model.
  CostFixture f;
  QueryPtr q = ParseQuery(
                   "(& (dc=com ? sub ? objectClass=QHP)"
                   "   (dc=com ? sub ? priority<=1))")
                   .TakeValue();
  QueryPtr r = RewriteQuery(q);
  EXPECT_LT(EstimateCost(f.store, *r).TotalPages(),
            EstimateCost(f.store, *q).TotalPages());
}

TEST(CostTest, ExplainRendersTree) {
  CostFixture f;
  QueryPtr q = ParseQuery(
                   "(c (dc=com ? sub ? objectClass=TOPSSubscriber)"
                   "   (dc=com ? sub ? objectClass=QHP) count($2)>1)")
                   .TakeValue();
  std::string plan = ExplainPlan(f.store, *q);
  EXPECT_NE(plan.find("op c"), std::string::npos);
  EXPECT_NE(plan.find("count($2)>1"), std::string::npos);
  EXPECT_NE(plan.find("atomic base='dc=com'"), std::string::npos);
  EXPECT_NE(plan.find("leaf"), std::string::npos);
  // Two leaves, indented beneath the operator.
  EXPECT_NE(plan.find("\n  atomic"), std::string::npos);
}

}  // namespace
}  // namespace ndq
