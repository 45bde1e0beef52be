// DistributedDirectory::EvaluateBatch: coordinator-side sub-plan sharing
// must return byte-identical results to per-query Evaluate while shipping
// strictly less over the network when the batch repeats sub-plans.

#include "dist/distributed.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/status_matchers.h"
#include "query/parser.h"
#include "testing/paper_fixture.h"

namespace ndq {
namespace {

DistributedDirectory PaperFleet() {
  DirectoryInstance inst = testing::PaperInstance();
  return DistributedDirectory::Build(
             inst, TopologyConfig::FromContexts(
                       {{"dc=com", "root-server"},
                        {"dc=research, dc=att, dc=com", "research-server"}}))
      .TakeValue();
}

std::vector<QueryPtr> BatchPlans() {
  // Two distinct queries, each submitted multiple times, spanning both
  // servers (the surName leaf lives under the delegated subtree too).
  const char* texts[] = {
      "(dc=att, dc=com ? sub ? surName=jagadish)",
      "(& (dc=com ? sub ? objectClass=dcObject)"
      "   (dc=att, dc=com ? sub ? objectClass=*))",
      "(dc=att, dc=com ? sub ? surName=jagadish)",
      "(& (dc=com ? sub ? objectClass=dcObject)"
      "   (dc=att, dc=com ? sub ? objectClass=*))",
      "(dc=att, dc=com ? sub ? surName=jagadish)",
      // A non-atomic query entirely inside the delegated subtree: shipped
      // whole to the research server (query shipping), and only once when
      // batched.
      "(& (dc=research, dc=att, dc=com ? sub ? objectClass=QHP)"
      "   (dc=research, dc=att, dc=com ? sub ? objectClass=*))",
      "(& (dc=research, dc=att, dc=com ? sub ? objectClass=QHP)"
      "   (dc=research, dc=att, dc=com ? sub ? objectClass=*))",
  };
  std::vector<QueryPtr> plans;
  for (const char* text : texts) plans.push_back(ParseQuery(text).TakeValue());
  return plans;
}

TEST(DistBatchTest, BatchMatchesPerQueryEvaluate) {
  std::vector<QueryPtr> plans = BatchPlans();

  DistributedDirectory sequential = PaperFleet();
  std::vector<std::vector<Entry>> want;
  for (const QueryPtr& q : plans) {
    NDQ_ASSERT_OK_AND_ASSIGN(std::vector<Entry> r, sequential.Evaluate(*q));
    want.push_back(std::move(r));
  }

  DistributedDirectory batched = PaperFleet();
  NDQ_ASSERT_OK_AND_ASSIGN(std::vector<std::vector<Entry>> got,
                           batched.EvaluateBatch(plans));
  ASSERT_EQ(got.size(), plans.size());
  for (size_t i = 0; i < plans.size(); ++i) {
    SCOPED_TRACE(plans[i]->ToString());
    EXPECT_EQ(got[i], want[i]);
  }

  // Sharing at the coordinator: the duplicated queries never re-contact
  // the servers, so the batched fleet moves strictly less than the
  // sequential one on every network axis.
  EXPECT_LT(batched.net_stats().messages.load(),
            sequential.net_stats().messages.load());
  EXPECT_LT(batched.net_stats().queries_shipped.load(),
            sequential.net_stats().queries_shipped.load());
}

TEST(DistBatchTest, EmptyAndSingletonBatches) {
  DistributedDirectory fleet = PaperFleet();
  NDQ_ASSERT_OK_AND_ASSIGN(std::vector<std::vector<Entry>> none,
                           fleet.EvaluateBatch({}));
  EXPECT_TRUE(none.empty());

  QueryPtr q =
      ParseQuery("(dc=att, dc=com ? sub ? surName=jagadish)").TakeValue();
  NDQ_ASSERT_OK_AND_ASSIGN(std::vector<std::vector<Entry>> one,
                           fleet.EvaluateBatch({q}));
  ASSERT_EQ(one.size(), 1u);
  NDQ_ASSERT_OK_AND_ASSIGN(std::vector<Entry> want, fleet.Evaluate(*q));
  EXPECT_EQ(one[0], want);
}

}  // namespace
}  // namespace ndq
