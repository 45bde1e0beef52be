// Session::RunBatch over a distributed engine: coordinator-side sub-plan
// sharing must return byte-identical results to running the queries one
// at a time, while shipping strictly less over the network when the batch
// repeats sub-plans.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/status_matchers.h"
#include "engine/engine.h"
#include "testing/paper_fixture.h"

namespace ndq {
namespace {

EngineOptions FleetOptions() {
  EngineOptions opts;
  opts.backend = EngineBackend::kDistributed;
  opts.topology = TopologyConfig::Parse(
                      "shard root-server dc=com\n"
                      "shard research-server dc=research, dc=att, dc=com\n")
                      .TakeValue();
  return opts;
}

// Two distinct queries, each submitted multiple times, spanning both
// servers (the surName leaf lives under the delegated subtree too). The
// repeated leaf is shared as a scatter-gather result.
const std::vector<std::string> kBatch = {
    "(dc=att, dc=com ? sub ? surName=jagadish)",
    "(& (dc=com ? sub ? objectClass=dcObject)"
    "   (dc=att, dc=com ? sub ? objectClass=*))",
    "(dc=att, dc=com ? sub ? surName=jagadish)",
    "(& (dc=com ? sub ? objectClass=dcObject)"
    "   (dc=att, dc=com ? sub ? objectClass=*))",
    "(dc=att, dc=com ? sub ? surName=jagadish)",
    // A join entirely inside the delegated subtree (planning cannot fold
    // it into one leaf): shipped whole to the research server (query
    // shipping), and only once when batched.
    "(c (dc=research, dc=att, dc=com ? sub ? objectClass=TOPSSubscriber)"
    "   (dc=research, dc=att, dc=com ? sub ? objectClass=QHP))",
    "(c (dc=research, dc=att, dc=com ? sub ? objectClass=TOPSSubscriber)"
    "   (dc=research, dc=att, dc=com ? sub ? objectClass=QHP))",
};

TEST(DistBatchTest, BatchMatchesOneAtATime) {
  DirectoryInstance inst = testing::PaperInstance();

  Engine sequential(inst, FleetOptions());
  NDQ_ASSERT_OK(sequential.init_status());
  Session one_at_a_time = sequential.OpenSession();
  std::vector<std::vector<Entry>> want;
  for (const std::string& text : kBatch) {
    QueryOutcome out = one_at_a_time.Run(text);
    NDQ_ASSERT_OK(out.status);
    want.push_back(std::move(out.entries));
  }

  Engine batched(inst, FleetOptions());
  NDQ_ASSERT_OK(batched.init_status());
  BatchResult br = batched.OpenSession().RunBatch(kBatch);
  ASSERT_EQ(br.outcomes.size(), kBatch.size());
  for (size_t i = 0; i < kBatch.size(); ++i) {
    SCOPED_TRACE(kBatch[i]);
    NDQ_ASSERT_OK(br.outcomes[i].status);
    EXPECT_EQ(br.outcomes[i].entries, want[i]);
  }
  EXPECT_GT(br.stats.cache_hits, 0u);

  // Sharing at the coordinator: the duplicated queries never re-contact
  // the servers, so the batched fleet moves strictly less than the
  // one-at-a-time one, in messages and in whole-query shipments alike.
  const NetStats& b = batched.fleet()->net_stats();
  const NetStats& s = sequential.fleet()->net_stats();
  EXPECT_LT(b.messages.load(), s.messages.load());
  EXPECT_GT(b.queries_shipped.load(), 0u);
  EXPECT_LT(b.queries_shipped.load(), s.queries_shipped.load());
}

TEST(DistBatchTest, EmptyAndSingletonBatches) {
  DirectoryInstance inst = testing::PaperInstance();
  Engine engine(inst, FleetOptions());
  NDQ_ASSERT_OK(engine.init_status());
  Session session = engine.OpenSession();
  EXPECT_TRUE(session.RunBatch(std::vector<std::string>{}).outcomes.empty());

  const std::string text = "(dc=att, dc=com ? sub ? surName=jagadish)";
  BatchResult one = session.RunBatch(std::vector<std::string>{text});
  ASSERT_EQ(one.outcomes.size(), 1u);
  NDQ_ASSERT_OK(one.outcomes[0].status);
  QueryOutcome want = session.Run(text);
  NDQ_ASSERT_OK(want.status);
  EXPECT_EQ(one.outcomes[0].entries, want.entries);
}

}  // namespace
}  // namespace ndq
