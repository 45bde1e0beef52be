// Session::RunBatch over a distributed engine: coordinator-side sub-plan
// sharing must return byte-identical results to running the queries one
// at a time, while shipping strictly less over the network when the batch
// repeats sub-plans, and must never share a partial (degraded) list.

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

// A shard that stays down degrades a shared sub-plan. The partial list is
// never cached, so every occurrence in the batch evaluates it again and
// carries the warning a one-at-a-time run carries; once the shard is
// back, the batch answers in full (no partial list lingers in the cache).
TEST(DistBatchTest, DegradedSharedSubPlansKeepTheirWarnings) {
  DirectoryInstance inst = testing::PaperInstance();
  const std::string text = "(dc=att, dc=com ? sub ? surName=jagadish)";
  const std::vector<std::string> batch(3, text);

  Engine engine(inst, FleetOptions());
  NDQ_ASSERT_OK(engine.init_status());
  Session session = engine.OpenSession();
  QueryOutcome healthy = session.Run(text);
  NDQ_ASSERT_OK(healthy.status);
  ASSERT_EQ(healthy.entries.size(), 1u);

  DirectoryServer* research = engine.fleet()->FindServer("research-server");
  ASSERT_NE(research, nullptr);
  research->set_down(true);
  QueryOutcome degraded = session.Run(text);
  NDQ_ASSERT_OK(degraded.status);
  ASSERT_EQ(degraded.warnings.size(), 1u);
  EXPECT_EQ(degraded.warnings[0].source, "research-server");
  EXPECT_LT(degraded.entries.size(), healthy.entries.size());

  BatchResult br = session.RunBatch(batch);
  ASSERT_EQ(br.outcomes.size(), batch.size());
  EXPECT_EQ(br.stats.shared_subtrees, 1u);
  EXPECT_EQ(br.stats.cache_hits, 0u);
  for (size_t i = 0; i < batch.size(); ++i) {
    SCOPED_TRACE("outcome " + std::to_string(i));
    const QueryOutcome& out = br.outcomes[i];
    NDQ_ASSERT_OK(out.status);
    EXPECT_EQ(out.entries, degraded.entries);
    ASSERT_EQ(out.warnings.size(), 1u);
    EXPECT_EQ(out.warnings[0].source, degraded.warnings[0].source);
    EXPECT_EQ(out.warnings[0].detail, degraded.warnings[0].detail);
    EXPECT_EQ(out.trace.cache_hits, 0u);
  }

  research->set_down(false);
  BatchResult healed = session.RunBatch(batch);
  for (const QueryOutcome& out : healed.outcomes) {
    NDQ_ASSERT_OK(out.status);
    EXPECT_EQ(out.entries, healthy.entries);
    EXPECT_TRUE(out.warnings.empty());
  }
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
