// The Engine API over a distributed backend (ISSUE 10 satellite 1): one
// EngineOptions field swaps the execution substrate from a local store to
// a replicated shard fleet, and Sessions behave identically — same
// results, same batch sharing, same graceful failure modes.

#include "engine/engine.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exec/cost.h"
#include "gen/dif_gen.h"
#include "query/parser.h"

namespace ndq {
namespace {

DirectoryInstance SmallDif() {
  gen::DifOptions opt;
  opt.num_orgs = 2;
  opt.subdomains_per_org = 2;
  return gen::GenerateDif(opt);
}

TopologyConfig ReplicatedTopology() {
  TopologyConfig cfg =
      TopologyConfig::Parse(
          "replicas 2\n"
          "shard root dc=com\n"
          "shard org0 dc=org0, dc=com\n"
          "shard org1 dc=org1, dc=com\n")
          .TakeValue();
  return cfg;
}

EngineOptions DistOptions() {
  EngineOptions opt;
  opt.backend = EngineBackend::kDistributed;
  opt.topology = ReplicatedTopology();
  return opt;
}

const char* kQueries[] = {
    "(dc=com ? sub ? objectClass=TOPSSubscriber)",
    "(dc=org0, dc=com ? sub ? objectClass=QHP)",
    "(c (dc=com ? sub ? objectClass=TOPSSubscriber)"
    "   (dc=com ? sub ? objectClass=QHP) count($2)>=3)",
    "(vd (dc=com ? sub ? objectClass=SLAPolicyRules)"
    "    (& (dc=com ? sub ? sourcePort=25)"
    "       (dc=com ? sub ? objectClass=trafficProfile)) SLATPRef)",
};

// Same DirectoryInstance behind both backends: Session::Run must agree
// byte-for-byte, with only the substrate (and its counters) differing.
TEST(EngineDistTest, BackendsAgreeThroughSessions) {
  DirectoryInstance global = SmallDif();
  Engine local(global);
  Engine dist(global, DistOptions());
  ASSERT_TRUE(dist.init_status().ok()) << dist.init_status().ToString();
  EXPECT_EQ(local.fleet(), nullptr);
  ASSERT_NE(dist.fleet(), nullptr);

  Session ls = local.OpenSession();
  Session ds = dist.OpenSession();
  for (const char* text : kQueries) {
    SCOPED_TRACE(text);
    QueryOutcome lo = ls.Run(text);
    QueryOutcome dout = ds.Run(text);
    ASSERT_TRUE(lo.ok()) << lo.status.ToString();
    ASSERT_TRUE(dout.ok()) << dout.status.ToString();
    EXPECT_EQ(dout.entries, lo.entries);
    EXPECT_TRUE(dout.warnings.empty());
  }
  // The fleet actually served the queries.
  EXPECT_GT(uint64_t{dist.fleet()->net_stats().messages}, 0u);
}

TEST(EngineDistTest, BatchSharingWorksOnTheFleet) {
  DirectoryInstance global = SmallDif();
  Engine dist(global, DistOptions());
  ASSERT_TRUE(dist.init_status().ok());
  Session session = dist.OpenSession();

  // The TOPSSubscriber leaf repeats across the batch: the census must
  // share it, and the batch must still match one-at-a-time evaluation.
  std::vector<std::string> batch = {kQueries[0], kQueries[2], kQueries[0]};
  std::vector<QueryOutcome> singles;
  for (const std::string& q : batch) singles.push_back(session.Run(q));

  BatchResult result = session.RunBatch(batch);
  ASSERT_EQ(result.outcomes.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    SCOPED_TRACE(batch[i]);
    ASSERT_TRUE(result.outcomes[i].ok())
        << result.outcomes[i].status.ToString();
    EXPECT_EQ(result.outcomes[i].entries, singles[i].entries);
  }
  EXPECT_GE(result.stats.shared_subtrees, 1u);
  EXPECT_GE(result.stats.cache_hits, 1u);
}

TEST(EngineDistTest, FailedBuildIsGraceful) {
  DirectoryInstance global = SmallDif();
  EngineOptions opt;
  opt.backend = EngineBackend::kDistributed;
  // dc=com itself is uncovered: the build must fail...
  opt.topology =
      TopologyConfig::Parse("shard only-org0 dc=org0, dc=com\n").TakeValue();
  Engine dist(global, opt);
  EXPECT_FALSE(dist.init_status().ok());
  EXPECT_EQ(dist.fleet(), nullptr);
  // ...but queries still complete, carrying that status — never a crash.
  Session session = dist.OpenSession();
  QueryOutcome out = session.Run(kQueries[0]);
  EXPECT_FALSE(out.ok());
  EXPECT_TRUE(out.entries.empty());
}

TEST(EngineDistTest, MutationsRejected) {
  DirectoryInstance global = SmallDif();
  Engine dist(global, DistOptions());
  ASSERT_TRUE(dist.init_status().ok());
  Session session = dist.OpenSession();

  UpdateBatch batch;
  batch.Remove((*global.begin()).second.dn());
  UpdateResult res = session.Apply(batch);
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(res.applied, 0u);
}

// EXPLAIN ANALYZE against a fleet: the trace carries the shipping and
// failover counters, and the rendered text exposes them.
TEST(EngineDistTest, ExplainAnalyzeShowsFailovers) {
  DirectoryInstance global = SmallDif();
  Engine dist(global, DistOptions());
  ASSERT_TRUE(dist.init_status().ok());
  RetryPolicy fast;
  fast.max_attempts = 2;
  fast.backoff_micros = 0;
  dist.fleet()->set_retry_policy(fast);
  for (const auto& shard : dist.fleet()->shards()) {
    shard->replica(0)->set_down(true);
  }
  Session session = dist.OpenSession();
  QueryOutcome out = session.Run(kQueries[0]);
  ASSERT_TRUE(out.ok()) << out.status.ToString();
  EXPECT_TRUE(out.warnings.empty());  // the sibling replicas absorbed it
  EXPECT_GT(out.trace.failovers, 0u);
  std::string rendered = ExplainAnalyze(dist.store(), *out.plan, out.trace);
  EXPECT_NE(rendered.find("failovers"), std::string::npos);
  EXPECT_NE(rendered.find("shipped"), std::string::npos);
}

// The engine's parallelism reaches the fleet: its one pool forks the
// operand subtrees and fans the shard fetches out, and the results stay
// identical.
TEST(EngineDistTest, ParallelismPropagatesToFleet) {
  DirectoryInstance global = SmallDif();
  Engine dist(global, DistOptions());
  ASSERT_TRUE(dist.init_status().ok());
  Session session = dist.OpenSession();
  QueryOutcome sequential = session.Run(kQueries[2]);
  ASSERT_TRUE(sequential.ok());
  dist.SetParallelism(3);
  EXPECT_EQ(dist.parallelism(), 3u);
  QueryOutcome parallel = session.Run(kQueries[2]);
  ASSERT_TRUE(parallel.ok());
  EXPECT_EQ(parallel.entries, sequential.entries);
}

uint64_t FleetTransfers(DistributedDirectory& fleet) {
  uint64_t n = fleet.coordinator_disk()->stats().TotalTransfers();
  for (DirectoryServer* server : fleet.servers()) {
    n += server->disk()->stats().TotalTransfers();
  }
  return n;
}

// The trace identity a session's outcome keeps on a fleet, at any engine
// parallelism (what perfbench's per-query page count reads): the root's
// I/O is the query's fleet-wide transfer delta minus reading the result
// out, and its shipped records are what crossed the network. The cases
// are topology_test's FleetTraceTest cases: scatter-gather leaves, a join
// one shard owns (shipped whole), and a mix of the two.
TEST(EngineDistTest, RootTraceAccountsForFleetTransfers) {
  DirectoryInstance global = SmallDif();
  EngineOptions opt;
  opt.backend = EngineBackend::kDistributed;
  opt.topology = TopologyConfig::Parse(
                     "replicas 2\n"
                     "shard root dc=com\n"
                     "shard org0 dc=org0, dc=com\n"
                     "shard sub0 dc=sub0, dc=org0, dc=com\n"
                     "shard org1 dc=org1, dc=com\n")
                     .TakeValue();
  Engine dist(global, opt);
  ASSERT_TRUE(dist.init_status().ok()) << dist.init_status().ToString();
  DistributedDirectory& fleet = *dist.fleet();
  const std::string org1_join =
      "(c (dc=org1, dc=com ? sub ? objectClass=TOPSSubscriber)"
      "   (dc=org1, dc=com ? sub ? objectClass=QHP))";
  struct Case {
    std::string text;
    uint64_t shipments;  // whole (sub)queries shipped
  };
  const std::vector<Case> cases = {
      {"(dc=com ? sub ? objectClass=TOPSSubscriber)", 0},
      {"(dc=sub0, dc=org0, dc=com ? sub ? objectClass=QHP)", 0},
      {"(c (dc=com ? sub ? objectClass=TOPSSubscriber)"
       "   (dc=com ? sub ? objectClass=QHP) count($2)>=3)",
       0},
      {"(vd (dc=com ? sub ? objectClass=SLAPolicyRules)"
       "    (& (dc=com ? sub ? sourcePort=25)"
       "       (dc=com ? sub ? objectClass=trafficProfile)) SLATPRef)",
       0},
      {org1_join, 1},
      {"(| " + org1_join + " (dc=com ? sub ? objectClass=QHP))", 1},
  };

  Session session = dist.OpenSession();
  for (size_t parallelism : {size_t{1}, size_t{4}}) {
    dist.SetParallelism(parallelism);
    for (const Case& c : cases) {
      SCOPED_TRACE("parallelism " + std::to_string(parallelism) + ": " +
                   c.text);
      const uint64_t transfers = FleetTransfers(fleet);
      const uint64_t shipped = fleet.net_stats().records_shipped;
      const uint64_t shipments = fleet.net_stats().queries_shipped;
      QueryOutcome out = session.Run(c.text);
      ASSERT_TRUE(out.ok()) << out.status.ToString();
      EXPECT_EQ(fleet.net_stats().queries_shipped - shipments, c.shipments);
      EXPECT_EQ(out.trace.NodeCount(), out.plan->NodeCount());
      EXPECT_GT(out.trace.io.TotalTransfers(), 0u);
      EXPECT_EQ(out.trace.io.TotalTransfers(),
                FleetTransfers(fleet) - transfers - out.trace.output_pages);
      EXPECT_EQ(out.trace.shipped_records,
                fleet.net_stats().records_shipped - shipped);
    }
  }
}

}  // namespace
}  // namespace ndq
