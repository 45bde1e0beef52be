// Distributed resilience (ISSUE 3, tentpole part 3): a downed server
// must degrade the result — not the process. Retries with backoff absorb
// transient faults; exhausted retries on an unreachable server yield a
// partial result with a structured DegradationWarning (or fail-stop when
// degradation is disabled); recovery restores exact results; query
// shipping falls back gracefully when the target owner is down.

#include "dist/distributed.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/engine.h"
#include "query/parser.h"
#include "query/reference.h"
#include "storage/fault_injector.h"
#include "testing/paper_fixture.h"

namespace ndq {
namespace {

// Same fixture split as distributed_test.cc: dc=com + dc=att on the root
// server, the research subdomain delegated.
TopologyConfig PaperTopology() {
  return TopologyConfig::Parse(
             "shard root-server dc=com\n"
             "shard research-server dc=research, dc=att, dc=com\n")
      .TakeValue();
}

DistributedDirectory PaperFleet() {
  return DistributedDirectory::Build(testing::PaperInstance(),
                                     PaperTopology())
      .TakeValue();
}

RetryPolicy FastRetries() {
  RetryPolicy p;
  p.max_attempts = 3;
  p.backoff_micros = 0;  // keep the test instant
  return p;
}

std::vector<Entry> ReferenceResult(const DirectoryInstance& global,
                                   const Query& q) {
  std::vector<const Entry*> ref = EvaluateReference(q, global).TakeValue();
  std::vector<Entry> out;
  for (const Entry* e : ref) out.push_back(*e);
  return out;
}

TEST(DegradationTest, DownedServerYieldsPartialResultWithWarning) {
  DistributedDirectory fleet = PaperFleet();
  fleet.set_retry_policy(FastRetries());
  fleet.FindServer("research-server")->set_down(true);

  // Spans both servers; only the root server's two entries can arrive.
  QueryPtr q = ParseQuery("(dc=com ? sub ? objectClass=*)").TakeValue();
  OpTrace trace;
  std::vector<DegradationWarning> warnings;
  Result<std::vector<Entry>> got = fleet.Execute(*q, &trace, &warnings);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->size(), 2u);  // dc=com, dc=att

  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_EQ(warnings[0].source, "research-server");
  EXPECT_NE(warnings[0].ToString().find("research-server"),
            std::string::npos);
  EXPECT_GE(uint64_t{fleet.net_stats().degraded_results}, 1u);
  // A down replica refuses instantly and is never retried (retries are
  // for transient failures); with no sibling replica the shard degrades.
  EXPECT_EQ(uint64_t{fleet.net_stats().retries}, 0u);
  EXPECT_GE(trace.degraded_shards, 1u);
}

TEST(DegradationTest, FailStopWhenDegradationDisabled) {
  DistributedDirectory fleet = PaperFleet();
  fleet.set_retry_policy(FastRetries());
  fleet.set_allow_degraded(false);
  fleet.FindServer("research-server")->set_down(true);

  QueryPtr q = ParseQuery("(dc=com ? sub ? objectClass=*)").TakeValue();
  std::vector<DegradationWarning> warnings;
  Result<std::vector<Entry>> got = fleet.Execute(*q, nullptr, &warnings);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kUnavailable);
  EXPECT_TRUE(warnings.empty());
}

TEST(DegradationTest, TransientFaultIsRetriedToAFullResult) {
  DirectoryInstance global = testing::PaperInstance();
  DistributedDirectory fleet = PaperFleet();
  fleet.set_retry_policy(FastRetries());
  QueryPtr q = ParseQuery("(dc=com ? sub ? objectClass=*)").TakeValue();
  std::vector<Entry> want = ReferenceResult(global, *q);

  // One transient read fault on the research server: the first attempt
  // fails, the retry succeeds, and the result is complete — no warning.
  FaultInjector fi(
      {FaultInjector::FailNth(1, FaultOpBit(FaultOp::kRead))});
  fleet.FindServer("research-server")->disk()->set_fault_injector(&fi);
  std::vector<DegradationWarning> warnings;
  Result<std::vector<Entry>> got = fleet.Execute(*q, nullptr, &warnings);
  fleet.FindServer("research-server")->disk()->set_fault_injector(nullptr);

  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, want);
  EXPECT_EQ(fi.faults_fired(), 1u);
  EXPECT_GE(uint64_t{fleet.net_stats().retries}, 1u);
  EXPECT_EQ(uint64_t{fleet.net_stats().degraded_results}, 0u);
  EXPECT_TRUE(warnings.empty());
}

// A shipped subtree retries like a leaf: one transient read fault on the
// research server costs one more round trip, and the subtree still ships
// whole with only its final result crossing the network.
TEST(DegradationTest, TransientFaultOnAShippedSubtreeIsRetried) {
  DirectoryInstance global = testing::PaperInstance();
  DistributedDirectory fleet = PaperFleet();
  fleet.set_retry_policy(FastRetries());
  QueryPtr q = ParseQuery(
                   "(c (dc=research, dc=att, dc=com ? sub ? "
                   "objectClass=TOPSSubscriber)"
                   "   (dc=research, dc=att, dc=com ? sub ? "
                   "objectClass=QHP) count($2)>1)")
                   .TakeValue();
  std::vector<Entry> want = ReferenceResult(global, *q);

  fleet.ResetStats();
  FaultInjector fi({FaultInjector::FailNth(1, FaultOpBit(FaultOp::kRead))});
  fleet.FindServer("research-server")->disk()->set_fault_injector(&fi);
  OpTrace trace;
  std::vector<DegradationWarning> warnings;
  Result<std::vector<Entry>> got = fleet.Execute(*q, &trace, &warnings);
  fleet.FindServer("research-server")->disk()->set_fault_injector(nullptr);

  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(*got, want);
  EXPECT_EQ(fi.faults_fired(), 1u);
  EXPECT_TRUE(warnings.empty());
  const NetStats& net = fleet.net_stats();
  EXPECT_EQ(uint64_t{net.queries_shipped}, 1u);
  EXPECT_EQ(uint64_t{net.messages}, 4u);  // the failed try and the retry
  EXPECT_EQ(uint64_t{net.records_shipped}, 1u);  // final result only
  EXPECT_EQ(uint64_t{net.retries}, 1u);
  EXPECT_EQ(trace.retries, 1u);
}

TEST(DegradationTest, QueryShippingFallsBackWhenOwnerIsDown) {
  DistributedDirectory fleet = PaperFleet();
  fleet.set_retry_policy(FastRetries());
  // Subtree-local boolean: with shipping on this would normally be pushed
  // whole to the research server. Down, it must degrade to an empty
  // partial result — not hang or crash.
  QueryPtr q =
      ParseQuery(
          "(& (dc=research, dc=att, dc=com ? sub ? objectClass=dcObject)"
          "   (dc=research, dc=att, dc=com ? sub ? objectClass=*))")
          .TakeValue();
  fleet.FindServer("research-server")->set_down(true);
  std::vector<DegradationWarning> warnings;
  Result<std::vector<Entry>> got = fleet.Execute(*q, nullptr, &warnings);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(got->empty());
  EXPECT_FALSE(warnings.empty());
}

TEST(DegradationTest, RecoveryRestoresExactResults) {
  DirectoryInstance global = testing::PaperInstance();
  DistributedDirectory fleet = PaperFleet();
  fleet.set_retry_policy(FastRetries());
  QueryPtr q = ParseQuery(
                   "(c (dc=att, dc=com ? sub ? objectClass=organizationalUnit)"
                   "   (dc=att, dc=com ? sub ? surName=jagadish))")
                   .TakeValue();
  std::vector<Entry> want = ReferenceResult(global, *q);

  DirectoryServer* research = fleet.FindServer("research-server");
  research->set_down(true);
  std::vector<DegradationWarning> warnings;
  Result<std::vector<Entry>> degraded = fleet.Execute(*q, nullptr, &warnings);
  ASSERT_TRUE(degraded.ok()) << degraded.status().ToString();
  EXPECT_FALSE(warnings.empty());

  // Server comes back: the very next evaluation is exact again, and the
  // stale warnings are gone.
  research->set_down(false);
  Result<std::vector<Entry>> healed = fleet.Execute(*q, nullptr, &warnings);
  ASSERT_TRUE(healed.ok()) << healed.status().ToString();
  EXPECT_EQ(*healed, want);
  EXPECT_TRUE(warnings.empty());
}

TEST(DegradationTest, ParallelFleetDegradesIdentically) {
  // The same downed shard through the engine's pool: every round gets the
  // sequential Execute's partial result and a warning. The engine runs
  // the plan as given and caches nothing, so each round asks the fleet.
  DistributedDirectory fleet = PaperFleet();
  fleet.set_retry_policy(FastRetries());
  fleet.FindServer("research-server")->set_down(true);
  QueryPtr q = ParseQuery(
                   "(& (dc=com ? sub ? objectClass=dcObject)"
                   "   (dc=com ? sub ? objectClass=*))")
                   .TakeValue();
  std::vector<DegradationWarning> want_warnings;
  Result<std::vector<Entry>> want = fleet.Execute(*q, nullptr, &want_warnings);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  EXPECT_EQ(want->size(), 2u);  // the root server's dc entries
  EXPECT_FALSE(want_warnings.empty());

  EngineOptions opt;
  opt.backend = EngineBackend::kDistributed;
  opt.topology = PaperTopology();
  opt.rewrite = false;
  opt.cache_capacity_pages = 0;
  Engine engine(testing::PaperInstance(), opt);
  ASSERT_TRUE(engine.init_status().ok()) << engine.init_status().ToString();
  engine.SetOptimize(false);
  engine.SetParallelism(3);
  engine.fleet()->set_retry_policy(FastRetries());
  engine.fleet()->FindServer("research-server")->set_down(true);
  Session session = engine.OpenSession();
  for (int round = 0; round < 5; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    QueryOutcome got = session.Run(q);
    ASSERT_TRUE(got.ok()) << got.status.ToString();
    EXPECT_EQ(got.entries, *want);
    EXPECT_EQ(got.warnings.size(), want_warnings.size());
  }
}

}  // namespace
}  // namespace ndq
