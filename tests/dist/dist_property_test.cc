// Property test: distributed evaluation over an arbitrarily delegated
// fleet agrees with the centralized oracle for random queries in every
// language level.

#include <random>

#include <gtest/gtest.h>

#include "dist/distributed.h"
#include "engine/engine.h"
#include "gen/random_forest.h"
#include "gen/random_query.h"
#include "query/reference.h"

namespace ndq {
namespace {

class DistPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(DistPropertyTest, RandomQueriesAgreeAcrossRandomDelegations) {
  std::mt19937 rng(GetParam());
  gen::RandomForestOptions fopt;
  fopt.seed = static_cast<uint32_t>(GetParam());
  fopt.num_entries = 150;
  fopt.num_roots = 4;
  DirectoryInstance global = gen::RandomForest(fopt);

  // Contexts: every root covered, plus random deeper delegations.
  std::string topology;
  int server_id = 0;
  std::vector<const Entry*> candidates;
  for (const auto& [key, entry] : global) {
    (void)key;
    if (entry.dn().depth() == 1) {
      topology += "shard root" + std::to_string(server_id++) + " " +
                  entry.dn().ToString() + "\n";
    } else if (entry.dn().depth() <= 3) {
      candidates.push_back(&entry);
    }
  }
  for (int i = 0; i < 4 && !candidates.empty(); ++i) {
    const Entry* e = candidates[rng() % candidates.size()];
    topology += "shard delegate" + std::to_string(server_id++) + " " +
                e->dn().ToString() + "\n";
  }

  DistributedDirectory fleet =
      DistributedDirectory::Build(global,
                                  TopologyConfig::Parse(topology).TakeValue())
          .TakeValue();
  size_t total = 0;
  for (const auto& s : fleet.servers()) total += s->num_entries();
  ASSERT_EQ(total, global.size());

  gen::RandomQueryOptions qopt;
  qopt.max_language = Language::kL3;
  for (int i = 0; i < 25; ++i) {
    QueryPtr q = gen::RandomQuery(&rng, global, qopt);
    SCOPED_TRACE(q->ToString());
    Result<std::vector<Entry>> dist_r = fleet.Execute(*q);
    Result<std::vector<const Entry*>> ref_r =
        EvaluateReference(*q, global);
    ASSERT_EQ(dist_r.ok(), ref_r.ok());
    if (!dist_r.ok()) continue;
    ASSERT_EQ(dist_r->size(), ref_r->size());
    for (size_t j = 0; j < dist_r->size(); ++j) {
      EXPECT_EQ((*dist_r)[j], *(*ref_r)[j]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DistPropertyTest,
                         ::testing::Values(2, 7, 19));

TEST(DistPropertyTest, ShippedRecordsNeverExceedAtomicResults) {
  // The Sec. 8.3 design property: the network carries atomic RESULTS.
  std::mt19937 rng(5);
  gen::RandomForestOptions fopt;
  fopt.seed = 5;
  fopt.num_entries = 200;
  DirectoryInstance global = gen::RandomForest(fopt);
  std::string topology;
  int sid = 0;
  for (const auto& [key, entry] : global) {
    (void)key;
    if (entry.dn().depth() == 1) {
      topology += "shard s" + std::to_string(sid++) + " " +
                  entry.dn().ToString() + "\n";
    }
  }
  DistributedDirectory fleet =
      DistributedDirectory::Build(global,
                                  TopologyConfig::Parse(topology).TakeValue())
          .TakeValue();

  gen::RandomQueryOptions qopt;
  qopt.max_language = Language::kL2;
  for (int i = 0; i < 20; ++i) {
    QueryPtr q = gen::RandomQuery(&rng, global, qopt);
    fleet.ResetStats();
    Result<std::vector<Entry>> r = fleet.Execute(*q);
    if (!r.ok()) continue;
    // Upper bound: sum of atomic sub-query results over the whole forest.
    uint64_t atomic_total = 0;
    for (const Query* leaf : q->Leaves()) {
      Result<std::vector<const Entry*>> lr =
          EvaluateReference(*leaf, global);
      ASSERT_TRUE(lr.ok());
      atomic_total += lr->size();
    }
    EXPECT_LE(fleet.net_stats().records_shipped, atomic_total)
        << q->ToString();
  }
}

TEST(DistPropertyTest, ParallelEvaluationMatchesSequentialShipping) {
  // The engine's pool changes scheduling only: results, everything the
  // network carried, and the trace shape must match the fleet's
  // sequential Execute. The engine runs each plan as given (no rewrite,
  // no optimizer, no cache), so both legs evaluate the same tree.
  std::mt19937 rng(11);
  gen::RandomForestOptions fopt;
  fopt.seed = 11;
  fopt.num_entries = 200;
  DirectoryInstance global = gen::RandomForest(fopt);
  std::string topology;
  int sid = 0;
  for (const auto& [key, entry] : global) {
    (void)key;
    if (entry.dn().depth() == 1) {
      topology += "shard s" + std::to_string(sid++) + " " +
                  entry.dn().ToString() + "\n";
    }
  }
  TopologyConfig config = TopologyConfig::Parse(topology).TakeValue();
  DistributedDirectory fleet =
      DistributedDirectory::Build(global, config).TakeValue();

  EngineOptions opt;
  opt.backend = EngineBackend::kDistributed;
  opt.topology = config;
  opt.rewrite = false;
  opt.cache_capacity_pages = 0;
  Engine engine(global, opt);
  ASSERT_TRUE(engine.init_status().ok()) << engine.init_status().ToString();
  engine.SetOptimize(false);
  engine.SetParallelism(4);
  ASSERT_EQ(engine.parallelism(), 4u);
  DistributedDirectory& parallel_fleet = *engine.fleet();
  Session session = engine.OpenSession();

  gen::RandomQueryOptions qopt;
  qopt.max_language = Language::kL3;
  for (int i = 0; i < 20; ++i) {
    QueryPtr q = gen::RandomQuery(&rng, global, qopt);
    SCOPED_TRACE(q->ToString());

    fleet.ResetStats();
    OpTrace seq_trace;
    Result<std::vector<Entry>> seq = fleet.Execute(*q, &seq_trace);

    parallel_fleet.ResetStats();
    QueryOutcome par = session.Run(q);

    ASSERT_EQ(seq.ok(), par.ok()) << par.status.ToString();
    if (!seq.ok()) continue;
    EXPECT_EQ(*seq, par.entries);
    const NetStats& s = fleet.net_stats();
    const NetStats& p = parallel_fleet.net_stats();
    EXPECT_EQ(p.records_shipped, s.records_shipped);
    EXPECT_EQ(p.bytes_shipped, s.bytes_shipped);
    EXPECT_EQ(p.messages, s.messages);
    EXPECT_EQ(p.queries_shipped, s.queries_shipped);
    EXPECT_EQ(par.trace.NodeCount(), seq_trace.NodeCount());
    EXPECT_EQ(par.trace.output_records, seq_trace.output_records);
    EXPECT_EQ(par.trace.shipped_records, seq_trace.shipped_records);
  }
}

}  // namespace
}  // namespace ndq
