// Property test: distributed evaluation over an arbitrarily delegated
// fleet agrees with the centralized oracle for random queries in every
// language level.

#include <random>

#include <gtest/gtest.h>

#include "dist/distributed.h"
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
  // set_parallelism changes scheduling only: results, everything the
  // network carried, and the trace shape must match the sequential run.
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
  DistributedDirectory fleet =
      DistributedDirectory::Build(global,
                                  TopologyConfig::Parse(topology).TakeValue())
          .TakeValue();

  gen::RandomQueryOptions qopt;
  qopt.max_language = Language::kL3;
  for (int i = 0; i < 20; ++i) {
    QueryPtr q = gen::RandomQuery(&rng, global, qopt);
    SCOPED_TRACE(q->ToString());

    fleet.set_parallelism(1);
    ASSERT_EQ(fleet.parallelism(), 1u);
    fleet.ResetStats();
    OpTrace seq_trace;
    Result<std::vector<Entry>> seq = fleet.Execute(*q, &seq_trace);
    const uint64_t seq_recs = fleet.net_stats().records_shipped;
    const uint64_t seq_bytes = fleet.net_stats().bytes_shipped;
    const uint64_t seq_msgs = fleet.net_stats().messages;

    fleet.set_parallelism(4);
    ASSERT_EQ(fleet.parallelism(), 4u);
    fleet.ResetStats();
    OpTrace par_trace;
    Result<std::vector<Entry>> par = fleet.Execute(*q, &par_trace);

    ASSERT_EQ(seq.ok(), par.ok());
    if (!seq.ok()) continue;
    ASSERT_EQ(seq->size(), par->size());
    for (size_t j = 0; j < seq->size(); ++j) {
      EXPECT_EQ((*seq)[j], (*par)[j]);
    }
    EXPECT_EQ(fleet.net_stats().records_shipped, seq_recs);
    EXPECT_EQ(fleet.net_stats().bytes_shipped, seq_bytes);
    EXPECT_EQ(fleet.net_stats().messages, seq_msgs);
    EXPECT_EQ(par_trace.NodeCount(), seq_trace.NodeCount());
    EXPECT_EQ(par_trace.output_records, seq_trace.output_records);
    EXPECT_EQ(par_trace.shipped_records, seq_trace.shipped_records);
  }
  fleet.set_parallelism(1);
}

}  // namespace
}  // namespace ndq
