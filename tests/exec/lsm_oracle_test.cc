// End-to-end integration: the evaluation engine over the MUTABLE store
// (memtable + segments + tombstones) agrees with the reference evaluator
// over an equivalent in-memory instance, across update/flush/compaction
// states — queries see exactly the live data, in order.

#include <random>

#include <gtest/gtest.h>

#include "exec/parallel_evaluator.h"
#include "gen/random_forest.h"
#include "gen/random_query.h"
#include "query/reference.h"
#include "store/directory_store.h"

namespace ndq {
namespace {

class LsmOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(LsmOracleTest, QueriesOverMutatedStoreMatchOracle) {
  std::mt19937 rng(GetParam());
  gen::RandomForestOptions fopt;
  fopt.seed = static_cast<uint32_t>(GetParam());
  fopt.num_entries = 200;
  DirectoryInstance full = gen::RandomForest(fopt);

  // Build the store from the full instance, then delete a random set of
  // leaves and mutate some attribute values; mirror everything in a model
  // instance.
  SimDisk disk(512);
  DirectoryStoreOptions opt;
  opt.memtable_limit = 32;  // force segment churn
  opt.max_segments = 3;
  opt.validate = false;
  DirectoryStore store(&disk, Schema(), opt);
  DirectoryInstance model(Schema(), false);
  for (const auto& [key, entry] : full) {
    (void)key;
    ASSERT_TRUE(store.Add(entry).ok());
    ASSERT_TRUE(model.Add(entry).ok());
  }

  // Random mutations.
  std::vector<std::string> keys;
  for (const auto& [key, entry] : full) {
    (void)entry;
    keys.push_back(key);
  }
  int deleted = 0, updated = 0;
  for (int i = 0; i < 120; ++i) {
    const std::string& key = keys[rng() % keys.size()];
    const Entry* cur = model.FindByKey(key);
    if (cur == nullptr) continue;
    if (rng() % 2 == 0) {
      // Try to delete (only leaves succeed; both sides agree on that).
      Dn dn = cur->dn();
      Status s1 = store.Remove(dn);
      Status s2 = model.Remove(dn);
      ASSERT_EQ(s1.ok(), s2.ok()) << dn.ToString();
      if (s1.ok()) ++deleted;
    } else {
      Entry e = *cur;
      e.RemoveAttribute("x");
      e.AddInt("x", static_cast<int64_t>(rng() % 20));
      ASSERT_TRUE(store.Put(e).ok());
      ASSERT_TRUE(model.Put(e).ok());
      ++updated;
    }
    if (i == 60) {
      ASSERT_TRUE(store.Flush().ok());
    }
    if (i == 90) {
      ASSERT_TRUE(store.Compact().ok());
    }
  }
  ASSERT_GT(deleted, 0);
  ASSERT_GT(updated, 0);
  ASSERT_EQ(store.num_entries(), model.size());

  // Now fire random queries at the mutated store.
  SimDisk scratch(512);
  ParallelEvaluator evaluator(&scratch, &store);
  gen::RandomQueryOptions qopt;
  qopt.max_language = Language::kL3;
  for (int i = 0; i < 30; ++i) {
    QueryPtr q = gen::RandomQuery(&rng, model, qopt);
    SCOPED_TRACE(q->ToString());
    Result<std::vector<Entry>> exec_r = evaluator.EvaluateToEntries(*q);
    Result<std::vector<const Entry*>> ref_r = EvaluateReference(*q, model);
    ASSERT_EQ(exec_r.ok(), ref_r.ok());
    if (!exec_r.ok()) continue;
    ASSERT_EQ(exec_r->size(), ref_r->size());
    for (size_t j = 0; j < exec_r->size(); ++j) {
      EXPECT_EQ((*exec_r)[j], *(*ref_r)[j]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LsmOracleTest, ::testing::Values(3, 8, 13));

}  // namespace
}  // namespace ndq
