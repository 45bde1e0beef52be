// ParallelEvaluator must be observationally identical at every parallelism,
// with or without an operand cache: the same records in the same order as
// the reference semantics (or the same error as the sequential, uncached
// schedule) for every query — only the schedule may differ.
// Cross-validated over the paper instance and randomized forests/queries
// in all language levels, plus trace checks (worker stamps, cache traffic,
// theorem bounds, I/O reconciliation).

#include <cctype>
#include <cstddef>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exec/operand_cache.h"
#include "exec/parallel_evaluator.h"
#include "gen/random_forest.h"
#include "gen/random_query.h"
#include "query/parser.h"
#include "query/reference.h"
#include "testing/paper_fixture.h"
#include "theorem_check.h"

namespace ndq {
namespace {

// Evaluates `query` at parallelism 1 without a cache, and with a
// ParallelEvaluator configured by (parallelism, with_cache); expects the
// same ok/error outcome and, on success, the reference result in order
// from both. With a cache the query runs twice, so the second round is
// served from warm leaves and must still agree.
void ExpectMatchesSequential(const DirectoryInstance& inst,
                             const Query& query, size_t parallelism,
                             bool with_cache) {
  SimDisk seq_disk(1024);
  EntryStore seq_store = EntryStore::BulkLoad(&seq_disk, inst).TakeValue();
  ParallelEvaluator sequential(&seq_disk, &seq_store);
  Result<std::vector<Entry>> want = sequential.EvaluateToEntries(query);
  if (want.ok()) {
    Result<std::vector<const Entry*>> ref = EvaluateReference(query, inst);
    ASSERT_TRUE(ref.ok()) << query.ToString() << ": "
                          << ref.status().ToString();
    ASSERT_EQ(ref->size(), want->size()) << query.ToString();
    for (size_t i = 0; i < ref->size(); ++i) {
      ASSERT_EQ(*(*ref)[i], (*want)[i]) << query.ToString() << " at index "
                                        << i;
    }
  }

  SimDisk disk(1024);
  EntryStore store = EntryStore::BulkLoad(&disk, inst).TakeValue();
  ExecOptions options;
  options.parallelism = parallelism;
  OperandCache cache(&disk, /*capacity_pages=*/4096);
  ParallelEvaluator parallel(&disk, &store, options,
                             with_cache ? &cache : nullptr);

  const int rounds = with_cache ? 2 : 1;
  for (int round = 0; round < rounds; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    OpTrace trace;
    Result<std::vector<Entry>> got =
        parallel.EvaluateToEntries(query, &trace);
    ASSERT_EQ(want.ok(), got.ok())
        << query.ToString() << ": sequential="
        << (want.ok() ? "ok" : want.status().ToString()) << " parallel="
        << (got.ok() ? "ok" : got.status().ToString());
    if (!want.ok()) return;
    ASSERT_EQ(want->size(), got->size()) << query.ToString();
    for (size_t i = 0; i < want->size(); ++i) {
      ASSERT_EQ((*want)[i], (*got)[i])
          << query.ToString() << " at index " << i;
    }
    testing::ExpectWithinTheoremBounds(trace);
    testing::ExpectIoAccountingConsistent(trace);
    testing::ExpectCardinalityWithinEstimate(store, query, trace);
  }
}

void ExpectMatchesSequentialText(const DirectoryInstance& inst,
                                 const std::string& text, size_t parallelism,
                                 bool with_cache) {
  Result<QueryPtr> q = ParseQuery(text);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  SCOPED_TRACE(text);
  ExpectMatchesSequential(inst, **q, parallelism, with_cache);
}

const char* kPaperQueries[] = {
    // Atomic, every scope.
    "(dc=att, dc=com ? sub ? surName=jagadish)",
    "(dc=att, dc=com ? base ? objectClass=*)",
    "(dc=research, dc=att, dc=com ? one ? objectClass=*)",
    // Booleans.
    "(& (dc=com ? sub ? objectClass=dcObject) (dc=att, dc=com ? sub ? "
    "objectClass=*))",
    "(| (dc=com ? base ? objectClass=*) (dc=att, dc=com ? one ? "
    "objectClass=*))",
    "(- (dc=att, dc=com ? sub ? surName=jagadish)"
    "   (dc=research, dc=att, dc=com ? sub ? surName=jagadish))",
    // Hierarchy operators (2- and 3-operand).
    "(c (dc=att, dc=com ? sub ? objectClass=organizationalUnit)"
    "   (dc=att, dc=com ? sub ? surName=jagadish))",
    "(p (dc=com ? sub ? objectClass=QHP)"
    "   (dc=com ? sub ? objectClass=TOPSSubscriber))",
    "(a (dc=att, dc=com ? sub ? objectClass=trafficProfile)"
    "   (dc=att, dc=com ? sub ? ou=networkPolicies))",
    "(d (dc=com ? sub ? objectClass=dcObject)"
    "   (dc=com ? sub ? objectClass=QHP))",
    "(dc (dc=att, dc=com ? sub ? objectClass=dcObject)"
    "    (& (dc=att, dc=com ? sub ? sourcePort=25)"
    "       (dc=att, dc=com ? sub ? objectClass=trafficProfile))"
    "    (dc=att, dc=com ? sub ? objectClass=dcObject))",
    "(ac (dc=com ? sub ? uid=jag) (dc=com ? sub ? objectClass=dcObject)"
    "    (dc=com ? sub ? objectClass=dcObject))",
    // Aggregation.
    "(g (dc=research, dc=att, dc=com ? sub ? objectClass=SLAPolicyRules)"
    "   count(SLAPVPRef) > 1)",
    "(c (dc=com ? sub ? objectClass=QHP)"
    "   (dc=com ? sub ? objectClass=callAppearance) max($2.timeOut)<=30)",
    // Embedded references.
    "(vd (dc=att, dc=com ? sub ? objectClass=SLAPolicyRules)"
    "    (& (dc=att, dc=com ? sub ? sourcePort=25)"
    "       (dc=att, dc=com ? sub ? objectClass=trafficProfile))"
    "    SLATPRef)",
    "(dv (dc=com ? sub ? objectClass=trafficProfile)"
    "    (dc=com ? sub ? objectClass=SLAPolicyRules) SLATPRef "
    "count($2)>=1)",
    // LDAP baseline.
    "(ldap dc=com ? sub ? (&(objectClass=QHP)(!(priority>1))))",
};

TEST(ParallelEvaluatorTest, PaperQueriesAtEveryParallelism) {
  DirectoryInstance inst = testing::PaperInstance();
  for (size_t parallelism : {size_t{1}, size_t{2}, size_t{4}}) {
    for (const char* text : kPaperQueries) {
      SCOPED_TRACE("parallelism " + std::to_string(parallelism));
      ExpectMatchesSequentialText(inst, text, parallelism,
                                  /*with_cache=*/false);
    }
  }
}

TEST(ParallelEvaluatorTest, PaperQueriesWithOperandCache) {
  DirectoryInstance inst = testing::PaperInstance();
  for (const char* text : kPaperQueries) {
    ExpectMatchesSequentialText(inst, text, /*parallelism=*/4,
                                /*with_cache=*/true);
  }
}

TEST(ParallelEvaluatorTest, RepeatedLeafHitsTheCache) {
  DirectoryInstance inst = testing::PaperInstance();
  SimDisk disk(1024);
  EntryStore store = EntryStore::BulkLoad(&disk, inst).TakeValue();
  // Parallelism 1 keeps the leaf order deterministic: with concurrent
  // operands both copies of the leaf could race to a miss, which is
  // correct but makes the hit/miss split unpredictable.
  ExecOptions options;
  options.parallelism = 1;
  OperandCache cache(&disk, /*capacity_pages=*/4096);
  ParallelEvaluator parallel(&disk, &store, options, &cache);

  // The same leaf appears on both sides of the intersection: one miss
  // fills the cache, the second occurrence (and every leaf of a repeat
  // evaluation) hits.
  Result<QueryPtr> q = ParseQuery(
      "(& (dc=att, dc=com ? sub ? objectClass=QHP)"
      "   (dc=att, dc=com ? sub ? objectClass=QHP))");
  ASSERT_TRUE(q.ok()) << q.status().ToString();

  OpTrace trace;
  Result<std::vector<Entry>> first =
      parallel.EvaluateToEntries(**q, &trace);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_EQ(trace.children.size(), 2u);
  uint64_t hits = trace.children[0].cache_hits + trace.children[1].cache_hits;
  uint64_t misses =
      trace.children[0].cache_misses + trace.children[1].cache_misses;
  EXPECT_EQ(hits, 1u);
  EXPECT_EQ(misses, 1u);

  OpTrace warm;
  Result<std::vector<Entry>> second =
      parallel.EvaluateToEntries(**q, &warm);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(warm.children[0].cache_hits + warm.children[1].cache_hits, 2u);
  EXPECT_EQ(warm.children[0].cache_misses + warm.children[1].cache_misses,
            0u);
  EXPECT_EQ(*first, *second);

  OperandCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.resident_entries, 1u);
}

TEST(ParallelEvaluatorTest, WorkerStampsShowConcurrency) {
  DirectoryInstance inst = testing::PaperInstance();
  SimDisk disk(1024);
  EntryStore store = EntryStore::BulkLoad(&disk, inst).TakeValue();
  ExecOptions options;
  options.parallelism = 4;
  ParallelEvaluator parallel(&disk, &store, options);
  ASSERT_EQ(parallel.parallelism(), 4u);

  Result<QueryPtr> q = ParseQuery(
      "(& (| (dc=com ? sub ? objectClass=QHP)"
      "      (dc=com ? sub ? objectClass=dcObject))"
      "   (- (dc=att, dc=com ? sub ? objectClass=*)"
      "      (dc=com ? sub ? objectClass=TOPSSubscriber)))");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  OpTrace trace;
  ASSERT_TRUE(parallel.Evaluate(**q, &trace).ok());
  // Every node carries a worker id in [0, parallelism); the root runs on
  // the caller (worker 0). Occupancy over the whole tree is at least 1
  // and never exceeds the pool.
  EXPECT_EQ(trace.worker, 0u);
  size_t workers = trace.SubtreeWorkers();
  EXPECT_GE(workers, 1u);
  EXPECT_LE(workers, 4u);

  EvalStats stats = parallel.stats();
  EXPECT_EQ(stats.operators_evaluated, 7u);
  EXPECT_EQ(stats.atomic_queries, 4u);
}

TEST(ParallelEvaluatorTest, CacheOnForeignDiskIsRejected) {
  DirectoryInstance inst = testing::PaperInstance();
  SimDisk disk(1024);
  SimDisk other(1024);
  EntryStore store = EntryStore::BulkLoad(&disk, inst).TakeValue();
  OperandCache cache(&other, /*capacity_pages=*/64);
  ParallelEvaluator parallel(&disk, &store, ExecOptions{}, &cache);
  Result<QueryPtr> q = ParseQuery("(dc=com ? sub ? objectClass=*)");
  ASSERT_TRUE(q.ok());
  Result<EntryList> r = parallel.Evaluate(**q);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(ParallelEvaluatorTest, NoPageLeaksAcrossEvaluations) {
  DirectoryInstance inst = testing::PaperInstance();
  SimDisk disk(1024);
  EntryStore store = EntryStore::BulkLoad(&disk, inst).TakeValue();
  ExecOptions options;
  options.parallelism = 4;
  OperandCache cache(&disk, /*capacity_pages=*/4096);
  {
    ParallelEvaluator parallel(&disk, &store, options, &cache);
    size_t baseline = disk.live_pages();
    for (const char* text : kPaperQueries) {
      Result<QueryPtr> q = ParseQuery(text);
      ASSERT_TRUE(q.ok());
      Result<EntryList> r = parallel.Evaluate(**q);
      ASSERT_TRUE(r.ok()) << text << ": " << r.status().ToString();
      EntryList list = r.TakeValue();
      ASSERT_TRUE(FreeRun(&disk, &list).ok());
    }
    // Only cache-resident copies may remain beyond the store itself.
    EXPECT_EQ(disk.live_pages(), baseline + cache.stats().resident_pages);
    cache.Clear();
    EXPECT_EQ(disk.live_pages(), baseline);
  }
}

// Wraps a store and fails scans whose start key contains a marker, so a
// specific atomic leaf can be broken while its siblings keep working.
class FailingSource : public EntrySource {
 public:
  FailingSource(const EntrySource* base,
                std::vector<std::pair<std::string, Status>> failures)
      : base_(base), failures_(std::move(failures)) {}

  Status ScanRange(std::string_view start_key, std::string_view end_key,
                   ScanFilters filters, const RecordFn& fn,
                   uint64_t* skipped_pages) const override {
    std::string key(start_key);
    for (char& c : key) c = static_cast<char>(std::tolower(c));
    for (const auto& [marker, status] : failures_) {
      if (key.find(marker) != std::string::npos) return status;
    }
    return base_->ScanRange(start_key, end_key, filters, fn, skipped_pages);
  }
  uint64_t num_entries() const override { return base_->num_entries(); }
  RangeEstimate EstimateRange(std::string_view start_key,
                              std::string_view end_key,
                              ScanFilters filters) const override {
    return base_->EstimateRange(start_key, end_key, filters);
  }

 private:
  const EntrySource* base_;
  std::vector<std::pair<std::string, Status>> failures_;
};

TEST(ParallelEvaluatorTest, FirstErrorSurfacesDeterministically) {
  DirectoryInstance inst = testing::PaperInstance();
  SimDisk disk(1024);
  EntryStore store = EntryStore::BulkLoad(&disk, inst).TakeValue();
  // Both operands fail, with distinct messages; the research subtree's
  // scan key is strictly deeper, so the markers cannot cross-match.
  FailingSource failing(
      &store, {{"research", Status::Unavailable("injected: left operand")},
               {"com", Status::Unavailable("injected: right operand")}});
  ExecOptions options;
  options.parallelism = 4;
  ParallelEvaluator parallel(&disk, &failing, options);

  Result<QueryPtr> q = ParseQuery(
      "(& (dc=research, dc=att, dc=com ? sub ? objectClass=*)"
      "   (dc=com ? sub ? objectClass=dcObject))");
  ASSERT_TRUE(q.ok()) << q.status().ToString();

  // Whatever order the forked subtrees finish in, the error of the
  // FIRST failing operand (query order) must surface, every time.
  for (int round = 0; round < 25; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    Result<std::vector<Entry>> got = parallel.EvaluateToEntries(**q);
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), StatusCode::kUnavailable);
    EXPECT_EQ(got.status().message(), "injected: left operand");
  }
  EXPECT_EQ(disk.live_pages(),
            static_cast<size_t>(uint64_t{disk.stats().pages_allocated} -
                                uint64_t{disk.stats().pages_freed}));
}

class ParallelPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ParallelPropertyTest, RandomQueriesAgreeWithSequential) {
  const auto [seed, lang_int] = GetParam();
  std::mt19937 rng(static_cast<unsigned>(seed));
  gen::RandomForestOptions fopt;
  fopt.seed = static_cast<uint32_t>(seed);
  fopt.num_entries = 150;
  DirectoryInstance inst = gen::RandomForest(fopt);

  gen::RandomQueryOptions qopt;
  qopt.max_language = static_cast<Language>(lang_int);
  qopt.max_depth = 3;

  for (int i = 0; i < 20; ++i) {
    QueryPtr q = gen::RandomQuery(&rng, inst, qopt);
    SCOPED_TRACE(q->ToString());
    ExpectMatchesSequential(inst, *q, /*parallelism=*/4,
                            /*with_cache=*/i % 2 == 1);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndLanguages, ParallelPropertyTest,
    ::testing::Combine(::testing::Values(7, 21), ::testing::Values(2, 4)));

}  // namespace
}  // namespace ndq
