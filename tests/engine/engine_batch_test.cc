// Session::RunBatch: cross-query operand sharing must be invisible in the
// results (byte-identical to one-at-a-time evaluation) and visible in the
// accounting (each shared subtree materialized exactly once, every other
// occurrence a cache hit).

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/status_matchers.h"
#include "engine/engine.h"
#include "exec/theorem_check.h"
#include "query/parser.h"
#include "query/reference.h"
#include "store/entry_store.h"
#include "testing/paper_fixture.h"

namespace ndq {
namespace {

const char* kBatchTexts[] = {
    "(dc=att, dc=com ? sub ? surName=jagadish)",
    "(& (dc=com ? sub ? objectClass=dcObject)"
    "   (dc=att, dc=com ? sub ? objectClass=*))",
    // Repeats of the first two: cross-query duplicates for the census.
    "(dc=att, dc=com ? sub ? surName=jagadish)",
    "(& (dc=com ? sub ? objectClass=dcObject)"
    "   (dc=att, dc=com ? sub ? objectClass=*))",
    // Shares only a sub-plan (the dcObject leaf) with the batch.
    "(| (dc=com ? sub ? objectClass=dcObject)"
    "   (dc=com ? sub ? objectClass=QHP))",
    "(c (dc=att, dc=com ? sub ? objectClass=organizationalUnit)"
    "   (dc=att, dc=com ? sub ? surName=jagadish))",
};

class EngineBatchTest : public ::testing::Test {
 protected:
  EngineBatchTest()
      : inst_(testing::PaperInstance()),
        disk_(1024),
        store_(EntryStore::BulkLoad(&disk_, inst_).TakeValue()) {}

  Engine MakeEngine(EngineOptions options = {}) {
    return Engine(&disk_, &store_, options);
  }

  // One-at-a-time ground truth on a FRESH engine (its own cold cache), so
  // nothing the batch engine cached can leak into the expectation.
  std::vector<std::vector<Entry>> Sequential(
      const std::vector<std::string>& texts) {
    Engine engine = MakeEngine();
    Session session = engine.OpenSession();
    std::vector<std::vector<Entry>> results;
    for (const std::string& text : texts) {
      QueryOutcome out = session.Run(text);
      EXPECT_TRUE(out.ok()) << text << ": " << out.status.ToString();
      results.push_back(std::move(out.entries));
    }
    return results;
  }

  DirectoryInstance inst_;
  SimDisk disk_;
  EntryStore store_;
};

TEST_F(EngineBatchTest, BatchIsByteIdenticalToSequential) {
  std::vector<std::string> texts(std::begin(kBatchTexts),
                                 std::end(kBatchTexts));
  std::vector<std::vector<Entry>> want = Sequential(texts);

  Engine engine = MakeEngine();
  Session session = engine.OpenSession();
  BatchResult br = session.RunBatch(texts);
  ASSERT_EQ(br.outcomes.size(), texts.size());
  for (size_t i = 0; i < texts.size(); ++i) {
    SCOPED_TRACE(texts[i]);
    NDQ_ASSERT_OK(br.outcomes[i].status);
    EXPECT_EQ(br.outcomes[i].entries, want[i]);
    testing::ExpectWithinTheoremBounds(br.outcomes[i].trace);
  }
  // The duplicates guarantee a non-trivial census and some sharing.
  EXPECT_GE(br.stats.shared_subtrees, 2u);
  EXPECT_GE(br.stats.shared_occurrences, 2 * br.stats.shared_subtrees);
  EXPECT_GT(br.stats.cache_hits, 0u);
  EXPECT_EQ(br.stats.rejected, 0u);
}

TEST_F(EngineBatchTest, SharedOperandAccountingIsExact) {
  // Two identical (& A B) queries with canonicalization off, so the plans
  // hit the census verbatim: every node (A, B, and the root) occurs
  // twice, the root is the single maximal shared subtree.
  EngineOptions opts;
  opts.rewrite = false;
  Engine engine = MakeEngine(opts);
  Session session = engine.OpenSession();
  const std::string text =
      "(& (dc=com ? sub ? objectClass=dcObject)"
      "   (dc=att, dc=com ? sub ? objectClass=*))";
  BatchResult br = session.RunBatch(std::vector<std::string>{text, text});

  EXPECT_EQ(br.stats.shared_subtrees, 3u);    // A, B, (& A B)
  EXPECT_EQ(br.stats.shared_occurrences, 6u);
  // Precompute materializes each distinct subtree exactly once (three
  // cold misses); both queries are then answered by one root hit each.
  EXPECT_EQ(br.stats.cache_misses, 3u);
  EXPECT_EQ(br.stats.cache_hits, 2u);

  ASSERT_EQ(br.outcomes.size(), 2u);
  for (const QueryOutcome& out : br.outcomes) {
    NDQ_ASSERT_OK(out.status);
    // Served from the cache at the root: the trace records the hit and a
    // skeleton of the subtree it replaced, and still verifies.
    EXPECT_EQ(out.trace.cache_hits, 1u);
    testing::ExpectWithinTheoremBounds(out.trace);
  }
  EXPECT_EQ(br.outcomes[0].entries, br.outcomes[1].entries);
}

TEST_F(EngineBatchTest, CacheOffStillCorrectJustUnshared) {
  EngineOptions opts;
  opts.cache_capacity_pages = 0;  // disables cross-query sharing
  Engine engine = MakeEngine(opts);
  Session session = engine.OpenSession();
  std::vector<std::string> texts(std::begin(kBatchTexts),
                                 std::end(kBatchTexts));
  std::vector<std::vector<Entry>> want = Sequential(texts);
  BatchResult br = session.RunBatch(texts);
  ASSERT_EQ(br.outcomes.size(), texts.size());
  for (size_t i = 0; i < texts.size(); ++i) {
    NDQ_ASSERT_OK(br.outcomes[i].status);
    EXPECT_EQ(br.outcomes[i].entries, want[i]);
  }
  // The census still ran (it is pure plan analysis) but no cache traffic
  // happened.
  EXPECT_GE(br.stats.shared_subtrees, 2u);
  EXPECT_EQ(br.stats.cache_hits, 0u);
  EXPECT_EQ(br.stats.cache_misses, 0u);
}

TEST_F(EngineBatchTest, ParseErrorIsolatedToItsSlot) {
  Engine engine = MakeEngine();
  Session session = engine.OpenSession();
  BatchResult br = session.RunBatch(std::vector<std::string>{
      "(dc=com ? sub ? objectClass=*)", "(dc=com ? sub ?",
      "(dc=att, dc=com ? sub ? surName=jagadish)"});
  ASSERT_EQ(br.outcomes.size(), 3u);
  NDQ_EXPECT_OK(br.outcomes[0].status);
  EXPECT_FALSE(br.outcomes[1].ok());
  EXPECT_EQ(br.outcomes[1].plan, nullptr);
  NDQ_EXPECT_OK(br.outcomes[2].status);
  EXPECT_EQ(br.outcomes[0].entries.size(), inst_.size());
  EXPECT_EQ(br.stats.rejected, 0u);  // a parse error is not an admission
}

TEST_F(EngineBatchTest, AdmissionRejectionsAreCountedPerBatch) {
  EngineOptions opts;
  opts.queue_depth = 0;  // reject every submission
  Engine engine = MakeEngine(opts);
  Session session = engine.OpenSession();
  std::vector<std::string> texts(std::begin(kBatchTexts),
                                 std::begin(kBatchTexts) + 3);
  BatchResult br = session.RunBatch(texts);
  ASSERT_EQ(br.outcomes.size(), 3u);
  for (const QueryOutcome& out : br.outcomes) {
    NDQ_EXPECT_STATUS(out.status, StatusCode::kResourceExhausted);
    ASSERT_EQ(out.warnings.size(), 1u);
    EXPECT_EQ(out.warnings[0].source, "admission");
  }
  EXPECT_EQ(br.stats.rejected, 3u);
}

// Concurrent chains must keep their traces apart: run the whole batch at
// parallelism 4 with four chains in flight and check that every outcome's
// trace describes ITS plan (root operator, output cardinality) and stays
// within the theorem bounds. Run under TSan in CI.
TEST_F(EngineBatchTest, TracesStayIsolatedUnderConcurrency) {
  EngineOptions opts;
  opts.exec.parallelism = 4;
  opts.max_inflight = 4;
  opts.queue_depth = 64;
  Engine engine = MakeEngine(opts);
  Session session = engine.OpenSession();

  std::vector<std::string> texts;
  for (int round = 0; round < 4; ++round) {
    texts.insert(texts.end(), std::begin(kBatchTexts),
                 std::end(kBatchTexts));
  }
  std::vector<std::vector<Entry>> want = Sequential(texts);

  std::vector<QueryTicket> tickets;
  tickets.reserve(texts.size());
  for (const std::string& text : texts) {
    tickets.push_back(session.Submit(text));
  }
  for (size_t i = 0; i < tickets.size(); ++i) {
    SCOPED_TRACE(texts[i]);
    const QueryOutcome& out = tickets[i].Wait();
    NDQ_ASSERT_OK(out.status);
    EXPECT_EQ(out.entries, want[i]);
    ASSERT_NE(out.plan, nullptr);
    EXPECT_EQ(out.trace.op, out.plan->op());
    EXPECT_EQ(out.trace.output_records, out.entries.size());
    testing::ExpectWithinTheoremBounds(out.trace);
    testing::ExpectIoAccountingConsistent(out.trace);
  }
  session.Drain();
  EXPECT_EQ(session.stats().completed, texts.size());
}

}  // namespace
}  // namespace ndq
