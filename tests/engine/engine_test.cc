// ndq::Engine session API: query outcomes, persistent settings, graceful
// admission control, and session bookkeeping.
//
// The engine is a wiring layer — evaluation correctness is covered by the
// evaluator/fuzz suites — so these tests pin down the CONTRACT of the
// front door: every submission yields an outcome (never an abort), parse
// errors and admission rejections are distinguishable, Set* settings
// survive across queries, and every session is admitted by the engine's
// settings.

#include "engine/engine.h"

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/status_matchers.h"
#include "exec/theorem_check.h"
#include "query/parser.h"
#include "query/reference.h"
#include "store/entry_store.h"
#include "testing/paper_fixture.h"

namespace ndq {
namespace {

constexpr const char* kWholeTree = "(dc=com ? sub ? objectClass=*)";
constexpr const char* kBoolean =
    "(& (dc=com ? sub ? objectClass=dcObject)"
    "   (dc=att, dc=com ? sub ? objectClass=*))";
constexpr const char* kHierarchy =
    "(c (dc=att, dc=com ? sub ? objectClass=organizationalUnit)"
    "   (dc=att, dc=com ? sub ? surName=jagadish))";

std::vector<Entry> ReferenceEntries(const DirectoryInstance& inst,
                                    const std::string& text) {
  QueryPtr q = ParseQuery(text).TakeValue();
  std::vector<Entry> want;
  for (const Entry* e : EvaluateReference(*q, inst).TakeValue()) {
    want.push_back(*e);
  }
  return want;
}

// Borrowing-mode engine over a bulk-loaded copy of the paper instance.
class EngineTest : public ::testing::Test {
 protected:
  EngineTest()
      : inst_(testing::PaperInstance()),
        disk_(1024),
        store_(EntryStore::BulkLoad(&disk_, inst_).TakeValue()) {}

  Engine MakeEngine(EngineOptions options = {}) {
    return Engine(&disk_, &store_, options);
  }

  DirectoryInstance inst_;
  SimDisk disk_;
  EntryStore store_;
};

TEST_F(EngineTest, RunMatchesReferenceAndFillsOutcome) {
  Engine engine = MakeEngine();
  Session session = engine.OpenSession();
  for (const char* text : {kWholeTree, kBoolean, kHierarchy}) {
    SCOPED_TRACE(text);
    QueryOutcome out = session.Run(text);
    NDQ_ASSERT_OK(out.status);
    EXPECT_EQ(out.entries, ReferenceEntries(inst_, text));
    ASSERT_NE(out.plan, nullptr);
    EXPECT_GT(out.estimated_pages, 0);
    testing::ExpectWithinTheoremBounds(out.trace);
    testing::ExpectIoAccountingConsistent(out.trace);
  }
}

TEST_F(EngineTest, CachedOperandsFeedChildrenLikeFreshOnes) {
  // c reads both operand runs backwards. On a repeat the operand cache
  // serves the leaves as copies of their lists, which must read the same.
  constexpr const char* kCounted =
      "(c (dc=att, dc=com ? sub ? objectClass=organizationalUnit)"
      "   (dc=att, dc=com ? sub ? objectClass=*) count($2) >= 2)";
  EngineOptions no_cache;
  no_cache.cache_capacity_pages = 0;
  Engine uncached = MakeEngine(no_cache);
  QueryOutcome want = uncached.OpenSession().Run(kCounted);
  NDQ_ASSERT_OK(want.status);
  EXPECT_FALSE(want.entries.empty());
  EXPECT_EQ(want.entries, ReferenceEntries(inst_, kCounted));

  Engine engine = MakeEngine();
  Session session = engine.OpenSession();
  NDQ_ASSERT_OK(session.Run(kCounted).status);  // publishes the leaves
  QueryOutcome hit = session.Run(kCounted);
  NDQ_ASSERT_OK(hit.status);
  ASSERT_EQ(hit.trace.children.size(), 2u);
  EXPECT_EQ(hit.trace.children[0].cache_hits, 1u);
  EXPECT_EQ(hit.trace.children[1].cache_hits, 1u);
  EXPECT_EQ(hit.entries, want.entries);
  testing::ExpectWithinTheoremBounds(hit.trace);
}

TEST_F(EngineTest, QueryConvenienceReturnsEntries) {
  Engine engine = MakeEngine();
  Session session = engine.OpenSession();
  NDQ_ASSERT_OK_AND_ASSIGN(std::vector<Entry> entries,
                           session.Query(kWholeTree));
  EXPECT_EQ(entries.size(), inst_.size());
}

TEST_F(EngineTest, ParseErrorIsNotAnAdmissionRejection) {
  Engine engine = MakeEngine();
  Session session = engine.OpenSession();
  QueryOutcome out = session.Run("(dc=com ? sub ?");  // unbalanced
  EXPECT_FALSE(out.ok());
  // A parse failure never produced a plan; an admission rejection always
  // carries one (ndqsh tells the two apart exactly this way).
  EXPECT_EQ(out.plan, nullptr);
  EXPECT_TRUE(out.warnings.empty());
  SessionStats stats = session.stats();
  EXPECT_EQ(stats.submitted, 0u);
  EXPECT_EQ(stats.rejected, 0u);
}

TEST_F(EngineTest, SettingsPersistAcrossQueries) {
  Engine engine = MakeEngine();
  Session session = engine.OpenSession();

  engine.SetParallelism(3);
  EXPECT_EQ(engine.parallelism(), 3u);
  NDQ_ASSERT_OK(session.Run(kBoolean).status);
  // Still 3 after the query: engine state, not a per-call argument.
  EXPECT_EQ(engine.parallelism(), 3u);

  // A fault policy that can never fire (the Nth read is far away).
  NDQ_ASSERT_OK(engine.SetFaults("read:n=1000000"));
  ASSERT_NE(engine.fault_injector(), nullptr);
  NDQ_ASSERT_OK(session.Run(kBoolean).status);
  EXPECT_GT(engine.fault_injector()->ops_seen(), 0u);

  NDQ_ASSERT_OK(engine.SetFaults("off"));
  EXPECT_EQ(engine.fault_injector(), nullptr);

  engine.SetParallelism(1);
  EXPECT_EQ(engine.parallelism(), 1u);
  NDQ_ASSERT_OK(session.Run(kBoolean).status);
}

TEST_F(EngineTest, SetFaultsRejectsBadSpecAndKeepsOldPolicy) {
  Engine engine = MakeEngine();
  NDQ_ASSERT_OK(engine.SetFaults("read:n=1000000"));
  NDQ_EXPECT_STATUS(engine.SetFaults("explode:sometimes"),
                    StatusCode::kInvalidArgument);
  // The previous (parseable) policy survives a failed SetFaults.
  EXPECT_NE(engine.fault_injector(), nullptr);
  EXPECT_EQ(engine.options().fault_spec, "read:n=1000000");
}

TEST_F(EngineTest, InjectedFaultSurfacesAsQueryError) {
  Engine engine = MakeEngine();
  Session session = engine.OpenSession();
  NDQ_ASSERT_OK(engine.SetFaults("read:every=1:sticky"));
  QueryOutcome out = session.Run(kWholeTree);
  EXPECT_FALSE(out.ok());
  EXPECT_GT(engine.fault_injector()->faults_fired(), 0u);
  // Clearing the policy restores service — the engine absorbed the
  // failure without wedging any internal state.
  NDQ_ASSERT_OK(engine.SetFaults("off"));
  NDQ_ASSERT_OK(session.Run(kWholeTree).status);
}

TEST_F(EngineTest, PageBudgetRejectsGracefully) {
  Engine engine = MakeEngine();
  Session session = engine.OpenSession();
  engine.SetPageBudget(1);  // nothing real fits in one page
  QueryOutcome out = session.Run(kWholeTree);
  NDQ_EXPECT_STATUS(out.status, StatusCode::kResourceExhausted);
  ASSERT_EQ(out.warnings.size(), 1u);
  EXPECT_EQ(out.warnings[0].source, "admission");
  EXPECT_NE(out.plan, nullptr);  // rejected, but after planning
  EXPECT_GT(out.estimated_pages, 1.0);
  EXPECT_TRUE(out.entries.empty());
  EXPECT_EQ(session.stats().rejected, 1u);

  engine.SetPageBudget(0);  // back to unlimited
  NDQ_ASSERT_OK(session.Run(kWholeTree).status);
  SessionStats stats = session.stats();
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.completed, 1u);
}

TEST_F(EngineTest, BudgetFromEngineOptionsRejects) {
  EngineOptions tight;
  tight.per_query_page_budget = 1;
  Engine engine = MakeEngine(tight);
  Session session = engine.OpenSession();
  NDQ_EXPECT_STATUS(session.Run(kWholeTree).status,
                    StatusCode::kResourceExhausted);
}

TEST_F(EngineTest, ZeroQueueDepthRejectsEverySubmission) {
  EngineOptions opts;
  opts.queue_depth = 0;
  Engine engine = MakeEngine(opts);
  Session session = engine.OpenSession();
  QueryOutcome out = session.Run(kWholeTree);
  NDQ_EXPECT_STATUS(out.status, StatusCode::kResourceExhausted);
  ASSERT_EQ(out.warnings.size(), 1u);
  EXPECT_EQ(out.warnings[0].source, "admission");
  EXPECT_EQ(session.stats().rejected, 1u);
  EXPECT_EQ(session.stats().submitted, 0u);
}

TEST_F(EngineTest, SessionStatsCountSubmittedAndCompleted) {
  Engine engine = MakeEngine();
  Session session = engine.OpenSession();
  for (int i = 0; i < 3; ++i) {
    NDQ_ASSERT_OK(session.Run(kBoolean).status);
  }
  session.Drain();
  SessionStats stats = session.stats();
  EXPECT_EQ(stats.submitted, 3u);
  EXPECT_EQ(stats.completed, 3u);
  EXPECT_EQ(stats.rejected, 0u);
}

TEST_F(EngineTest, TicketsCanOverlapAndWaitOutOfOrder) {
  EngineOptions opts;
  opts.exec.parallelism = 2;
  Engine engine = MakeEngine(opts);
  Session session = engine.OpenSession();
  QueryTicket t1 = session.Submit(kWholeTree);
  QueryTicket t2 = session.Submit(kBoolean);
  QueryTicket t3 = session.Submit(kHierarchy);
  // Wait in reverse submission order; each outcome is the right one.
  EXPECT_EQ(t3.Wait().entries, ReferenceEntries(inst_, kHierarchy));
  EXPECT_EQ(t2.Wait().entries, ReferenceEntries(inst_, kBoolean));
  EXPECT_EQ(t1.Wait().entries, ReferenceEntries(inst_, kWholeTree));
  session.Drain();
  EXPECT_EQ(session.stats().completed, 3u);
}

TEST(EngineSessionTest, DefaultSessionFailsGracefully) {
  Session session;  // never opened on an engine
  QueryOutcome out = session.Run("(dc=com ? sub ? objectClass=*)");
  NDQ_EXPECT_STATUS(out.status, StatusCode::kInvalidArgument);
  BatchResult br = session.RunBatch(std::vector<std::string>{"(a", "(b"});
  ASSERT_EQ(br.outcomes.size(), 2u);
  NDQ_EXPECT_STATUS(br.outcomes[0].status, StatusCode::kInvalidArgument);
  session.Drain();  // no-op, must not crash
  EXPECT_EQ(session.stats().submitted, 0u);
}

TEST(EngineOwningModeTest, MutableStoreFeedsQueries) {
  Engine engine{testing::PaperSchema()};
  ASSERT_NE(engine.mutable_store(), nullptr);
  Session session = engine.OpenSession();

  // Empty store: a whole-tree query is OK and empty.
  NDQ_ASSERT_OK_AND_ASSIGN(std::vector<Entry> empty,
                           session.Query("(dc=com ? sub ? objectClass=*)"));
  EXPECT_TRUE(empty.empty());

  // Load the paper instance shallow-first so every parent exists.
  DirectoryInstance inst = testing::PaperInstance();
  std::vector<const Entry*> by_depth;
  for (const auto& [key, entry] : inst) {
    (void)key;
    by_depth.push_back(&entry);
  }
  std::stable_sort(by_depth.begin(), by_depth.end(),
                   [](const Entry* a, const Entry* b) {
                     return a->dn().depth() < b->dn().depth();
                   });
  for (const Entry* e : by_depth) {
    NDQ_ASSERT_OK(engine.mutable_store()->Add(*e));
  }
  engine.InvalidateCaches();

  NDQ_ASSERT_OK_AND_ASSIGN(std::vector<Entry> all,
                           session.Query("(dc=com ? sub ? objectClass=*)"));
  EXPECT_EQ(all.size(), inst.size());

  // Mutate + invalidate: the next query sees the removal. The deepest
  // entry is necessarily a leaf, so Remove cannot orphan children.
  NDQ_ASSERT_OK(engine.mutable_store()->Remove(by_depth.back()->dn()));
  engine.InvalidateCaches();
  NDQ_ASSERT_OK_AND_ASSIGN(std::vector<Entry> fewer,
                           session.Query("(dc=com ? sub ? objectClass=*)"));
  EXPECT_EQ(fewer.size(), inst.size() - 1);
}

TEST_F(EngineTest, ApplyIsRejectedInBorrowingMode) {
  // A borrowing engine evaluates someone else's store; routing mutations
  // through it would bypass the owner. The whole batch is rejected before
  // any op runs.
  Engine engine = MakeEngine();
  Session session = engine.OpenSession();
  UpdateBatch batch;
  Entry e(testing::D("dc=new, dc=com"));
  e.AddClass("dcObject");
  e.AddString("dc", "new");
  batch.Put(e);
  UpdateResult res = session.Apply(batch);
  NDQ_EXPECT_STATUS(res.status, StatusCode::kInvalidArgument);
  EXPECT_EQ(res.applied, 0u);
  EXPECT_TRUE(res.op_status.empty());
}

TEST(EngineSessionTest, ApplyOnUnopenedSessionFailsGracefully) {
  Session session;  // never opened on an engine
  UpdateBatch batch;
  batch.Remove(Dn());
  UpdateResult res = session.Apply(batch);
  NDQ_EXPECT_STATUS(res.status, StatusCode::kInvalidArgument);
  EXPECT_EQ(res.applied, 0u);
}

TEST(EngineOwningModeTest, ApplyFeedsQueriesWithoutManualInvalidation) {
  Engine engine{testing::PaperSchema()};
  Session session = engine.OpenSession();
  UpdateBatch batch;
  DirectoryInstance inst = testing::PaperInstance();
  for (const auto& [key, entry] : inst) {
    (void)key;
    batch.Put(entry);
  }
  UpdateResult res = session.Apply(batch);
  NDQ_ASSERT_OK(res.status);
  EXPECT_EQ(res.applied, inst.size());
  // No InvalidateCaches() call: Apply handles visibility itself.
  NDQ_ASSERT_OK_AND_ASSIGN(std::vector<Entry> all,
                           session.Query("(dc=com ? sub ? objectClass=*)"));
  EXPECT_EQ(all.size(), inst.size());
}

}  // namespace
}  // namespace ndq
