#include "query/optimize.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "exec/cost.h"
#include "exec/parallel_evaluator.h"
#include "gen/dif_gen.h"
#include "query/fingerprint.h"
#include "query/parser.h"
#include "query/rewrite.h"
#include "store/stats.h"

namespace ndq {
namespace {

struct OptimizeFixture {
  SimDisk disk{1024};
  DirectoryInstance inst;
  EntryStore store;

  OptimizeFixture() : inst(Schema(), false) {
    gen::DifOptions opt;
    opt.num_orgs = 4;
    inst = gen::GenerateDif(opt);
    store = EntryStore::BulkLoad(&disk, inst).TakeValue();
  }

  QueryPtr Parse(const std::string& text) {
    return ParseQuery(text).TakeValue();
  }

  std::vector<Entry> Eval(const QueryPtr& q) {
    SimDisk scratch(1024);
    ParallelEvaluator evaluator(&scratch, &store);
    return evaluator.EvaluateToEntries(*q).TakeValue();
  }

  /// The legality oracle: the optimized plan must produce byte-identical
  /// results to the original, and never a worse estimate.
  OptimizedPlan CheckOptimize(const std::string& text) {
    QueryPtr q = RewriteQuery(Parse(text));
    OptimizedPlan opt = OptimizeQuery(store, q);
    EXPECT_EQ(Eval(q), Eval(opt.plan)) << text;
    EXPECT_LE(opt.est_pages_after, opt.est_pages_before + 1e-9) << text;
    return opt;
  }
};

// ---------------------------------------------------------------------------
// Store statistics
// ---------------------------------------------------------------------------

TEST(StoreStatsTest, CountsStayExactUnderAddAndRemove) {
  gen::DifOptions opt;
  opt.num_orgs = 2;
  DirectoryInstance inst = gen::GenerateDif(opt);

  StoreStats stats;
  for (const auto& kv : inst) stats.AddEntry(kv.second);
  ASSERT_EQ(stats.num_entries(), inst.size());
  ASSERT_TRUE(stats.complete());

  const SubtreeStats* root = stats.Subtree("");
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->subtree_size, inst.size());

  // Remove every entry again: all counters must return to zero.
  for (const auto& kv : inst) stats.RemoveEntry(kv.second);
  EXPECT_EQ(stats.num_entries(), 0u);
  root = stats.Subtree("");
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->subtree_size, 0u);
}

TEST(StoreStatsTest, FilterEstimatesAreUpperBounds) {
  gen::DifOptions opt;
  opt.num_orgs = 3;
  DirectoryInstance inst = gen::GenerateDif(opt);
  StoreStats stats;
  for (const auto& kv : inst) stats.AddEntry(kv.second);

  for (const AtomicFilter& filter :
       {AtomicFilter::Equals("objectClass", Value::String("QHP")),
        AtomicFilter::Presence("sourcePort"),
        AtomicFilter::Equals("nosuchattr", Value::String("zzz")),
        AtomicFilter::True()}) {
    size_t actual = 0;
    for (const auto& kv : inst) {
      if (filter.Matches(kv.second)) ++actual;
    }
    EXPECT_GE(stats.EstimateFilterMatches(filter), actual)
        << filter.ToString();
  }
  // Absent attribute: the estimate must PROVE emptiness.
  EXPECT_EQ(stats.EstimateFilterMatches(
                AtomicFilter::Equals("nosuchattr", Value::String("zzz"))),
            0u);
}

TEST(StoreStatsTest, BulkLoadedStoreExposesStats) {
  OptimizeFixture f;
  const StoreStats* stats = f.store.stats();
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->num_entries(), f.inst.size());
  // The sketch proves empty subtrees empty through the cost model.
  QueryPtr missing =
      f.Parse("(dc=nowhere, dc=com ? sub ? objectClass=*)");
  EXPECT_EQ(EstimateCost(f.store, *missing).output_records, 0.0);
}

// ---------------------------------------------------------------------------
// Rewrite legality matrix: every short-circuit preserves M(Q)
// ---------------------------------------------------------------------------

TEST(OptimizeTest, ShortCircuitLegalityMatrix) {
  OptimizeFixture f;
  const std::string kEmpty = "(dc=com ? sub ? nosuchattr=zzz)";
  const std::string kLive = "(dc=com ? sub ? objectClass=QHP)";
  struct Case {
    std::string text;
    bool expect_short_circuit;
    bool expect_cheaper;  // strictly fewer estimated pages
    // Already free: no page synopsis admits the plan's one leaf, so both
    // plans are estimated at 0 pages.
    bool expect_free = false;
  };
  const Case cases[] = {
      // Same-base conjunctions merge into one LDAP leaf during rewrite;
      // the proof then flows through EstimateLdapMatches.
      {"(& " + kLive + " " + kEmpty + ")", true, false, true},
      {"(& " + kEmpty + " " + kLive + ")", true, false, true},
      // Different-base conjunction survives as a kAnd node.
      {"(& (dc=org0, dc=com ? sub ? objectClass=QHP) " + kEmpty + ")",
       true, true},
      // A provably-empty | disjunct is pruned, but the survivor still
      // scans the same range: no page win, just less filter work.
      {"(| " + kLive + " " + kEmpty + ")", true, false},
      {"(| " + kEmpty + " " + kEmpty + ")", true, false, true},
      {"(- " + kLive + " " + kEmpty + ")", true, true},
      {"(- " + kEmpty + " " + kLive + ")", true, true},
      // Hierarchy with empty q1: output subset of M(Q1) = {}.
      {"(c " + kEmpty + " " + kLive + ")", true, true},
      // Hierarchy with empty q2, no aggregate: pure existential.
      {"(c " + kLive + " " + kEmpty + ")", true, true},
      // Simple aggregate over an empty operand.
      {"(g " + kEmpty + " count(objectClass)>=1)", true, true},
      // Nothing provably empty: no short-circuit may fire.
      {"(& " + kLive + " (dc=com ? sub ? objectClass=TOPSSubscriber))",
       false, false},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.text);
    OptimizedPlan opt = f.CheckOptimize(c.text);
    if (c.expect_short_circuit) {
      EXPECT_GT(opt.stats.short_circuits, 0u);
    } else {
      EXPECT_EQ(opt.stats.short_circuits, 0u);
    }
    if (c.expect_cheaper) {
      EXPECT_LT(opt.est_pages_after, opt.est_pages_before);
    }
    if (c.expect_free) {
      EXPECT_EQ(opt.est_pages_before, 0.0);
      EXPECT_EQ(opt.est_pages_after, 0.0);
    }
  }
}

TEST(OptimizeTest, AggregateGatesHierarchyEmptyWitnessRule) {
  OptimizeFixture f;
  // count($2)>=0 can match entries with ZERO witnesses in M(Q2), so an
  // empty q2 must NOT short-circuit the node — only equivalence is
  // required.
  OptimizedPlan opt = f.CheckOptimize(
      "(c (dc=com ? sub ? objectClass=QHP)"
      "   (dc=com ? sub ? nosuchattr=zzz) count($2)>=0)");
  // The rule for empty q2 is gated; a leaf-level narrowing of the empty
  // scan is still fine, so just require the result equivalence that
  // CheckOptimize already asserted plus a no-worse estimate.
  EXPECT_LE(opt.est_pages_after, opt.est_pages_before);
}

// ---------------------------------------------------------------------------
// Operand reordering
// ---------------------------------------------------------------------------

TEST(OptimizeTest, ReorderIsDeterministicAcrossPermutations) {
  OptimizeFixture f;
  const std::string a = "(dc=com ? sub ? objectClass=QHP)";
  const std::string b = "(dc=com ? sub ? objectClass=trafficProfile)";
  const std::string c = "(dc=com ? sub ? sourcePort=25)";
  const std::string perms[] = {
      "(& " + a + " (& " + b + " " + c + "))",
      "(& (& " + b + " " + a + ") " + c + ")",
      "(& " + c + " (& " + a + " " + b + "))",
  };
  std::string canonical_fp;
  for (const std::string& text : perms) {
    SCOPED_TRACE(text);
    OptimizedPlan opt = f.CheckOptimize(text);
    std::string fp = QueryFingerprint(*opt.plan);
    if (canonical_fp.empty()) {
      canonical_fp = fp;
    } else {
      // Every permutation lands on ONE canonical shape — the property
      // batch sub-plan sharing relies on.
      EXPECT_EQ(fp, canonical_fp);
    }
  }
}

TEST(OptimizeTest, ReorderPutsSelectiveOperandFirst) {
  OptimizeFixture f;
  // Expensive whole-forest scan first, selective narrow scan second
  // (different bases, so the rewrite cannot merge the leaves): the
  // optimizer must flip them.
  OptimizedPlan opt = f.CheckOptimize(
      "(& (dc=com ? sub ? objectClass=*)"
      "   (dc=org0, dc=com ? sub ? objectClass=QHP))");
  ASSERT_EQ(opt.plan->op(), QueryOp::kAnd);
  EXPECT_GT(opt.stats.reordered_operands, 0u);
  EXPECT_LE(EstimateCost(f.store, *opt.plan->q1()).output_records,
            EstimateCost(f.store, *opt.plan->q2()).output_records);
}

// ---------------------------------------------------------------------------
// Filter pushdown
// ---------------------------------------------------------------------------

TEST(OptimizeTest, PushesFilterBelowHierarchyWhenCheaper) {
  OptimizeFixture f;
  // (& F (c Q1 Q2)) with a selective F and a whole-forest Q1: filtering
  // M(Q1) before the hierarchy operator shrinks its input massively.
  OptimizedPlan opt = f.CheckOptimize(
      "(& (dc=com ? sub ? objectClass=QHP)"
      "   (c (dc=com ? sub ? objectClass=*)"
      "      (dc=com ? sub ? objectClass=TOPSSubscriber)))");
  EXPECT_GT(opt.stats.pushed_filters, 0u);
  EXPECT_LT(opt.est_pages_after, opt.est_pages_before);
  // The pushed plan's root is the hierarchy node, not the And.
  EXPECT_EQ(opt.plan->op(), QueryOp::kChildren);
}

TEST(OptimizeTest, SetAggregateBlocksPushdown) {
  OptimizeFixture f;
  // count($1) reads |M(Q1)|; pushing a filter into Q1 would change it.
  OptimizedPlan opt = f.CheckOptimize(
      "(& (dc=com ? sub ? objectClass=QHP)"
      "   (c (dc=com ? sub ? objectClass=*)"
      "      (dc=com ? sub ? objectClass=TOPSSubscriber) count($1)>=1))");
  EXPECT_EQ(opt.stats.pushed_filters, 0u);
}

// ---------------------------------------------------------------------------
// Estimator satellites: kOne and kSimpleAgg est-vs-actual
// ---------------------------------------------------------------------------

TEST(OptimizeTest, OneLevelScopeEstimatesFromDirectChildren) {
  OptimizeFixture f;
  QueryPtr one = f.Parse("(dc=org0, dc=com ? one ? objectClass=*)");
  QueryPtr sub = f.Parse("(dc=org0, dc=com ? sub ? objectClass=*)");
  CostEstimate est_one = EstimateCost(f.store, *one);
  CostEstimate est_sub = EstimateCost(f.store, *sub);
  // kOne must no longer be estimated like kSub: the subtree holds far
  // more than self + direct children.
  EXPECT_LT(est_one.output_records, est_sub.output_records);
  // And it stays an upper bound on the actual result.
  size_t actual = f.Eval(one).size();
  EXPECT_GE(est_one.output_records + 0.5, static_cast<double>(actual));
  // With the sketch the bound is exact for unfiltered one-level scans.
  const SubtreeStats* node =
      f.store.stats()->Subtree(Dn::Parse("dc=org0, dc=com")
                                   .TakeValue()
                                   .HierKey());
  ASSERT_NE(node, nullptr);
  EXPECT_EQ(static_cast<uint64_t>(est_one.output_records),
            node->self + node->direct_children);
}

TEST(OptimizeTest, SimpleAggEstimateWithinBandOfMeasurement) {
  OptimizeFixture f;
  QueryPtr q = f.Parse(
      "(g (dc=com ? sub ? objectClass=SLAPolicyRules)"
      "   count(SLAPVPRef)>=1)");
  CostEstimate est = EstimateCost(f.store, *q);
  SimDisk scratch(1024);
  ParallelEvaluator evaluator(&scratch, &f.store);
  f.disk.ResetStats();
  ASSERT_TRUE(evaluator.EvaluateToEntries(*q).ok());
  double measured = static_cast<double>(f.disk.stats().TotalTransfers() +
                                        scratch.stats().TotalTransfers());
  EXPECT_LE(measured, 20.0 * est.TotalPages());
  EXPECT_LE(est.TotalPages(), 20.0 * measured);
}

// ---------------------------------------------------------------------------
// OptimizeStats rendering
// ---------------------------------------------------------------------------

TEST(OptimizeTest, StatsToString) {
  OptimizeStats none;
  EXPECT_EQ(none.ToString(), "none");
  OptimizeStats some;
  some.short_circuits = 1;
  some.pushed_filters = 2;
  EXPECT_EQ(some.ToString(), "short_circuit=1 pushdown=2");
  EXPECT_EQ(some.Total(), 3u);
}

// A store that counts the filtered range estimates asked of it, by range
// and filters.
class EstimateCountingSource : public EntrySource {
 public:
  explicit EstimateCountingSource(const EntryStore* store) : store_(store) {}

  using EntrySource::ScanRange;
  Status ScanRange(std::string_view start_key, std::string_view end_key,
                   ScanFilters filters, const RecordFn& fn,
                   uint64_t* skipped_pages) const override {
    return store_->ScanRange(start_key, end_key, filters, fn, skipped_pages);
  }
  uint64_t num_entries() const override { return store_->num_entries(); }
  const StoreStats* stats() const override { return store_->stats(); }
  RangeEstimate EstimateRange(std::string_view start_key,
                              std::string_view end_key,
                              ScanFilters filters) const override {
    if (!filters.empty()) {
      std::string key = std::string(start_key) + "|" + std::string(end_key);
      for (const ScanFilter& f : filters) {
        key += "|" + (f.atomic != nullptr ? f.atomic->ToString()
                                          : f.ldap->ToString());
      }
      ++asked[key];
    }
    return store_->EstimateRange(start_key, end_key, filters);
  }

  mutable std::map<std::string, int> asked;

 private:
  const EntryStore* store_;
};

TEST(OptimizeTest, PlanningEstimatesEachScanOnce) {
  OptimizeFixture f;
  // Pushdown, reordering and the emptiness proofs each price the leaves
  // below them; one pass asks the store about each scan unit once.
  QueryPtr q = RewriteQuery(f.Parse(
      "(& (dc=com ? sub ? objectClass=QHP)"
      "   (c (dc=com ? sub ? objectClass=*)"
      "      (& (dc=org0, dc=com ? sub ? objectClass=TOPSSubscriber)"
      "         (dc=org1, dc=com ? sub ? objectClass=TOPSSubscriber))))"));
  EstimateCountingSource source(&f.store);
  OptimizedPlan opt = OptimizeQuery(source, q);
  EXPECT_GT(opt.stats.pushed_filters, 0u);
  EXPECT_GE(source.asked.size(), 4u);
  for (const auto& [key, n] : source.asked) EXPECT_EQ(n, 1) << key;
  // The memo changes no figure and no decision.
  EXPECT_EQ(opt.est_pages_after, EstimateCost(f.store, *opt.plan).TotalPages());
  EXPECT_EQ(QueryFingerprint(*opt.plan),
            QueryFingerprint(*OptimizeQuery(f.store, q).plan));
}

TEST(OptimizeTest, NeverReturnsAMoreExpensivePlan) {
  OptimizeFixture f;
  // Sweep a mixed bag of plans; the guard must hold for every one.
  for (const char* text : {
           "(dc=com ? sub ? objectClass=QHP)",
           "(& (dc=com ? sub ? objectClass=*)"
           "   (| (dc=com ? sub ? sourcePort=25)"
           "      (dc=com ? sub ? nosuchattr=zzz)))",
           "(vd (dc=com ? sub ? objectClass=SLAPolicyRules)"
           "    (dc=com ? sub ? objectClass=trafficProfile) SLATPRef)",
           "(g (dc=com ? sub ? nosuchattr=zzz) count(objectClass)>=1)",
       }) {
    SCOPED_TRACE(text);
    f.CheckOptimize(text);
  }
}

}  // namespace
}  // namespace ndq
