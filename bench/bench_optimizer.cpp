// E20 — the cost-based optimizer (src/query/optimize.h).
// Claims: on an adversarially-ordered plan mix (expensive operands first,
// provably-empty operands buried in &/|/- chains, filters sitting above
// hierarchy selections), turning the optimizer on (a) cuts total page
// transfers >= 1.3x, (b) returns byte-identical results, (c) keeps every
// trace inside the paper's theorem bounds, and (d) keeps the cost model
// trustworthy for the choices it drives: it ranks every plan's optimized
// and unoptimized forms as the measurement does, and every node's record
// estimate bounds the records it measured (exec/cost.h promises plan
// comparison and upper bounds, not absolute page predictions). The
// est-vs-actual page gap of each mode is reported, not gated.
//
// Emits BENCH_optimizer.json for EXPERIMENTS.md.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "exec/cost.h"
#include "exec/trace.h"
#include "gen/dif_gen.h"
#include "query/optimize.h"
#include "query/parser.h"
#include "query/rewrite.h"
#include "storage/serde.h"
#include "store/entry_store.h"

using namespace ndq;
using namespace ndq::bench;

namespace {

constexpr double kMinSpeedup = 1.3;

// Adversarial mix: every plan is written in the worst reasonable operand
// order, the shape a naive frontend (or the paper's Sec. 8 rewriter
// alone) would ship.
const struct {
  const char* label;
  const char* text;
} kMix[] = {
    {"expensive-first & chain",
     "(& (dc=com ? sub ? objectClass=*)"
     "   (& (dc=com ? sub ? sourcePort=25)"
     "      (dc=org0, dc=com ? sub ? objectClass=QHP)))"},
    {"diff of empty left",
     "(- (dc=com ? sub ? nosuchattr=zzz)"
     "   (dc=com ? sub ? objectClass=*))"},
    {"diff minus empty right",
     "(- (dc=org0, dc=com ? sub ? objectClass=QHP)"
     "   (dc=com ? sub ? nosuchattr=zzz))"},
    {"filter above hierarchy",
     "(& (dc=org0, dc=com ? sub ? objectClass=QHP)"
     "   (c (dc=com ? sub ? objectClass=*)"
     "      (dc=com ? sub ? objectClass=TOPSSubscriber)))"},
    {"union with empty subtree arm",
     "(| (dc=org0, dc=com ? sub ? objectClass=QHP)"
     "   (dc=nowhere, dc=com ? sub ? objectClass=*))"},
    {"aggregate over empty operand",
     "(g (dc=com ? sub ? nosuchattr=zzz) count(objectClass)>=1)"},
};

struct ModeResult {
  uint64_t pages = 0;       // measured transfers across the whole mix
  double est_pages = 0;     // summed model estimates for the shipped plans
  double gap = 0;           // sum over plans of |est - actual| / max(1, actual)
  uint64_t violations = 0;  // theorem-bound violations across traces
  uint64_t bound_misses = 0;  // nodes that output more than their estimate
  uint64_t rewrites = 0;      // optimizer rewrites applied (0 when off)
  std::vector<double> plan_est;       // per plan, in kMix order
  std::vector<uint64_t> plan_actual;  // per plan, in kMix order
  std::vector<std::string> digests;
};

// Counts the nodes of `q` whose estimated record count is below the
// records their trace `t` output (same tree shape, operands in q1/q2/q3
// order). The model's record estimates are upper bounds — an estimate of
// 0 is the optimizer's proof of emptiness — so this must be 0.
uint64_t CountBoundMisses(const EntrySource& store, const Query& q,
                          const OpTrace& t) {
  uint64_t misses = EstimateCost(store, q).output_records <
                            static_cast<double>(t.output_records)
                        ? 1
                        : 0;
  size_t ci = 0;
  for (const QueryPtr& child : {q.q1(), q.q2(), q.q3()}) {
    if (child == nullptr) continue;
    // A trace shaped unlike the plan cannot vouch for its bounds.
    if (ci >= t.children.size()) return misses + 1;
    misses += CountBoundMisses(store, *child, t.children[ci++]);
  }
  return misses;
}

// True when the model and the measurement order a plan's two forms
// differently: priced cheaper by more than half a page but measured
// dearer, or the reverse. Equal prices (an operand swap) rank nothing.
bool Misranked(double est_off, double est_on, uint64_t actual_off,
               uint64_t actual_on) {
  if (est_on < est_off - 0.5) return actual_on > actual_off;
  if (est_on > est_off + 0.5) return actual_on < actual_off;
  return false;
}

ModeResult RunMode(bool optimize, const DirectoryInstance& inst) {
  ModeResult r;
  SimDisk disk(4096);
  EntryStore store = EntryStore::BulkLoad(&disk, inst).TakeValue();

  EngineOptions opts = EngineHarness::ColdOptions();
  opts.rewrite = true;  // the optimizer runs downstream of the rewriter
  opts.optimize = optimize;
  EngineHarness h(&disk, &store, opts);

  for (const auto& plan : kMix) {
    QueryPtr q = ParseQuery(plan.text).TakeValue();
    // The estimate the engine would quote for the plan it actually runs.
    QueryPtr shipped = RewriteQuery(q);
    if (optimize) shipped = OptimizeQuery(store, shipped).plan;
    double est = EstimateCost(store, *shipped).TotalPages();

    IoStats before = disk.stats();
    QueryOutcome out = h.Run(q);
    uint64_t actual = (disk.stats() - before).TotalTransfers();

    r.pages += actual;
    r.est_pages += est;
    r.plan_est.push_back(est);
    r.plan_actual.push_back(actual);
    r.bound_misses += CountBoundMisses(store, *shipped, out.trace);
    r.gap += std::fabs(est - static_cast<double>(actual)) /
             std::max<double>(1.0, static_cast<double>(actual));
    std::vector<std::string> bad = VerifyTheoremBounds(out.trace);
    for (const std::string& v : bad) {
      std::fprintf(stderr, "bound violation [%s, optimize=%d]: %s\n",
                   plan.label, optimize ? 1 : 0, v.c_str());
    }
    r.violations += bad.size();
    r.rewrites += out.optimizer.Total();
    std::string digest;
    for (const Entry& e : out.entries) SerializeEntry(e, &digest);
    r.digests.push_back(std::move(digest));
  }
  return r;
}

}  // namespace

int main() {
  PrintHeader("E20: cost-based optimizer (bench_optimizer)",
              "adversarial plan mix speeds up >= 1.3x with byte-identical "
              "results, intact theorem bounds, and a cost model that ranks "
              "plans as measured and bounds every node's records");

  const size_t sweep[] = {4, 8, 16};  // DIF num_orgs
  bool identical = true;
  uint64_t misranked = 0;
  uint64_t bound_misses = 0;
  uint64_t violations = 0;
  double worst_speedup = 1e9;

  std::printf("%8s %10s %10s %8s | %9s %9s | %8s\n", "entries", "pages(off)",
              "pages(on)", "speedup", "gap(off)", "gap(on)", "rewrites");
  FILE* f = std::fopen("BENCH_optimizer.json", "w");
  if (f != nullptr) {
    std::fprintf(f, "{\n  \"experiment\": \"bench_optimizer\",\n");
    std::fprintf(f, "  \"sweep\": [\n");
  }
  for (size_t i = 0; i < 3; ++i) {
    gen::DifOptions opt;
    opt.num_orgs = sweep[i];
    DirectoryInstance inst = gen::GenerateDif(opt);
    ModeResult off = RunMode(false, inst);
    ModeResult on = RunMode(true, inst);

    double speedup = on.pages > 0
                         ? static_cast<double>(off.pages) / on.pages
                         : 0.0;
    worst_speedup = std::min(worst_speedup, speedup);
    violations += off.violations + on.violations;
    if (off.digests != on.digests) identical = false;
    bound_misses += off.bound_misses + on.bound_misses;
    for (size_t p = 0; p < off.plan_est.size(); ++p) {
      if (Misranked(off.plan_est[p], on.plan_est[p], off.plan_actual[p],
                    on.plan_actual[p])) {
        std::fprintf(stderr,
                     "misranked [%s, %zu entries]: est %.1f -> %.1f, "
                     "measured %llu -> %llu\n",
                     kMix[p].label, inst.size(), off.plan_est[p],
                     on.plan_est[p],
                     static_cast<unsigned long long>(off.plan_actual[p]),
                     static_cast<unsigned long long>(on.plan_actual[p]));
        ++misranked;
      }
    }

    std::printf("%8zu %10llu %10llu %7.2fx | %9.2f %9.2f | %8llu\n",
                inst.size(), static_cast<unsigned long long>(off.pages),
                static_cast<unsigned long long>(on.pages), speedup, off.gap,
                on.gap, static_cast<unsigned long long>(on.rewrites));
    if (f != nullptr) {
      std::fprintf(f,
                   "    {\"entries\": %zu, \"pages_off\": %llu, "
                   "\"pages_on\": %llu, \"est_pages_off\": %.1f, "
                   "\"est_pages_on\": %.1f, \"gap_off\": %.3f, "
                   "\"gap_on\": %.3f, \"rewrites\": %llu}%s\n",
                   inst.size(), static_cast<unsigned long long>(off.pages),
                   static_cast<unsigned long long>(on.pages), off.est_pages,
                   on.est_pages, off.gap, on.gap,
                   static_cast<unsigned long long>(on.rewrites),
                   i + 1 < 3 ? "," : "");
    }
  }

  bool fast_ok = worst_speedup >= kMinSpeedup;
  std::printf("\nworst speedup: %.2fx (target >= %.2fx) %s\n", worst_speedup,
              kMinSpeedup, fast_ok ? "PASS" : "FAIL");
  std::printf("results byte-identical on/off: %s\n",
              identical ? "PASS" : "FAIL");
  std::printf("plans misranked by the model: %llu %s\n",
              static_cast<unsigned long long>(misranked),
              misranked == 0 ? "PASS" : "FAIL");
  std::printf("nodes over their record estimate: %llu %s\n",
              static_cast<unsigned long long>(bound_misses),
              bound_misses == 0 ? "PASS" : "FAIL");
  std::printf("theorem-bound violations: %llu %s\n",
              static_cast<unsigned long long>(violations),
              violations == 0 ? "PASS" : "FAIL");

  if (f != nullptr) {
    std::fprintf(f, "  ],\n");
    std::fprintf(f, "  \"worst_speedup\": %.3f,\n", worst_speedup);
    std::fprintf(f, "  \"min_speedup\": %.2f,\n", kMinSpeedup);
    std::fprintf(f, "  \"results_identical\": %s,\n",
                 identical ? "true" : "false");
    std::fprintf(f, "  \"misranked_plans\": %llu,\n",
                 static_cast<unsigned long long>(misranked));
    std::fprintf(f, "  \"bound_misses\": %llu,\n",
                 static_cast<unsigned long long>(bound_misses));
    std::fprintf(f, "  \"theorem_violations\": %llu\n",
                 static_cast<unsigned long long>(violations));
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote BENCH_optimizer.json\n");
  }
  return (fast_ok && identical && misranked == 0 && bound_misses == 0 &&
          violations == 0)
             ? 0
             : 1;
}
