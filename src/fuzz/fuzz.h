// ndqfuzz: seeded differential + metamorphic fuzzing of the query engine.
//
// Each case draws a random directory instance (gen/random_forest, with
// adversarial RDN values and near-overflow integers enabled) and a random
// L0-L3 query (gen/random_query), then evaluates the query through every
// engine in the repo and checks that all answers are identical — entry for
// entry, in reverse-DN order:
//
//   reference   the in-memory denotational semantics (query/reference.h)
//   naive       whole-tree quadratic baselines (fuzz/naive_eval.h)
//   par1/2/4    the external-memory ParallelEvaluator (stack/merge
//               algorithms) at 1, 2 and 4 threads, sharing one
//               OperandCache: par1 starts from the empty cache, the later
//               runs exercise typed cache keys under reuse
//   batch0..3   ndq::Engine Session::RunBatch over [Q, Q, (& Q Q),
//               (| Q Q)]: cross-query operand sharing must leave every
//               outcome byte-identical to one-at-a-time evaluation
//   rewrite     RewriteQuery(Q) (optimizer equivalences)
//   optimize0/1 the cost-based optimizer's plan, then the same plan at 2
//               threads with an operand cache
//   expand      ExpandParentsChildren(Q) (Thm 8.2(d); exact because
//               RandomForest instances are prefix-closed)
//   query-roundtrip  ParseQuery(Q.ToString()) plus a ToString fixed-point
//               check
//   mutate      Q over a DirectoryStore after a seeded mutation script,
//               against the reference on the mutated instance
//   dist        DistributedDirectory over per-root naming contexts, with
//               one delegated subtree when the forest allows it
//   dist-fault  the same fleet with a seeded one-shot transient fault
//               injected on every server disk: retries must make the
//               result indistinguishable from the fault-free run
//   dist-batch0..3  batch0..3's batch through an ndq::Engine over the
//               same topology, fail-stop: the engine's fleet path and
//               the fleet batch precompute
//
// plus metamorphic identities:
//
//   idempotent-and/or   (& Q Q) == Q, (| Q Q) == Q
//   self-diff           (- Q Q) == empty
//   scope-monotone      leaf results at scope base/one are contained in
//                       the same leaf at scope sub
//   dn-roundtrip        every instance dn survives ToString -> Parse
//
// rewrite, optimize0, expand, query-roundtrip, mutate and the identities
// evaluate with a sequential, uncached ParallelEvaluator.
//
// On a divergence the driver delta-debugs the case down to a minimal
// repro: greedily removing instance subtrees and hoisting query subtrees
// while the same check keeps failing, then emits a replayable .ndqrepro
// file (fuzz/repro.h). Everything is seeded: the same (seed, iterations)
// pair generates the same cases, checks and shrinks.

#ifndef NDQ_FUZZ_FUZZ_H_
#define NDQ_FUZZ_FUZZ_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/instance.h"
#include "fuzz/repro.h"
#include "query/ast.h"

namespace ndq {
namespace fuzz {

/// Per-case generation knobs.
struct FuzzCaseOptions {
  size_t num_entries = 60;
  Language max_language = Language::kL3;
  /// Passed through to RandomForestOptions: adversarial RDN values and
  /// near-INT64_MAX "x" values (see gen/random_forest.h).
  double weird_rdn_probability = 0.15;
  double extreme_int_probability = 0.05;
};

struct FuzzOptions {
  uint64_t seed = 1;
  uint64_t iterations = 50;
  FuzzCaseOptions gen;
  /// Heavier oracles; disable for quick smoke runs.
  bool with_distributed = true;
  bool with_faults = true;
  /// Delta-debug divergences down to minimal repros.
  bool shrink = true;
  /// Directory to write .ndqrepro files into ("" = keep in-memory only).
  std::string out_dir;
  /// Stop starting new cases after this many milliseconds (0 = no limit).
  /// Cases themselves stay deterministic; only the case COUNT becomes
  /// time-dependent, so leave this 0 when reproducing by seed.
  uint64_t time_budget_ms = 0;
};

/// One failed invariant for one case.
struct CheckFailure {
  std::string check;
  std::string detail;
};

/// A (shrunk) counterexample.
struct Divergence {
  uint64_t case_seed = 0;
  std::string check;
  std::string detail;
  std::string original_query_text;
  size_t original_entries = 0;
  Repro repro;              ///< shrunk instance + query, replayable
  std::string saved_path;   ///< where the .ndqrepro went ("" = not saved)
};

struct FuzzReport {
  uint64_t cases = 0;
  uint64_t checks = 0;  ///< total invariant evaluations across all cases
  std::vector<Divergence> divergences;
};

/// Mixes (seed, index) into a per-case seed (splitmix64 finalizer).
uint64_t CaseSeed(uint64_t seed, uint64_t index);

/// Deterministic case generation, exposed for tests and replay.
DirectoryInstance GenInstance(uint64_t case_seed, const FuzzCaseOptions& gen);
QueryPtr GenQuery(uint64_t case_seed, const DirectoryInstance& instance,
                  const FuzzCaseOptions& gen);

/// Runs every oracle and metamorphic check for one (instance, query)
/// pair; returns all failures (empty = full agreement). `checks_run`, when
/// non-null, is incremented once per invariant evaluated.
std::vector<CheckFailure> CheckCase(const DirectoryInstance& instance,
                                    const QueryPtr& query,
                                    const FuzzOptions& options,
                                    uint64_t case_seed,
                                    uint64_t* checks_run = nullptr);

/// True when a (candidate instance, candidate query) still reproduces the
/// failure being shrunk. Injectable so the shrinker is testable without a
/// real engine bug.
using FailurePredicate =
    std::function<bool(const DirectoryInstance&, const QueryPtr&)>;

/// Greedily removes whole subtrees of `instance` (keeping the namespace
/// prefix-closed) while `fails` holds; returns the fixpoint.
DirectoryInstance ShrinkInstance(const DirectoryInstance& instance,
                                 const QueryPtr& query,
                                 const FailurePredicate& fails);

/// Greedily applies query reductions (hoist an operand subtree over its
/// parent, drop an optional aggregate filter) while `fails` holds.
QueryPtr ShrinkQuery(const DirectoryInstance& instance, const QueryPtr& query,
                     const FailurePredicate& fails);

/// The fuzzing loop: `iterations` cases from `seed`, shrinking and saving
/// each divergence per `options`.
FuzzReport RunFuzz(const FuzzOptions& options);

/// Replays a repro through the full check suite. Corpus repros encode
/// fixed bugs, so the expected result is an empty failure list.
Result<std::vector<CheckFailure>> ReplayRepro(const Repro& repro,
                                              const FuzzOptions& options);

}  // namespace fuzz
}  // namespace ndq

#endif  // NDQ_FUZZ_FUZZ_H_
