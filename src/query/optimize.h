// The cost-based plan optimizer (ROADMAP item 4; docs/OPTIMIZER.md).
//
// RewriteQuery (query/rewrite.h) applies statistics-free canonicalizing
// rewrites; OptimizeQuery runs AFTER it and consults the store's
// cardinality statistics (store/stats.h via EntrySource::stats()) and the
// cost model (exec/cost.h) to choose among equivalent plan shapes:
//
//   * Short-circuits: an operand whose estimated output cardinality is 0
//     is PROVABLY empty (estimates are upper bounds), so
//       (- Q1 empty)  -> Q1,          (- empty Q2)   -> empty,
//       (& empty Q)   -> empty,       (| empty Q)    -> Q,
//       (h Q1 empty)  -> empty        for hierarchy ops without an
//                                     aggregate filter (pure existential
//                                     semantics; an aggregate like
//                                     count($2)=0 can match zero-witness
//                                     entries, so it gates the rule),
//       (h empty Q2), (g empty AS)  -> empty  (output is a subset of
//                                     M(Q1) unconditionally).
//     "empty" replacements become a base-scoped leaf with the original
//     never-matching filter (~1 page) rather than the original scan.
//
//   * Operand reordering: &/| chains are flattened, ordered by estimated
//     (output cardinality, total pages, fingerprint) and rebuilt
//     left-deep, so intersections see their most selective operand first
//     and syntactic permutations of the same operand set fingerprint
//     identically — batch sub-plan sharing (query/fingerprint.h) then
//     recognizes them as one plan.
//
//   * Filter pushdown: (& F (h Q1 Q2 [agg])) -> (h (& F Q1) Q2 [agg])
//     for a leaf F and a hierarchy/simple-agg node, legal iff the
//     aggregate filter (if any) uses no entry-SET aggregates (those read
//     all of M(Q1), which the pushdown would change); applied only when
//     the cost model says the pushed form is cheaper.
//
// Every rewrite preserves M(Q) on the store snapshot the statistics
// describe, and — because results are sorted entry sets with canonical
// serialization — byte-identical output, which the ndqfuzz optimize0/1
// oracles check case by case.

#ifndef NDQ_QUERY_OPTIMIZE_H_
#define NDQ_QUERY_OPTIMIZE_H_

#include <string>

#include "query/ast.h"
#include "store/entry_store.h"

namespace ndq {

/// Counts of applied rewrites, reported through QueryOutcome and the
/// root trace's plan_rewrites field.
struct OptimizeStats {
  size_t short_circuits = 0;
  size_t reordered_operands = 0;
  size_t pushed_filters = 0;

  size_t Total() const {
    return short_circuits + reordered_operands + pushed_filters;
  }
  /// "short_circuit=1 reorder=2 pushdown=1" (only nonzero rules), or
  /// "none".
  std::string ToString() const;
};

/// An optimized plan plus what the optimizer did and what it expects.
struct OptimizedPlan {
  QueryPtr plan;
  OptimizeStats stats;
  double est_pages_before = 0;
  double est_pages_after = 0;
};

/// Optimizes `query` against `store`'s statistics and cost model. The
/// input should already be canonicalized by RewriteQuery. Never returns
/// a more expensive plan: rewrites are kept only when the cost estimate
/// does not increase.
OptimizedPlan OptimizeQuery(const EntrySource& store, const QueryPtr& query);

}  // namespace ndq

#endif  // NDQ_QUERY_OPTIMIZE_H_
