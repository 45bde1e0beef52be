// Whole-query evaluation through the quadratic baselines.
//
// The differential fuzzer wants a third, independently-coded answer for
// every full query tree, not just for single operators. NaiveEvaluate
// recurses over the tree exactly like ParallelEvaluator does, but routes
// every operator through a different implementation:
//
//   * hierarchy / embedded-reference nodes -> the block-nested-loop
//     witness tests of exec/naive.h (no stacks, no merges, no pair lists);
//   * boolean nodes -> an in-memory set operation on the child results,
//     keyed by HierKey (instead of the streaming EvalBoolean merge);
//   * atomic / ldap leaves -> the shared range-scan (leaves are simple
//     enough that an independent implementation would re-test the store,
//     not the operators);
//   * (g ...) -> the shared two-scan EvalSimpleAgg (its filter phase IS
//     the Def. 6.1 semantics; there is nothing more naive to do).
//
// A divergence between this and ParallelEvaluator therefore localizes a
// bug to the stack/merge machinery or to the naive loops — either way a
// real finding.

#ifndef NDQ_FUZZ_NAIVE_EVAL_H_
#define NDQ_FUZZ_NAIVE_EVAL_H_

#include "exec/common.h"
#include "query/ast.h"
#include "store/entry_store.h"

namespace ndq {
namespace fuzz {

/// Evaluates `query` bottom-up with the naive operator implementations.
/// The caller owns (and frees) the returned list.
Result<EntryList> NaiveEvaluate(Disk* disk, const EntrySource& store,
                                const Query& query);

}  // namespace fuzz
}  // namespace ndq

#endif  // NDQ_FUZZ_NAIVE_EVAL_H_
