// A transparent I/O cost model and plan explainer.
//
// Estimates page I/O for a query plan straight from the theorems:
// linear terms for boolean/hierarchy/aggregate operators (Thms 5.1-6.2,
// 8.3), a sort term for the embedded-reference operators (Thm 7.1), and
// range sizes for atomic leaves from the store's sparse index (no I/O).
// An operator's sibling leaves over one base cost their widest range
// once, as the evaluator scans them together (exec/atomic.h ScanUnits).
//
// Cardinalities are UPPER BOUNDS: a leaf's output is bounded by its scope
// range — tightened by the store's cardinality statistics when available
// (store/stats.h: per-attribute filter-match bounds and subtree sketch,
// so selective filters and one-level scopes estimate honestly) — and an
// operator's output by its operands (unions capped at the store size).
// The model is meant for plan comparison ("which of two equivalent forms
// scans less"), not for absolute prediction — see cost_test.cc for the
// guarantees it is tested to keep. The cost-based planner in
// query/optimize.h consumes these estimates to choose among equivalent
// plan shapes.

#ifndef NDQ_EXEC_COST_H_
#define NDQ_EXEC_COST_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "exec/trace.h"
#include "query/ast.h"
#include "store/entry_store.h"

namespace ndq {

/// Cost estimate for one plan node (cumulative over its subtree).
struct CostEstimate {
  double leaf_pages = 0;      ///< pages scanned by atomic leaves
  double operator_pages = 0;  ///< pages moved by operator passes
  double output_records = 0;  ///< upper bound on result cardinality

  double TotalPages() const { return leaf_pages + operator_pages; }
};

/// \brief The leaf-scan estimates of one planning pass, each asked of the
/// store once.
///
/// A planner prices a leaf at every node above it (query/optimize.cc:
/// emptiness proofs, operand ordering, the totals before and after), and
/// a bulk-loaded segment's estimate walks the start pages of the leaf's
/// range, testing each one's synopsis; a pass that shares one memo walks
/// each scan unit's range once. Keyed by the leaves' fingerprints
/// (query/fingerprint.h), so it serves any plan over one store snapshot.
class ScanEstimates {
 public:
  /// EstimateScan(store, leaves) (exec/atomic.h), computed on first use.
  EntrySource::RangeEstimate Get(const EntrySource& store,
                                 const std::vector<const Query*>& leaves);

 private:
  std::unordered_map<std::string, EntrySource::RangeEstimate> memo_;
};

/// Estimates the cost of evaluating `query` against `store`; the leaf
/// scans' estimates come from `memo` when one is given.
CostEstimate EstimateCost(const EntrySource& store, const Query& query,
                          ScanEstimates* memo = nullptr);

/// Renders the plan tree with per-node cumulative estimates, e.g. for
/// ndqsh's .explain.
std::string ExplainPlan(const EntrySource& store, const Query& query);

/// Renders the EXPLAIN ANALYZE report: the plan tree with, per node, the
/// cost model's prediction next to the measured execution trace —
/// `est_pages | act_pages | est_recs | act_recs`, plus the node's
/// self-I/O and operator-specific counters (stack peaks, spills, sort
/// passes, wall time). `trace` must come from evaluating exactly `query`
/// (same tree shape); ndqsh's `.explain analyze` is the interactive
/// front end. Estimated figures are cumulative per subtree, and so are
/// act_pages / wall_us; reads/writes are node-exclusive. Keys are stable
/// and machine-parsable; wall_us is always last on the line.
std::string ExplainAnalyze(const EntrySource& store, const Query& query,
                           const OpTrace& trace);

}  // namespace ndq

#endif  // NDQ_EXEC_COST_H_
