// Per-operator execution tracing: the measured counterpart of the
// estimate-side cost model (exec/cost.h).
//
// Every theorem in the paper bounds the page I/O of ONE operator (boolean
// merges: Thm 4.1-style linear scans; hierarchical selection: Thms 5.1 /
// 6.2; simple aggregate selection: Thm 6.1; embedded references: Thm 7.1;
// whole queries: Thms 8.3 / 8.4). Whole-query IoStats cannot show *which*
// operator violates its bound; an OpTrace tree can. The evaluators build
// one OpTrace node per plan operator, recording input/output record and
// page counts, the I/O delta attributed to the node's subtree, the peak
// depth and spill count of the hierarchy stacks, and wall time.
//
// The same tree drives three consumers:
//   * ExplainAnalyze (exec/cost.h): renders the estimate and the
//     measurement side by side, per node — ndqsh's `.explain analyze`;
//   * VerifyTheoremBounds (below): asserts each traced operator stayed
//     within its paper bound, used by tests/exec and bench/;
//   * regression hunting: any later perf PR diffs two traces node by
//     node instead of two whole-query totals.

#ifndef NDQ_EXEC_TRACE_H_
#define NDQ_EXEC_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "query/ast.h"
#include "storage/io_stats.h"

namespace ndq {

/// \brief Measured execution record for one plan operator.
///
/// Counters that no operator of the node's kind touches stay zero (e.g.
/// peak_stack_items for a boolean merge). `io` and `wall_micros` are
/// CUMULATIVE over the node's subtree — mirroring CostEstimate, which is
/// also cumulative — so the root holds the whole-query totals; SelfIo()
/// recovers the node-exclusive delta.
struct OpTrace {
  /// Operator rendering, aligned with ExplainPlan's labels.
  std::string label;
  QueryOp op = QueryOp::kAtomic;

  /// Sum of operand records/pages (operator nodes; 0 for leaves).
  uint64_t input_records = 0;
  uint64_t input_pages = 0;
  /// The node's result list.
  uint64_t output_records = 0;
  uint64_t output_pages = 0;

  /// Atomic leaves: store records visited by the range scan (>= matched).
  uint64_t scanned_records = 0;
  /// Atomic leaves: pages of the scanned range that the scan passed over
  /// unread because their page synopses admit none of the scan's filters
  /// (store/page_synopsis.h); counted, like the reads, on the leaf that
  /// carries the scan's reads.
  uint64_t skipped_pages = 0;
  /// Atomic leaves: how many sibling leaves, this one included, one range
  /// scan evaluated together (exec/atomic.h ScanLeaves); 0 when the leaf
  /// was scanned alone or not scanned. The shared scan's page reads and
  /// scanned records count on the first of them only; each keeps its own
  /// output writes.
  uint64_t shared_scan = 0;
  /// Hierarchy operators: peak item count / spill+reload events of the
  /// SpillableStack (Thm 5.1's amortization target).
  uint64_t peak_stack_items = 0;
  uint64_t stack_spills = 0;
  /// Embedded-reference operators: merge passes of the external sorts
  /// (Thm 7.1's log factor made visible).
  uint64_t sort_merge_passes = 0;
  /// Distributed atomic nodes: payload shipped to the coordinator.
  uint64_t shipped_records = 0;
  uint64_t shipped_bytes = 0;
  /// Distributed atomic nodes: transient-failure handling. `retries` is
  /// the number of re-issued per-server attempts beyond the first;
  /// `degraded_shards` counts servers whose contribution is MISSING from
  /// this node's output (unavailable after all retries — the query
  /// degraded instead of failing; see DistributedDirectory::Execute's
  /// warnings).
  uint64_t retries = 0;
  uint64_t degraded_shards = 0;
  /// Distributed atomic nodes: times a shard-level request abandoned one
  /// replica for a sibling (refusals by down replicas and exhausted
  /// retries both count; see NetStats::failovers).
  uint64_t failovers = 0;
  /// Root node only: rewrites the cost-based optimizer applied to the
  /// plan before evaluation (query/optimize.h; OptimizeStats::Total).
  uint64_t plan_rewrites = 0;
  /// Operand-cache traffic at this node: a hit means the node's sorted
  /// list was copied out of the cache instead of being evaluated again; a
  /// miss means it was evaluated and inserted.
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  /// Thread that evaluated this node: 0 = the query's calling thread,
  /// 1..N = pool workers (ThreadPool::current_worker_id()).
  uint32_t worker = 0;
  /// Async read io-depth in effect for the query (root node only; 0 =
  /// synchronous I/O). The per-node async counters live in `io`
  /// (prefetch_hits / prefetch_wasted / io_wait_us).
  uint64_t io_depth = 0;

  /// Page I/O of the node's subtree, summed over every disk the
  /// evaluation touched (scratch + store, or all servers).
  IoStats io;
  /// Wall time of the node's subtree.
  double wall_micros = 0;

  /// One child per operand, in q1/q2/q3 order (same shape as the Query).
  std::vector<OpTrace> children;

  /// I/O performed by this node alone: io minus the children's io.
  IoStats SelfIo() const;
  uint64_t SelfTransfers() const { return SelfIo().TotalTransfers(); }

  /// Nodes in this subtree (== Query::NodeCount() of the traced query).
  size_t NodeCount() const;

  /// Number of DISTINCT threads that evaluated nodes of this subtree —
  /// the thread occupancy EXPLAIN ANALYZE reports per operator. 1 under
  /// sequential evaluation.
  size_t SubtreeWorkers() const;

  /// Indented tree rendering (measurement side only; ExplainAnalyze in
  /// exec/cost.h renders estimates alongside). One line per node:
  ///   <label>  {in=... out=... reads=... writes=... ... wall_us=...}
  /// Keys are stable and machine-parsable; wall_us is always last.
  std::string ToString() const;
};

/// Appends " key=value" for each nonzero optional counter of the node,
/// `scanned` through `io_wait_us`, in one fixed order; the I/O counters
/// among them are the node's own (SelfIo). OpTrace::ToString and
/// ExplainAnalyze (exec/cost.h) both render a node's counters with it.
void AppendOptionalCounters(const OpTrace& t, std::string* out);

/// Operator label shared by ExplainPlan, ExplainAnalyze and the traced
/// evaluators, so the estimate and measurement renderings line up node
/// for node.
std::string QueryNodeLabel(const Query& q);

/// Fills `trace->children` with label/op-only skeleton nodes mirroring
/// `q`'s subtree. Used when a cached operand list replaces a subtree's
/// evaluation (operand-cache hits on shared sub-plans): EXPLAIN ANALYZE
/// keeps the plan shape, and the skeletons' zero I/O records that nothing
/// under the hit actually ran.
void FillTraceSkeleton(const Query& q, OpTrace* trace);

/// \brief Checks every operator in the trace against its paper I/O bound.
///
/// Bounds are per-node (SelfIo) and expressed in the trace's own measured
/// input/output page counts, with generous constant factors — they catch
/// complexity-class regressions (a merge gone quadratic, a sort pass
/// explosion), not constant-factor drift:
///   * boolean and/or/diff:     <= 3*(in+out) + 8   (linear merge)
///   * p/a/ac/c/d/dc:           <= 8*(in+out) + 16  (merge+annotate+filter,
///                                                   spills amortized; the
///                                                   descendant direction
///                                                   reads its runs
///                                                   backwards at the same
///                                                   cost)
///   * g (simple agg):          <= 8*(in+out) + 16  (<= 3 scans + output)
///   * vd/dv:                   <= 8*(in+out)*(1+log2(in)) + 32 (sort term)
///   * atomic leaves:           writes <= 2*out + 4 (reads are the store
///                              range scan, bounded by test (a) against
///                              the cost model instead; a shared scan's
///                              reads sit on its first leaf, and every
///                              leaf keeps its own writes)
/// Returns one human-readable violation string per failed node; empty
/// means every operator stayed within its theorem.
std::vector<std::string> VerifyTheoremBounds(const OpTrace& trace);

}  // namespace ndq

#endif  // NDQ_EXEC_TRACE_H_
