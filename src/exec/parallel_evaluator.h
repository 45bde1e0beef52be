// The bottom-up query evaluator (Sec. 8.2), with intra-query parallelism.
//
// "Each query expression can be evaluated bottom-up ...: first, the atomic
// queries are evaluated, and the resulting entries are sorted by the
// lexicographic ordering on the reverse of their dn's. Next, each operator
// in the query tree is evaluated ... Since each operator gets sorted input
// lists, and computes a sorted output list, no additional sorting of the
// result of an intermediate operator is necessary."
//
// Every intermediate list lives on disk; each operator uses a constant
// number of page buffers (plus the spillable stacks), so whole-query
// evaluation runs in constant main memory with the I/O bounds of Theorems
// 8.3 (L2: linear) and 8.4 (L3: N log N).
//
// The plans have natural task parallelism: an operator's operands
// (q1/q2[/q3]) touch disjoint intermediate lists, so their subtrees
// evaluate concurrently and join at the operator. On a simulated disk
// with transfer latency this overlaps I/O stalls exactly the way a real
// server overlaps seeks across query streams; the page counts themselves
// (the theorems' currency) are unchanged — parallelism reorders
// transfers, it does not add any. Results are byte-identical at every
// parallelism: each operator still consumes fully-materialized sorted
// operands, so every record of every list is independent of scheduling.
//
// This is the only tree walk in the system. Where a node's list comes from
// is pluggable (NodeSource): the shard fleet (dist/distributed.h) answers
// leaves by scatter-gather across shards and ships single-shard subtrees
// whole — the same walk "with a different leaf source", as Sec. 8.3 puts
// it. A source may answer with a partial list (an unreachable shard); it
// then records a DegradationWarning in the evaluation's log, which
// Evaluate hands back, and the evaluator never caches that list.
//
// Tracing uses IoScope (storage/disk.h): each node's scope captures only
// the I/O its own thread does for that node, so a sibling's concurrent I/O
// never lands in it; cumulative subtree I/O is reassembled as self + sum
// of children, and EXPLAIN ANALYZE and VerifyTheoremBounds work unchanged.
//
// An operator's sibling leaves over one base DN share a range scan: the
// direct leaf operands with an equal base that neither the operand cache
// nor the node source answered are evaluated by ONE pass over the widest
// of their ranges (exec/atomic.h ScanLeaves). Each still gets, traces and
// caches its own list; the scan's page reads land on the first of them.
// Leaves with different bases, nested or not, scan separately.
//
// An optional OperandCache short-circuits repeated atomic leaves (see
// exec/operand_cache.h); hits and misses land in the leaf's OpTrace. A
// batch scheduler can additionally pass a SharedOperands set of plan
// fingerprints (query/fingerprint.h): nodes in the set are served from /
// published to the same cache, which is how shared operand subtrees
// across a batch of queries evaluate exactly once.

#ifndef NDQ_EXEC_PARALLEL_EVALUATOR_H_
#define NDQ_EXEC_PARALLEL_EVALUATOR_H_

#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/degradation.h"
#include "exec/common.h"
#include "exec/operand_cache.h"
#include "exec/thread_pool.h"
#include "exec/trace.h"
#include "query/ast.h"
#include "store/entry_store.h"

namespace ndq {

/// Per-query evaluation statistics.
struct EvalStats {
  uint64_t operators_evaluated = 0;
  uint64_t atomic_queries = 0;
  /// Cumulative size (records) of all atomic sub-query outputs: the |L| of
  /// Theorem 8.3.
  uint64_t atomic_output_records = 0;
};

/// What the evaluation asking a node source lends it for one Answer.
struct SourceContext {
  /// The evaluation's pool, for the source's own fan-out (null = run it
  /// inline on the asking thread).
  ThreadPool* pool = nullptr;
  /// Where a degraded answer is recorded; never null.
  DegradationLog* degradations = nullptr;
};

/// \brief Where a plan node's list can come from besides the evaluator's
/// own work.
///
/// The evaluator consults its source at every node (after the batch's
/// shared-operand cache), before range-scanning a leaf or forking an
/// interior node's operands. Answering means returning the node's sorted
/// list on the evaluator's disk; nullopt lets the evaluator do the work
/// itself. `trace` (may be null) is the node's trace: the source records
/// what it did there — I/O its own tasks did on other threads, shipping,
/// retries, a remote evaluation's subtree. The evaluator then adds the I/O
/// its own thread did for the node and, for an answered node, does not add
/// the children again. A source that declines leaves in `trace` only what
/// its failed attempt cost (`io`, shipping, retries and failovers); the
/// evaluator adds the children's I/O and shipping to it. An answer that
/// is partial rather than failed records why in `context.degradations`.
/// Answer may be called concurrently (sibling subtrees, concurrent
/// evaluations). The shard fleet (dist/distributed.h) implements it; the
/// interface lives here so that exec does not depend on dist.
class NodeSource {
 public:
  virtual ~NodeSource() = default;
  virtual Result<std::optional<EntryList>> Answer(
      const Query& node, OpTrace* trace, const SourceContext& context) = 0;
};

/// The shared-subtree set a batch scheduler computed over one batch of
/// canonicalized plans (PlanCensus::SharedKeys). When passed to Evaluate,
/// the evaluator consults its OperandCache at every node whose fingerprint
/// is in the set — a hit replaces the whole subtree's evaluation with a
/// ~2*out-page cached copy, a miss evaluates normally and publishes the
/// result for the batch's other occurrences — unless its evaluation
/// recorded a degradation, which is never cached.
struct SharedOperands {
  std::unordered_set<std::string> keys;  ///< plan fingerprints
  bool contains(const std::string& fp) const { return keys.count(fp) != 0; }
};

class ParallelEvaluator {
 public:
  /// `options.parallelism` threads evaluate independent operand subtrees
  /// (1 = sequential, with no pool). `store` (non-null) is what leaves are
  /// scanned from. A non-null `cache` must be backed by the same scratch
  /// disk as the evaluator; it is consulted for every leaf the evaluator
  /// scans itself and must be Clear()ed by the owner whenever the store
  /// mutates.
  ParallelEvaluator(Disk* disk, const EntrySource* store,
                    ExecOptions options = {}, OperandCache* cache = nullptr);

  /// Pool-and-source form. Runs on `shared_pool` (non-owning, must
  /// outlive the evaluator) instead of a private pool, so one pool bounds
  /// parallelism across every in-flight query; `options.parallelism` is
  /// ignored then, and a null `shared_pool` falls back to a private pool
  /// as above. A non-null `source` (must outlive the evaluator) is
  /// consulted at every node; a leaf it answers is cached only when a
  /// batch shares it.
  ParallelEvaluator(Disk* disk, const EntrySource* store,
                    ExecOptions options, OperandCache* cache,
                    ThreadPool* shared_pool, NodeSource* source = nullptr);
  ~ParallelEvaluator();

  ParallelEvaluator(const ParallelEvaluator&) = delete;
  ParallelEvaluator& operator=(const ParallelEvaluator&) = delete;

  /// Evaluates the query; the caller owns (and frees) the returned list.
  /// Each call pins one snapshot of a mutable store
  /// (EntrySource::PinSnapshot), so a query tree always observes ONE store
  /// version even while concurrent mutations land. A non-null `trace` is
  /// overwritten with the per-operator execution trace, including which
  /// worker ran each node and the cache traffic. A non-null `shared`
  /// enables shared-subtree caching as described on SharedOperands
  /// (requires a cache). A non-null `warnings` receives the degradations
  /// the node source recorded (empty when the result is complete), on
  /// success and failure alike.
  Result<EntryList> Evaluate(
      const Query& query, OpTrace* trace = nullptr,
      const SharedOperands* shared = nullptr,
      std::vector<DegradationWarning>* warnings = nullptr);

  /// Convenience: evaluates and deserializes the result entries.
  Result<std::vector<Entry>> EvaluateToEntries(
      const Query& query, OpTrace* trace = nullptr,
      const SharedOperands* shared = nullptr,
      std::vector<DegradationWarning>* warnings = nullptr);

  size_t parallelism() const {
    return pool_ != nullptr ? pool_->parallelism() : 1;
  }
  OperandCache* cache() const { return cache_; }

  EvalStats stats() const;
  void ResetStats();

 private:
  /// One Evaluate's state, threaded down the recursion. Each public
  /// Evaluate pins ONE snapshot of a mutable store as `store`, so every
  /// forked subtree of a query reads the same store version. Cache keys
  /// are stamped with the snapshot's mutation version (when nonzero), so
  /// lists computed against different versions never alias.
  struct Call {
    const SharedOperands* shared;  // may be null
    const EntrySource* store;
    DegradationLog* degradations;  // this subtree's log
  };

  /// One operand of an operator: its subtree, its trace slot (null when
  /// untraced) and, once evaluated, its list or its error.
  struct Operand {
    Operand(const Query* query, OpTrace* trace)
        : query(query), trace(trace) {}
    const Query* query;
    OpTrace* trace;
    ScopedRun list;
    Status status;
  };

  /// Trace-wrapping recursion step: opens this node's IoScope, times it,
  /// and reassembles cumulative io as self + sum of children. A leaf is
  /// evaluated as a group of one (EvaluateLeaves).
  Result<EntryList> EvaluateTraced(const Query& query, OpTrace* trace,
                                   const Call& call);
  /// Shared-subtree cache check around EvaluateUncached (interior nodes).
  /// `*answered` is set when the node source produced the list.
  Result<EntryList> EvaluateNode(const Query& query, OpTrace* trace,
                                 const Call& call, bool* answered);
  /// The node source, else the operand fork/join.
  Result<EntryList> EvaluateUncached(const Query& query, OpTrace* trace,
                                     const Call& call, bool* answered);
  Result<EntryList> EvaluateOperator(const Query& query, OpTrace* trace,
                                     const Call& call);
  /// Evaluates sibling leaves over one base into their Operand slots.
  /// Each first goes through the caches and the node source (AnswerLeaf),
  /// concurrently when there are several; the leaves none of those
  /// answered are then evaluated by ONE range scan (exec/atomic.h
  /// ScanLeaves), and each publishes its own list under its own
  /// fingerprint.
  void EvaluateLeaves(const std::vector<Operand*>& leaves, const Call& call);
  /// What a leaf gets before the evaluator scans it: the batch's shared
  /// cache, the node source, then the operand cache. Returns the list
  /// when one of them answered; nullopt means the leaf is to be scanned
  /// and its list published under `*key` (empty: not cached).
  Result<std::optional<EntryList>> AnswerLeaf(const Query& leaf,
                                              OpTrace* trace,
                                              const Call& call,
                                              std::string* key);
  /// Evaluates one operand subtree into a ScopedRun (fork target).
  Status EvalOperandInto(const Query& query, OpTrace* trace,
                         const Call& call, ScopedRun* out);

  /// Copies the list cached under `key` into `*out`; true on a hit (the
  /// trace then records the hit over a skeleton of the replaced subtree).
  Result<bool> ServeCached(const std::string& key, const Query& query,
                           OpTrace* trace, EntryList* out);
  /// Inserts a freshly computed list under `key` and passes it through.
  Result<EntryList> Publish(const std::string& key, Result<EntryList> out,
                            OpTrace* trace);

  Disk* disk_;
  const EntrySource* store_;
  ExecOptions options_;
  OperandCache* cache_;
  NodeSource* source_;
  std::unique_ptr<ThreadPool> owned_pool_;  // null when borrowed or 1
  ThreadPool* pool_;                        // null = sequential
  mutable std::mutex stats_mu_;
  EvalStats stats_;
};

}  // namespace ndq

#endif  // NDQ_EXEC_PARALLEL_EVALUATOR_H_
