// The multi-query batch engine: one session-oriented front door for the
// whole evaluation stack.
//
// Everything below this layer is a component you wire by hand: disks,
// stores, evaluators, the operand cache, the thread pool, fault
// injection, tracing. ndq::Engine owns that wiring once — every frontend
// (ndqsh, the example apps, the benches, the fuzzer) opens a Session and
// submits queries, and gets the same semantics: canonicalized plans,
// admission control, per-query EXPLAIN ANALYZE traces, and — for batches
// — cross-query operand sharing.
//
// Cross-query sharing is the paper's physical design paying off at the
// workload level: operand lists are materialized in reverse-DN order, so
// a sub-plan's output is reusable by EVERY query in a batch that contains
// the same sub-plan, not just by later operators of one query. RunBatch
// canonicalizes the batch, runs a sharing census (query/fingerprint.h),
// materializes each maximal shared subtree exactly once, and lets every
// query copy the finished list out of the operand cache for ~2*out pages
// instead of re-evaluating the subtree.
//
// Admission control is deliberately graceful: a query the engine refuses
// (queue full, or its cost estimate exceeds the per-query page budget)
// still yields a QueryOutcome — status ResourceExhausted plus a
// DegradationWarning{source: "admission"} — never an abort, mirroring how
// the distributed layer degrades instead of failing (core/degradation.h).
//
// Threading: the engine owns ONE pool; every in-flight query's
// intra-query parallelism draws from it — operand subtrees and, on a
// distributed backend, the shard fan-out — so total concurrency is
// bounded no matter how many sessions are open. Sessions are driven by
// user threads; with parallelism 1 the pool has no workers and Submit runs
// the query inline (the degenerate sequential mode, same code path).

#ifndef NDQ_ENGINE_ENGINE_H_
#define NDQ_ENGINE_ENGINE_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/degradation.h"
#include "dist/distributed.h"
#include "exec/parallel_evaluator.h"
#include "query/optimize.h"
#include "storage/fault_injector.h"
#include "store/directory_store.h"

namespace ndq {

/// What serves the entries behind an engine built from a
/// DirectoryInstance. Sessions are backend-agnostic: Submit/Run/RunBatch
/// behave identically either way (same plans, same results); only the
/// execution substrate — and the failure modes it can absorb — changes.
enum class EngineBackend {
  /// One bulk-loaded store + scratch disk in this process (default).
  kLocal,
  /// A fleet of replicated subtree shards plus a coordinator
  /// (dist/distributed.h), laid out by EngineOptions::topology. Queries
  /// scatter to the owning shards, fail over across replicas, and
  /// stream-merge at the coordinator.
  kDistributed,
};

/// Engine-wide configuration. Everything here is a default the engine is
/// constructed with; parallelism, fault policy and the page budget can be
/// changed later through the Set* methods (the changes survive across
/// queries — they are engine state, not per-call arguments).
struct EngineOptions {
  /// Execution substrate of the DirectoryInstance constructor; the other
  /// constructors are inherently local and ignore this.
  EngineBackend backend = EngineBackend::kLocal;
  /// Shard layout when backend == kDistributed (dist/topology.h). Its
  /// page_size governs the fleet's disks; engine-owned disks use
  /// kDefaultPageSize.
  TopologyConfig topology;
  /// Backend of engine-owned disks (schema-owning constructor only):
  /// "sim" (default) = in-memory SimDisk, "file" = real-file FileDisk
  /// (storage/file_disk.h) under $NDQ_FILE_DISK_DIR (default /tmp).
  /// Empty = consult $NDQ_DISK_BACKEND, then fall back to "sim" — which
  /// is how CI runs the whole suite against the file backend without
  /// touching each test.
  std::string disk_backend;
  /// Async read io-depth applied to the engine's disks at construction
  /// (see Disk::SetIoDepth). 0 (default) = synchronous reads. Changeable
  /// later via SetIoDepth.
  size_t io_depth = 0;
  /// Evaluation knobs; `exec.parallelism` sizes the engine's pool.
  ExecOptions exec;
  /// Operand cache capacity on the scratch disk. 0 disables the cache
  /// (and with it cross-query sharing) — useful for cold-I/O benches.
  size_t cache_capacity_pages = 4096;
  /// Admission, applied to every session: at most `max_inflight`
  /// queries of one session evaluate at once...
  size_t max_inflight = 4;
  /// ...and at most `queue_depth` may be submitted-but-unfinished; the
  /// excess is rejected gracefully (ResourceExhausted + warning).
  size_t queue_depth = 16;
  /// Reject queries whose cost estimate exceeds this many pages
  /// (0 = unlimited). Estimates are upper bounds (exec/cost.h).
  uint64_t per_query_page_budget = 0;
  /// Fault-injection policy spec (storage/fault_injector.h Parse syntax),
  /// applied at construction; empty = off.
  std::string fault_spec;
  /// Canonicalize every submitted plan with RewriteQuery. Leave on:
  /// sharing detection fingerprints canonical forms.
  bool rewrite = true;
  /// Run the cost-based optimizer (query/optimize.h) on every submitted
  /// plan after canonicalization: short-circuits, operand reordering,
  /// filter pushdown, driven by the store's cardinality statistics.
  /// Overridable per process with $NDQ_OPTIMIZE=on|off (consulted at
  /// engine construction, like $NDQ_DISK_BACKEND), and at runtime with
  /// SetOptimize — which is how CI runs the whole suite both ways.
  bool optimize = true;
};

/// Everything one query produced. Rejected and failed queries carry their
/// status (and, for admission rejections, a warning) here — an outcome is
/// always delivered.
struct QueryOutcome {
  Status status = Status::OK();
  /// The result entries (empty on failure).
  std::vector<Entry> entries;
  /// Per-operator execution trace of `plan` (exec/trace.h); feed it to
  /// ExplainAnalyze / VerifyTheoremBounds. Default-constructed when the
  /// query never ran.
  OpTrace trace;
  /// Admission / degradation warnings ("admission" source = this engine).
  std::vector<DegradationWarning> warnings;
  /// The canonical plan that was (or would have been) evaluated —
  /// post-rewrite and post-optimization.
  QueryPtr plan;
  /// The cost model's page estimate for `plan` (exec/cost.h).
  double estimated_pages = 0;
  /// What the cost-based optimizer did to this plan (all zero when
  /// optimization is off or nothing applied); also mirrored in the root
  /// trace's plan_rewrites field.
  OptimizeStats optimizer;

  bool ok() const { return status.ok(); }
};

struct SessionStats {
  uint64_t submitted = 0;  ///< accepted into the session queue
  uint64_t completed = 0;  ///< outcomes delivered (including failures)
  uint64_t rejected = 0;   ///< admission rejections (not in submitted)
};

/// What one RunBatch did beyond the per-query outcomes.
struct BatchStats {
  /// Distinct sub-plans occurring >= 2 times across the batch.
  size_t shared_subtrees = 0;
  /// Total occurrences of those sub-plans (>= 2 * shared_subtrees).
  uint64_t shared_occurrences = 0;
  /// Operand-cache hit/miss deltas over the batch (engine-wide counters;
  /// exact when no other session runs concurrently).
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  /// Queries rejected by admission control.
  size_t rejected = 0;
};

struct BatchResult {
  /// One outcome per submitted query, in submission order.
  std::vector<QueryOutcome> outcomes;
  BatchStats stats;
};

namespace internal {
struct TicketState;
class SessionImpl;
}  // namespace internal

/// A handle on one submitted query. Cheap to copy; Wait() blocks until
/// the outcome is ready (immediately so for rejected queries).
class QueryTicket {
 public:
  QueryTicket() = default;

  bool valid() const { return state_ != nullptr; }
  bool done() const;
  /// Blocks until the query finishes; the outcome stays owned by the
  /// ticket (valid while any copy of it lives).
  const QueryOutcome& Wait() const;

 private:
  friend class internal::SessionImpl;
  explicit QueryTicket(std::shared_ptr<internal::TicketState> state)
      : state_(std::move(state)) {}

  std::shared_ptr<internal::TicketState> state_;
};

class Engine;

/// A submission channel into the engine with its own admission state.
/// Sessions are movable/copyable handles; all copies share one queue.
/// Thread-compatible: drive one session from one thread (open several
/// sessions for concurrent submitters). Must not outlive its Engine.
class Session {
 public:
  Session() = default;

  /// Parses, canonicalizes, admission-checks and enqueues one query.
  /// Parse errors and admission rejections come back as already-done
  /// tickets carrying the status — Submit itself never fails.
  QueryTicket Submit(const std::string& query_text);
  QueryTicket Submit(const QueryPtr& plan);

  /// Submit + Wait.
  QueryOutcome Run(const std::string& query_text);
  QueryOutcome Run(const QueryPtr& plan);

  /// Convenience: just the entries (or the failure status).
  Result<std::vector<Entry>> Query(const std::string& query_text);

  /// The batch path: canonicalizes all plans, detects sub-plans shared
  /// across the batch, materializes each maximal shared subtree exactly
  /// once, then evaluates the queries with every shared subtree served
  /// from the operand cache. Results are byte-identical to running the
  /// queries one at a time. Blocks until every outcome is ready.
  BatchResult RunBatch(const std::vector<std::string>& query_texts);
  BatchResult RunBatch(const std::vector<QueryPtr>& plans);

  /// Applies a batch of mutations to the engine's store (owning mode
  /// only; borrowing-mode and distributed engines reject with
  /// InvalidArgument) as one state transition (DirectoryStore::Apply).
  /// Safe to call while queries are in flight: a query sees all of the
  /// batch's applied ops or none of them — one already in flight keeps its
  /// pinned pre-batch snapshot, and one submitted after Apply returns sees
  /// every applied op. Each op sees the ops before it; a failed op does
  /// not undo earlier ones and later ops still run (UpdateResult carries
  /// the per-op statuses).
  UpdateResult Apply(const UpdateBatch& batch);

  /// Blocks until every query submitted on this session has finished.
  void Drain();

  SessionStats stats() const;

 private:
  friend class Engine;
  explicit Session(std::shared_ptr<internal::SessionImpl> impl)
      : impl_(std::move(impl)) {}

  BatchResult RunBatchParsed(std::vector<Result<QueryPtr>> parsed);

  std::shared_ptr<internal::SessionImpl> impl_;
};

/// \brief The engine: storage stack + thread pool + operand cache +
/// fault injection + admission, behind Sessions.
class Engine {
 public:
  /// Owning mode: the engine builds its own data disk, scratch disk and
  /// mutable DirectoryStore over `schema`. The interactive shell uses
  /// this; mutate through mutable_store() and call InvalidateCaches().
  explicit Engine(Schema schema, EngineOptions options = {});

  /// Borrowing mode: evaluate an existing store (e.g. a bulk-loaded
  /// EntryStore) using `scratch` for intermediates. `data_disk` is
  /// optional and only used to attach fault injection to the store's own
  /// device; both pointers must outlive the engine.
  Engine(Disk* scratch, const EntrySource* store,
         EngineOptions options = {}, Disk* data_disk = nullptr);

  /// Backend-selecting mode: loads `global` behind options.backend.
  /// kLocal bulk-loads one engine-owned EntryStore (read-only);
  /// kDistributed partitions `global` across options.topology's
  /// replicated shards, and the engine's one evaluator takes its leaves
  /// and single-shard subtrees from the fleet — Sessions, admission,
  /// EXPLAIN ANALYZE and batch sharing all work unchanged. A failed build
  /// does not throw: init_status() carries the error and every submitted
  /// query completes with it.
  Engine(const DirectoryInstance& global, EngineOptions options = {});

  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// A new session, admitted by the engine's max_inflight, queue_depth
  /// and page budget.
  Session OpenSession();

  /// Resizes the engine's pool (1 = sequential). Waits for every
  /// in-flight query to finish first; the operand cache survives. The
  /// setting persists for all future queries of every session.
  void SetParallelism(size_t n);
  size_t parallelism() const;

  /// Installs (or, with "off" / "", clears) a fault-injection policy on
  /// the engine's disks; see FaultInjector::Parse for the spec syntax.
  /// Waits for in-flight queries; persists until the next SetFaults.
  Status SetFaults(const std::string& spec);

  /// The per-query page budget of every session (0 = unlimited). Takes
  /// effect on the next submission.
  void SetPageBudget(uint64_t pages);

  /// Enables/disables the cost-based optimizer for future submissions
  /// (ndqsh's `.set optimize`). Takes effect on the next submission.
  void SetOptimize(bool on);
  bool optimize() const;

  /// Attaches (n > 0) or detaches (n == 0) the async read engine on the
  /// engine's disks: sequential run scans then keep up to `n` page reads
  /// in flight (storage/prefetcher.h). Waits for every in-flight query
  /// first (the async engine must not be swapped under a running scan);
  /// persists for all future queries. Page accounting is identical at any
  /// io-depth — only wall-clock changes.
  void SetIoDepth(size_t n);
  size_t io_depth() const;

  /// Applies a batch of mutations to the engine-owned DirectoryStore as
  /// one state transition (DirectoryStore::Apply) and invalidates the
  /// operand cache; what Session::Apply forwards to. Concurrent queries
  /// are snapshot-isolated (they pinned their store version at evaluation
  /// start). Borrowing mode → InvalidArgument.
  UpdateResult ApplyUpdates(const UpdateBatch& batch);

  /// Drops cached operand lists. Call after mutating the store: cached
  /// lists are snapshots of it.
  void InvalidateCaches();

  /// Blocks until no query is in flight on any session.
  void Drain();

  const EngineOptions& options() const { return options_; }
  /// OK, or why the DirectoryInstance constructor's build failed (bad
  /// topology, uncovered entries, bulk-load failure). Queries submitted
  /// to a failed engine complete gracefully with this status.
  const Status& init_status() const { return init_status_; }
  /// The shard fleet, or nullptr for local backends. For stats and fault
  /// injection (net_stats, ReplicaFailovers, set_down); evaluate through
  /// Sessions, not DistributedDirectory::Execute.
  DistributedDirectory* fleet() { return fleet_.get(); }
  const EntrySource& store() const { return *store_; }
  /// The engine-owned mutable store, or nullptr in borrowing mode.
  DirectoryStore* mutable_store() { return owned_store_.get(); }
  Disk* scratch() { return scratch_; }
  /// The data device: engine-owned in owning mode, the constructor's
  /// `data_disk` (possibly null) in borrowing mode.
  Disk* data_disk() { return data_disk_; }
  /// Null when cache_capacity_pages == 0.
  OperandCache* cache() { return cache_.get(); }
  /// Null when no fault policy is installed.
  FaultInjector* fault_injector() { return injector_.get(); }
  /// Cumulative evaluator statistics (exec/parallel_evaluator.h); reset
  /// when the evaluator is rebuilt (SetParallelism).
  EvalStats eval_stats() const;

 private:
  friend class internal::SessionImpl;

  /// Shared constructor tail: cache, pool, initial fault policy.
  void Init();
  /// Caller holds sched_mu_ with global_inflight_ == 0.
  void RebuildPoolLocked(size_t parallelism);

  /// Runs `body` as one pool task with engine-wide in-flight accounting
  /// (inline when the pool has no workers).
  void Dispatch(std::function<void()> body);

  /// Evaluates one canonical plan (filling entries/trace/warnings) with
  /// the engine's one evaluator, whatever the backend. `shared` may be
  /// null. Runs on the dispatching task's thread.
  QueryOutcome ExecuteQuery(const QueryPtr& plan,
                            const SharedOperands* shared);

  /// Materializes each plan in `roots` once, publishing it (and any
  /// nested shared subtree) to the operand cache; failures are absorbed
  /// (the queries recompute). Blocks until done.
  void PrecomputeShared(const std::vector<QueryPtr>& roots,
                        std::shared_ptr<const SharedOperands> shared);

  /// A consistent store view for planning and estimation: the pinned
  /// snapshot of a mutable store, or (aliased, non-owning) the store
  /// itself when it is immutable. Planning over the snapshot keeps
  /// statistics pointers stable while concurrent mutations publish new
  /// states.
  std::shared_ptr<const EntrySource> PinStore() const;

  uint64_t page_budget() const;
  bool rewrite() const { return options_.rewrite; }
  bool optimize_enabled() const;

  void AttachInjector(FaultInjector* injector);

  // Storage (owning mode); declared first so everything above it can
  // refer to it during destruction. SimDisk or FileDisk per
  // EngineOptions::disk_backend.
  std::unique_ptr<Disk> owned_data_disk_;
  std::unique_ptr<Disk> owned_scratch_;
  std::unique_ptr<DirectoryStore> owned_store_;
  // DirectoryInstance constructor, kLocal: the bulk-loaded segment.
  std::unique_ptr<EntryStore> owned_entry_store_;
  // DirectoryInstance constructor, kDistributed: the shard fleet. Its
  // coordinator disk doubles as the engine's scratch, and the fleet is
  // both store_ (the estimation view) and the evaluator's node source.
  std::unique_ptr<DistributedDirectory> fleet_;
  // Stand-in store after a failed build, so planning never dereferences
  // null; init_status_ fails the queries themselves.
  std::unique_ptr<EntrySource> null_source_;
  Status init_status_;

  Disk* scratch_ = nullptr;
  Disk* data_disk_ = nullptr;  // may be null in borrowing mode
  const EntrySource* store_ = nullptr;

  EngineOptions options_;
  std::unique_ptr<FaultInjector> injector_;
  std::unique_ptr<OperandCache> cache_;

  // Pool / evaluator pair; rebuilt together by SetParallelism while the
  // engine is idle. The evaluator borrows the pool, so declaration order
  // (pool first) gives the right destruction order.
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<ThreadPool::TaskGroup> group_;
  std::unique_ptr<ParallelEvaluator> evaluator_;

  mutable std::mutex sched_mu_;
  std::condition_variable sched_cv_;
  size_t global_inflight_ = 0;  // dispatched, not yet finished
};

}  // namespace ndq

#endif  // NDQ_ENGINE_ENGINE_H_
