// Distributed query evaluation (Sec. 8.3), scaled out.
//
// The namespace is partitioned into naming contexts, DNS-style: each
// SHARD owns the subtree rooted at its context dn, minus any subtree
// delegated to a more specific context (Sec. 3.3), and is served by R
// identical REPLICAS — one segment built from the partition, page-copied
// onto R independent disks (dist/topology.h). A query is evaluated as the
// paper prescribes:
// "each atomic query, whose base dn is managed by a directory server
// different from the queried server, is issued to the directory server
// that manages the base dn ... The results of those atomic queries are
// shipped to the original queried directory server, which then computes
// the query result using the algorithms described previously."
//
// An atomic query whose scope spans delegated subdomains fans out to the
// delegate shards as well (as a DNS resolver would chase referrals). Each
// shard routes to one replica — reads round-robin across the replica set,
// and a down or failing replica FAILS OVER to a sibling before the
// RetryPolicy/DegradationWarning machinery ever degrades the result. The
// per-shard sorted streams are then consumed incrementally by a k-way
// merge at the coordinator (dist/merge.h) — sortedness is preserved end
// to end, so the coordinator's operator algorithms run unchanged.
//
// Everything is simulated in-process: every replica has its own SimDisk
// (I/O accounted per replica) and the "network" counts messages and
// bytes shipped.
//
// Frontends do not call this class directly: construct an ndq::Engine
// with EngineOptions{backend = EngineBackend::kDistributed, topology} and
// evaluate through Sessions (engine/engine.h) — admission control,
// planning and batch sharing then work identically against a fleet.

#ifndef NDQ_DIST_DISTRIBUTED_H_
#define NDQ_DIST_DISTRIBUTED_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/degradation.h"
#include "dist/topology.h"
#include "exec/evaluator.h"
#include "exec/operand_cache.h"
#include "exec/parallel_evaluator.h"
#include "exec/thread_pool.h"
#include "query/ast.h"

namespace ndq {

/// Network accounting for distributed evaluation. Counters are relaxed
/// atomics so concurrent sub-plan shipping (set_parallelism) and
/// concurrent Execute calls (Engine sessions) keep the accounting exact.
struct NetStats {
  RelaxedCounter messages = 0;  ///< request/response round trips
  RelaxedCounter bytes_shipped = 0;  ///< result payload bytes moved to
                                     ///< the coordinator
  RelaxedCounter records_shipped = 0;
  RelaxedCounter servers_contacted = 0;  ///< distinct shards per atomic
                                         ///< query, summed over atomics
  RelaxedCounter queries_shipped = 0;  ///< whole (sub)queries pushed to a
                                       ///< server
  RelaxedCounter retries = 0;  ///< per-replica attempts re-issued after a
                               ///< transient (Unavailable) failure
  RelaxedCounter failovers = 0;  ///< requests moved to a sibling replica
                                 ///< after one replica refused or failed
                                 ///< (per-replica counts:
                                 ///< DirectoryServer::failovers /
                                 ///< DistributedDirectory::ReplicaFailovers)
  RelaxedCounter degraded_results = 0;  ///< shard contributions dropped
                                        ///< from a result after every
                                        ///< replica and retry was
                                        ///< exhausted

  void Reset() { *this = NetStats(); }
};

/// How the coordinator treats a transient (Unavailable) failure of one
/// replica: re-issue the request up to `max_attempts` times total,
/// backing off `backoff_micros * 2^(attempt-1)` between attempts, minus a
/// uniform jitter of up to `backoff_jitter` of the delay (decorrelating
/// the retry storms of concurrent sessions; 0 = deterministic backoff).
/// Only after the attempts are exhausted does the request FAIL OVER to
/// the next replica of the shard; a replica that refuses because it is
/// down fails over immediately — retrying a known-down server would just
/// burn the backoff budget. A non-positive `timeout_micros` disables the
/// per-attempt timeout; when set, an attempt whose wall time exceeds it
/// is treated as a transient failure (the simulated client gave up
/// waiting).
struct RetryPolicy {
  int max_attempts = 3;
  uint64_t backoff_micros = 100;
  double backoff_jitter = 0.25;
  uint64_t timeout_micros = 0;
};

// DegradationWarning (core/degradation.h) is attached to evaluations that
// returned a partial result: `source` names the shard whose contribution
// is missing, `detail` carries the last failure (e.g. "replica 'org0/r1'
// is down"). See DistributedDirectory::last_warnings.

/// One replica of a shard: the shard's naming context plus a full copy of
/// its partition in a store over the replica's own disk.
class DirectoryServer {
 public:
  DirectoryServer(std::string name, Dn context, size_t page_size);

  const std::string& name() const { return name_; }
  const Dn& context() const { return context_; }
  Disk* disk() { return disk_.get(); }
  const EntryStore& store() const { return store_; }
  size_t num_entries() const { return store_.num_entries(); }

  /// Simulated outage: a down replica refuses every request with
  /// Unavailable (the coordinator fails over to a sibling replica, and
  /// only degrades when the whole replica set is gone). Flipping the flag
  /// back up restores normal service — nothing else changes.
  void set_down(bool down) { down_.store(down, std::memory_order_release); }
  bool is_down() const { return down_.load(std::memory_order_acquire); }

  /// Times a request addressed to this replica moved on to a sibling
  /// (refusals and exhausted retries both count).
  uint64_t failovers() const {
    return failovers_.load(std::memory_order_relaxed);
  }

 private:
  friend class DistributedDirectory;

  std::string name_;
  Dn context_;
  std::unique_ptr<SimDisk> disk_;
  EntryStore store_;
  /// One outstanding shipped query/scan per replica: parallelism in the
  /// coordinator comes from fanning out ACROSS shards, while each
  /// replica's own evaluation stays sequential (so the remote evaluator's
  /// snapshot-based tracing on the replica disk stays exact).
  std::mutex mu_;
  std::atomic<bool> down_{false};
  std::atomic<uint64_t> failovers_{0};
};

/// One shard: a naming context served by R identical replicas.
class Shard {
 public:
  const std::string& name() const { return name_; }
  const Dn& context() const { return context_; }
  size_t num_replicas() const { return replicas_.size(); }
  DirectoryServer* replica(size_t i) { return replicas_[i].get(); }
  const DirectoryServer* replica(size_t i) const {
    return replicas_[i].get();
  }
  /// Entries of the shard's partition (replicas are identical).
  size_t num_entries() const { return replicas_[0]->num_entries(); }

 private:
  friend class DistributedDirectory;
  Shard() = default;

  std::string name_;
  Dn context_;
  std::vector<std::unique_ptr<DirectoryServer>> replicas_;
  /// Round-robin read cursor: each request starts its replica ring walk
  /// one past the previous request's start, spreading load.
  std::atomic<uint64_t> next_replica_{0};
};

/// \brief A fleet of replicated shards plus a coordinator.
class DistributedDirectory {
 public:
  /// Partitions `global` across the topology's shards — each entry goes
  /// to the shard with the deepest context that is an ancestor-or-self of
  /// the entry's dn — and builds each shard once: replica 0's segment is
  /// serialized from the shard's entries in `global`, and every other
  /// replica gets a page copy of it on its own disk, sharing one
  /// StoreStats. After a build, replica 0's disk counts the copies' page
  /// reads. An entry matching no context fails the build with
  /// InvalidArgument before any replica page is allocated.
  static Result<DistributedDirectory> Build(const DirectoryInstance& global,
                                            const TopologyConfig& topology);

  /// Names of the shards whose data an atomic query at (base, scope) can
  /// touch: the owner of the base dn plus, for subtree scopes, every
  /// delegate whose context lies under the base (dist/topology.h).
  std::vector<std::string> OwnersFor(const Dn& base, Scope scope) const;

  /// Distributed bottom-up evaluation; the result materializes at the
  /// coordinator. Safe to call concurrently from multiple threads (the
  /// Engine's session dispatch does): all per-evaluation state is local
  /// to the call. A non-null `trace` receives the per-operator execution
  /// trace (exec/trace.h): I/O is summed over every disk in the fleet
  /// (coordinator + replicas), and atomic nodes additionally record the
  /// records/bytes shipped across the simulated network plus the retries
  /// and replica failovers the shipping needed. A non-null `warnings`
  /// receives this call's DegradationWarnings (empty when the result is
  /// complete). `batch_cache`/`batch_shared` (both may be null) carry a
  /// batch's coordinator-side sub-plan sharing state: sub-plans in
  /// `batch_shared` are served from — and on first sight published to —
  /// `batch_cache` instead of re-shipping (engine/engine.h RunBatch).
  Result<std::vector<Entry>> Execute(
      const Query& query, OpTrace* trace = nullptr,
      std::vector<DegradationWarning>* warnings = nullptr,
      OperandCache* batch_cache = nullptr,
      const SharedOperands* batch_shared = nullptr);

  /// DEPRECATED: single-caller form of Execute that parks its warnings in
  /// last_warnings(). Frontends go through Engine sessions instead; the
  /// member warning sink is racy under concurrent calls (use Execute's
  /// `warnings` out-param).
  Result<std::vector<Entry>> Evaluate(const Query& query,
                                      OpTrace* trace = nullptr);

  /// DEPRECATED: batched evaluation with cross-query sub-plan sharing at
  /// the coordinator. Engine sessions' RunBatch supersedes this — same
  /// sharing (it passes the per-batch cache through Execute), plus
  /// admission control and parallel dispatch. Results are byte-identical
  /// to calling Evaluate once per query with the same plans.
  /// `cache_capacity_pages` bounds the per-batch cache on the coordinator
  /// disk; the cache is dropped when the batch returns. last_warnings
  /// reflects the batch's final query.
  Result<std::vector<std::vector<Entry>>> EvaluateBatch(
      const std::vector<QueryPtr>& queries,
      size_t cache_capacity_pages = 4096);

  /// When enabled (default), a (sub)query whose atomic leaves all fall
  /// within ONE shard's exclusive ownership is shipped to a replica of
  /// that shard whole — it evaluates there with the usual algorithms and
  /// only the FINAL result crosses the network. This is the natural
  /// refinement of Sec. 8.3's atomic-result shipping for subtree-local
  /// queries (compare the two modes in bench_distributed).
  void set_query_shipping(bool enabled) { query_shipping_ = enabled; }

  /// When enabled (default), scatter-gather merges stream: per-shard
  /// sorted results stay on the serving replicas' disks and the
  /// coordinator consumes them record-at-a-time into the merged output
  /// (dist/merge.h). Disabled, each shard's result is materialized on the
  /// coordinator first and merged from the copies — the pre-streaming
  /// behavior, kept for byte-identity comparison (results are identical
  /// either way; only coordinator I/O differs).
  void set_streaming_merge(bool enabled) { streaming_merge_ = enabled; }
  bool streaming_merge() const { return streaming_merge_; }

  /// The single shard that exclusively covers every leaf of `query`, or
  /// nullptr if the query spans shards. Exposed for tests.
  Shard* SingleOwner(const Query& query);

  /// Evaluates independent sub-plans (operand subtrees, per-shard atomic
  /// fan-out) on up to `n` threads (1 = sequential, the default). Results
  /// are identical to sequential evaluation; only scheduling changes. Not
  /// thread-safe against a concurrent Execute.
  void set_parallelism(size_t n);
  size_t parallelism() const {
    return pool_ != nullptr ? pool_->parallelism() : 1;
  }

  /// When enabled (default), EvaluateBatch runs the cost-based optimizer
  /// (query/optimize.h) on each canonicalized plan before the sharing
  /// census, against a coordinator-side view of the fleet's statistics
  /// (summed per-shard estimates — still upper bounds). Short-circuits
  /// avoid shipping provably-empty sub-plans; reordering canonicalizes
  /// operand permutations so the census shares more.
  void set_optimize(bool enabled) { optimize_ = enabled; }
  bool optimize() const { return optimize_; }

  /// Transient-failure handling knobs (see RetryPolicy).
  void set_retry_policy(RetryPolicy policy) { retry_policy_ = policy; }
  const RetryPolicy& retry_policy() const { return retry_policy_; }

  /// When enabled (the default), an atomic query whose owning shard stays
  /// Unavailable through every replica and retry yields a PARTIAL result
  /// — the reachable shards' contributions, with one DegradationWarning
  /// per missing shard — instead of failing the whole query. Disable to
  /// get fail-stop semantics (the Unavailable status propagates).
  void set_allow_degraded(bool enabled) { allow_degraded_ = enabled; }
  bool allow_degraded() const { return allow_degraded_; }

  /// Warnings attached to the most recent Evaluate (empty when the result
  /// was complete). Cleared at the start of each Evaluate. DEPRECATED
  /// with it: racy under concurrent Execute (whose `warnings` out-param
  /// replaces this).
  std::vector<DegradationWarning> last_warnings() const;

  const NetStats& net_stats() const { return net_; }
  /// Snapshot of every replica's failover count, keyed by replica name
  /// (only replicas with a nonzero count appear).
  std::map<std::string, uint64_t> ReplicaFailovers() const;
  void ResetStats();

  Disk* coordinator_disk() { return coordinator_disk_.get(); }
  const std::vector<std::unique_ptr<Shard>>& shards() const {
    return shards_;
  }
  Shard* FindShard(const std::string& name);
  /// Every replica in the fleet, flattened in shard order (replica 0 of a
  /// single-replica shard keeps the plain shard name, so legacy callers
  /// see the same servers they always did).
  std::vector<DirectoryServer*> servers() const;
  DirectoryServer* FindServer(const std::string& name);

  /// Coordinator-side estimation view of the fleet (per-shard estimates
  /// summed; not scannable). Lives as long as this object; created on
  /// first call, which must not race an Execute.
  const EntrySource& estimation_source();

 private:
  DistributedDirectory() = default;

  /// Per-evaluation state, one per Execute call: the warning sink and the
  /// batch-sharing pointers travel here instead of in members so
  /// concurrent evaluations (Engine sessions) never share mutable state.
  struct EvalCtx {
    OperandCache* batch_cache = nullptr;
    const SharedOperands* batch_shared = nullptr;
    std::mutex mu;
    std::vector<DegradationWarning> warnings;
  };

  /// One shard-level fetch: the atomic query evaluated on one healthy
  /// replica, with round-robin replica choice, per-replica retries and
  /// failover across the replica ring. On success `run` is the sorted
  /// result ON `replica`'s own disk (the coordinator streams it during
  /// the merge). The counters are filled in success and failure alike.
  struct ShardFetch {
    DirectoryServer* replica = nullptr;
    Run run;
    uint64_t scanned_records = 0;
    uint64_t retries = 0;
    uint64_t failovers = 0;
  };
  Status FetchAtomicFromShard(Shard& shard, const Query& query,
                              bool want_trace, ShardFetch* out);

  Result<EntryList> EvaluateNode(const Query& query, OpTrace* trace,
                                 EvalCtx& ctx);
  /// Batch-sharing wrapper: serves/publishes sub-plans the active batch
  /// census marked shared from the per-batch coordinator cache, and
  /// delegates everything else to EvaluateNodeDispatch.
  Result<EntryList> EvaluateNodeImpl(const Query& query, OpTrace* trace,
                                     bool* shipped_whole, EvalCtx& ctx);
  /// `shipped_whole` (may be null) is set when the node was pushed to one
  /// replica whole — its children's trace I/O then came from the remote
  /// evaluator and is already inside this node's own IoScope.
  Result<EntryList> EvaluateNodeDispatch(const Query& query, OpTrace* trace,
                                         bool* shipped_whole, EvalCtx& ctx);
  Result<EntryList> EvaluateAtomicDistributed(const Query& query,
                                              OpTrace* trace, EvalCtx& ctx);

  Result<EntryList> ShipWholeQuery(const Query& query, Shard* shard,
                                   OpTrace* trace);

  /// True when at least one replica of `shard` is up.
  static bool AnyReplicaUp(const Shard& shard);

  /// I/O counters summed across the coordinator and every replica.
  IoStats FleetIo() const;

  std::vector<std::unique_ptr<Shard>> shards_;
  RoutingTable routing_;
  std::unique_ptr<SimDisk> coordinator_disk_;
  ExecOptions options_;
  NetStats net_;
  bool query_shipping_ = true;
  bool streaming_merge_ = true;
  bool optimize_ = true;
  RetryPolicy retry_policy_;
  bool allow_degraded_ = true;
  /// Mutex + warning list behind one shared_ptr so DistributedDirectory
  /// stays movable (it travels through Result<> out of Build). Legacy
  /// last_warnings() only; Execute uses its per-call EvalCtx sink.
  struct WarningSink {
    std::mutex mu;
    std::vector<DegradationWarning> warnings;
  };
  std::shared_ptr<WarningSink> warnings_ =
      std::make_shared<WarningSink>();
  /// Jitter sequence for retry backoff (behind a shared_ptr for the same
  /// movability reason).
  std::shared_ptr<std::atomic<uint64_t>> jitter_seq_ =
      std::make_shared<std::atomic<uint64_t>>(0);
  std::unique_ptr<ThreadPool> pool_;  // null = sequential
  /// Lazily built estimation view (FleetSource in the .cc). Built after
  /// the object has settled at its final address — a member built inside
  /// Build() would dangle when the Result moves the object out.
  std::unique_ptr<EntrySource> fleet_source_;
};

}  // namespace ndq

#endif  // NDQ_DIST_DISTRIBUTED_H_
