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
// delegate shards as well (as a DNS resolver would chase referrals).
//
// The coordinator computes the result with the ordinary evaluator
// (exec/parallel_evaluator.h): the fleet is a long-lived node source of
// that evaluator. It answers a leaf by sending it to every owning shard,
// and a subtree one shard owns alone by shipping it whole to that shard.
// Both are the same replica request: it goes to one replica of the shard
// — reads round-robin across the replica set, retries a transient
// failure, and a down or failing replica FAILS OVER to a sibling — and the
// replica evaluates it with the same evaluator. The sorted results stay on
// the replicas and are consumed incrementally by a k-way merge at the
// coordinator (dist/merge.h) — sortedness is preserved end to end, so the
// coordinator's operator algorithms run unchanged. The fleet is also the
// evaluator's estimation view of the data (an EntrySource that estimates
// but does not scan).
//
// Everything is simulated in-process: every replica has its own SimDisk
// (I/O accounted per replica) and the "network" counts messages and
// bytes shipped.
//
// Frontends do not call this class directly: construct an ndq::Engine
// with EngineOptions{backend = EngineBackend::kDistributed, topology} and
// evaluate through Sessions (engine/engine.h). The engine's one evaluator,
// operand cache and pool then serve the fleet exactly as they serve a
// local store: admission control, planning and batch sharing are the
// same code.

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
#include "exec/parallel_evaluator.h"
#include "query/ast.h"

namespace ndq {

/// Network accounting for distributed evaluation. Counters are relaxed
/// atomics so concurrent sub-plan shipping and concurrent evaluations
/// (Engine sessions) keep the accounting exact.
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
/// uniform jitter of up to a quarter of the delay (decorrelating the
/// retry storms of concurrent sessions). Only after the attempts are
/// exhausted does the request FAIL OVER to the next replica of the shard;
/// a replica that refuses because it is down fails over immediately —
/// retrying a known-down server would just burn the backoff budget.
struct RetryPolicy {
  int max_attempts = 3;
  uint64_t backoff_micros = 100;
};

// DegradationWarning (core/degradation.h) is attached to evaluations that
// returned a partial result: `source` names the shard whose contribution
// is missing, `detail` carries the last failure (e.g. "replica 'org0/r1'
// is down"). The fleet records it in the asking evaluation's log
// (SourceContext), which ParallelEvaluator::Evaluate and
// DistributedDirectory::Execute return as `warnings`.

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
  /// One outstanding request per replica: parallelism in the coordinator
  /// comes from fanning out ACROSS shards, while each replica's own
  /// evaluation stays sequential. Tracing does not need it
  /// (IoScope attribution is per thread); dropping it changes throughput
  /// and is to be measured on its own.
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

/// \brief A fleet of replicated shards plus a coordinator: the node
/// source and the estimation view of a coordinator evaluator. Safe under
/// concurrent evaluations; each Answer's SourceContext carries the
/// per-evaluation state (pool, degradation log).
class DistributedDirectory : public NodeSource, public EntrySource {
 public:
  /// Partitions `global` across the topology's shards — each entry goes
  /// to the shard with the deepest context that is an ancestor-or-self of
  /// the entry's dn — and builds each shard once: replica 0's segment is
  /// serialized from the shard's entries in `global`, and every other
  /// replica gets a page copy of it on its own disk. No replica folds
  /// statistics: the coordinator plans from range geometry alone. After a
  /// build, replica 0's disk counts the copies' page reads. An entry
  /// matching no context fails the build with InvalidArgument before any
  /// replica page is allocated.
  static Result<DistributedDirectory> Build(const DirectoryInstance& global,
                                            const TopologyConfig& topology);

  /// Names of the shards whose data an atomic query at (base, scope) can
  /// touch: the owner of the base dn plus, for subtree scopes, every
  /// delegate whose context lies under the base (dist/topology.h).
  std::vector<std::string> OwnersFor(const Dn& base, Scope scope) const;

  /// Distributed bottom-up evaluation; the result materializes at the
  /// coordinator. A thin wrapper: a sequential, uncached
  /// ParallelEvaluator on the coordinator disk with the fleet as its node
  /// source — what an Engine runs, without the Engine (whose pool is the
  /// one that fans a fleet out). Safe to call concurrently. A non-null
  /// `trace` receives the per-operator execution trace (exec/trace.h):
  /// I/O is summed over every disk in the fleet (coordinator + replicas),
  /// and every node the fleet answered additionally records the
  /// records/bytes shipped across the simulated network plus the retries
  /// and replica failovers its requests needed.
  /// A non-null `warnings` receives this call's DegradationWarnings
  /// (empty when the result is complete).
  Result<std::vector<Entry>> Execute(
      const Query& query, OpTrace* trace = nullptr,
      std::vector<DegradationWarning>* warnings = nullptr);

  /// NodeSource: a leaf is requested from every owning shard (fanned out
  /// on `context.pool`); a (sub)query a single shard exclusively owns
  /// ships whole to it through the same request (set_query_shipping);
  /// anything else is declined, so the evaluator forks its operands. A
  /// leaf's shard that stays unavailable through every replica and retry
  /// degrades the answer into `context.degradations`
  /// (set_allow_degraded); a shipment that cannot complete is declined.
  Result<std::optional<EntryList>> Answer(
      const Query& node, OpTrace* trace,
      const SourceContext& context) override;

  /// EntrySource, for estimation only (ScanRange is NotSupported): the
  /// shards' own estimates summed, still upper bounds on the merged
  /// directory since entries live on exactly one shard. No merged
  /// statistics (stats() stays nullptr): the optimizer only uses the
  /// shards' range geometry.
  using EntrySource::ScanRange;
  Status ScanRange(std::string_view start_key, std::string_view end_key,
                   ScanFilters filters, const RecordFn& fn,
                   uint64_t* skipped_pages) const override;
  uint64_t num_entries() const override;
  RangeEstimate EstimateRange(std::string_view start_key,
                              std::string_view end_key,
                              ScanFilters filters) const override;

  /// When enabled (default), a (sub)query whose atomic leaves all fall
  /// within ONE shard's exclusive ownership is shipped to a replica of
  /// that shard whole — it evaluates there with the usual algorithms and
  /// only the FINAL result crosses the network. This is the natural
  /// refinement of Sec. 8.3's atomic-result shipping for subtree-local
  /// queries (compare the two modes in bench_distributed).
  void set_query_shipping(bool enabled) { query_shipping_ = enabled; }

  /// The single shard that exclusively covers every leaf of `query`, or
  /// nullptr if the query spans shards. Exposed for tests.
  Shard* SingleOwner(const Query& query);

  /// Transient-failure handling knobs (see RetryPolicy).
  void set_retry_policy(RetryPolicy policy) { retry_policy_ = policy; }

  /// When enabled (the default), an atomic query whose owning shard stays
  /// Unavailable through every replica and retry yields a PARTIAL result
  /// — the reachable shards' contributions, with one DegradationWarning
  /// per missing shard — instead of failing the whole query. Disable to
  /// get fail-stop semantics (the Unavailable status propagates).
  void set_allow_degraded(bool enabled) { allow_degraded_ = enabled; }

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

 private:
  DistributedDirectory() = default;

  /// One replica request: `query` (a leaf, or a subtree `shard` owns
  /// alone) evaluated on one replica of `shard` by the replica's own
  /// sequential, uncached evaluator. The ring walk starts round-robin,
  /// retries a transient failure per RetryPolicy, then fails over to the
  /// next replica. On success `run` is the sorted result ON `replica`'s
  /// disk (the coordinator streams it, dist/merge.h). `trace` is the last
  /// attempt's replica trace with `io` summed over every attempt (filled
  /// only when `want_trace`); it and the counters are filled in success
  /// and failure alike.
  struct ReplicaAnswer {
    DirectoryServer* replica = nullptr;
    Run run;
    OpTrace trace;
    uint64_t retries = 0;
    uint64_t failovers = 0;
  };
  Status Request(Shard& shard, const Query& query, bool want_trace,
                 ReplicaAnswer* out);

  /// Sends `query` to every shard of `owners` and merges their sorted
  /// results at the coordinator. A leaf's shard that stays unavailable
  /// degrades into `context`'s log (when allowed); a shipment's fails the
  /// call, with the replica-side accounting folded into `trace` either way.
  Result<EntryList> Gather(const Query& query,
                           const std::vector<Shard*>& owners, OpTrace* trace,
                           const SourceContext& context);

  /// True when at least one replica of `shard` is up.
  static bool AnyReplicaUp(const Shard& shard);

  std::vector<std::unique_ptr<Shard>> shards_;
  RoutingTable routing_;
  std::unique_ptr<SimDisk> coordinator_disk_;
  NetStats net_;
  bool query_shipping_ = true;
  RetryPolicy retry_policy_;
  bool allow_degraded_ = true;
  /// Jitter sequence for retry backoff, behind a shared_ptr so
  /// DistributedDirectory stays movable (it travels through Result<> out
  /// of Build).
  std::shared_ptr<std::atomic<uint64_t>> jitter_seq_ =
      std::make_shared<std::atomic<uint64_t>>(0);
};

}  // namespace ndq

#endif  // NDQ_DIST_DISTRIBUTED_H_
