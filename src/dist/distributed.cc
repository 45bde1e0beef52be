#include "dist/distributed.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "dist/merge.h"
#include "exec/thread_pool.h"
#include "storage/serde.h"

namespace ndq {

namespace {

// Largest share of a retry backoff the jitter subtracts (RetryPolicy).
constexpr double kBackoffJitter = 0.25;

// SplitMix64: cheap, well-mixed hash for the backoff jitter. Not
// cryptographic — it only has to decorrelate concurrent retry loops.
uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

bool IsLeaf(const Query& query) {
  return query.is_atomic() || query.op() == QueryOp::kLdap;
}

}  // namespace

DirectoryServer::DirectoryServer(std::string name, Dn context,
                                 size_t page_size)
    : name_(std::move(name)),
      context_(std::move(context)),
      disk_(std::make_unique<SimDisk>(page_size)) {}

Result<DistributedDirectory> DistributedDirectory::Build(
    const DirectoryInstance& global, const TopologyConfig& topology) {
  DistributedDirectory dist;
  NDQ_ASSIGN_OR_RETURN(dist.routing_, RoutingTable::Resolve(topology));
  dist.coordinator_disk_ = std::make_unique<SimDisk>(topology.page_size);
  const size_t num_shards = dist.routing_.num_shards();

  // Partition: each entry to the shard with the deepest covering context,
  // by pointer into `global` (key order is kept per shard). Every entry is
  // routed before any replica disk is touched, so an uncovered entry
  // fails the build with nothing allocated.
  std::vector<std::vector<const Entry*>> members(num_shards);
  for (const auto& [key, entry] : global) {
    size_t owner = dist.routing_.OwnerOf(key);
    if (owner == RoutingTable::kNone) {
      return Status::InvalidArgument("no naming context covers entry " +
                                     entry.dn().ToString());
    }
    members[owner].push_back(&entry);
  }

  // Replication: each shard is built once. Replica 0 serializes the
  // shard's entries straight out of `global`, folding no statistics;
  // replicas 1..R-1 are page copies of its segment, each on its own disk.
  // A single-replica shard's replica keeps the plain shard name, so
  // legacy (pre-replication) callers see the same server names they
  // always did.
  for (size_t i = 0; i < num_shards; ++i) {
    std::unique_ptr<Shard> shard(new Shard());
    shard->name_ = dist.routing_.name(i);
    shard->context_ = dist.routing_.context(i);
    const size_t replicas = topology.ReplicasFor(i);
    for (size_t r = 0; r < replicas; ++r) {
      std::string replica_name =
          replicas == 1 ? shard->name_
                        : shard->name_ + "/r" + std::to_string(r);
      auto rep = std::make_unique<DirectoryServer>(
          std::move(replica_name), shard->context_, topology.page_size);
      if (r == 0) {
        size_t next = 0;
        NDQ_ASSIGN_OR_RETURN(
            rep->store_,
            EntryStore::FromEntries(rep->disk_.get(), [&]() -> const Entry* {
              return next < members[i].size() ? members[i][next++] : nullptr;
            }));
      } else {
        NDQ_ASSIGN_OR_RETURN(
            rep->store_,
            shard->replicas_[0]->store_.CopyTo(rep->disk_.get()));
      }
      shard->replicas_.push_back(std::move(rep));
    }
    dist.shards_.push_back(std::move(shard));
  }
  return dist;
}

Shard* DistributedDirectory::FindShard(const std::string& name) {
  for (auto& s : shards_) {
    if (s->name() == name) return s.get();
  }
  return nullptr;
}

std::vector<DirectoryServer*> DistributedDirectory::servers() const {
  std::vector<DirectoryServer*> out;
  for (const auto& s : shards_) {
    for (const auto& r : s->replicas_) out.push_back(r.get());
  }
  return out;
}

DirectoryServer* DistributedDirectory::FindServer(const std::string& name) {
  for (auto& s : shards_) {
    for (auto& r : s->replicas_) {
      if (r->name() == name) return r.get();
    }
  }
  return nullptr;
}

std::vector<std::string> DistributedDirectory::OwnersFor(const Dn& base,
                                                         Scope scope) const {
  std::vector<std::string> out;
  for (size_t i : routing_.OwnersFor(base, scope)) {
    out.push_back(routing_.name(i));
  }
  return out;
}

bool DistributedDirectory::AnyReplicaUp(const Shard& shard) {
  for (const auto& r : shard.replicas_) {
    if (!r->is_down()) return true;
  }
  return false;
}

Status DistributedDirectory::Request(Shard& shard, const Query& query,
                                     bool want_trace, ReplicaAnswer* out) {
  // One request/response attempt against `replica`. Every early exit is
  // clean: a failed evaluation frees its own intermediates, so a retry (or
  // a sibling) starts fresh.
  auto attempt_one = [&](DirectoryServer* replica, bool* refused) -> Status {
    net_.messages += 2;  // request + response
    if (replica->is_down()) {
      *refused = true;
      return Status::Unavailable("replica '" + replica->name() +
                                 "' is down");
    }
    std::lock_guard<std::mutex> replica_lock(replica->mu_);
    // The replica runs the coordinator's evaluator, sequential and
    // uncached, on this thread. Its node scopes claim the replica-side
    // I/O into its own trace, so a failed attempt's I/O is carried over.
    ParallelEvaluator remote(replica->disk(), &replica->store());
    OpTrace attempt;
    Result<EntryList> local =
        remote.Evaluate(query, want_trace ? &attempt : nullptr);
    attempt.io += out->trace.io;
    out->trace = std::move(attempt);
    if (!local.ok()) return local.status();
    // The sorted result STAYS on the replica's disk; the coordinator
    // streams it during the merge (dist/merge.h).
    out->replica = replica;
    out->run = local.TakeValue();
    return Status::OK();
  };

  const size_t num_replicas = shard.replicas_.size();
  // Read load-balancing: each request starts its ring walk one replica
  // past the previous request's start.
  const size_t start =
      shard.next_replica_.fetch_add(1, std::memory_order_relaxed) %
      num_replicas;
  const int max_attempts = std::max(1, retry_policy_.max_attempts);
  Status last = Status::Unavailable("shard '" + shard.name() +
                                    "' has no replicas");
  for (size_t k = 0; k < num_replicas; ++k) {
    DirectoryServer* replica =
        shard.replicas_[(start + k) % num_replicas].get();
    uint64_t backoff = retry_policy_.backoff_micros;
    for (int attempt = 1;; ++attempt) {
      bool refused = false;
      last = attempt_one(replica, &refused);
      if (last.ok()) return last;
      // Only transient (Unavailable) failures are worth another attempt;
      // a corrupted page or a logic error fails immediately, because
      // neither a retry nor a sibling holding the same data can fix it.
      if (last.code() != StatusCode::kUnavailable) return last;
      // A down replica refuses instantly: fail over to a sibling now
      // instead of burning the backoff budget on a known-dead server.
      if (refused || attempt >= max_attempts) break;
      ++out->retries;
      ++net_.retries;
      if (backoff > 0) {
        // Uniform in [0,1): subtracts up to kBackoffJitter * backoff,
        // spreading the retry storms of concurrent sessions apart.
        uint64_t bits = SplitMix64(
            jitter_seq_->fetch_add(1, std::memory_order_relaxed));
        double u = static_cast<double>(bits >> 11) *
                   (1.0 / 9007199254740992.0);
        uint64_t sleep_us =
            backoff - static_cast<uint64_t>(static_cast<double>(backoff) *
                                            kBackoffJitter * u);
        std::this_thread::sleep_for(std::chrono::microseconds(sleep_us));
        backoff *= 2;
      }
    }
    // Failover: abandon this replica for the next one in the ring (if
    // any is left to try).
    if (k + 1 < num_replicas) {
      ++net_.failovers;
      ++out->failovers;
      replica->failovers_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return last;
}

Result<std::optional<EntryList>> DistributedDirectory::Answer(
    const Query& node, OpTrace* trace, const SourceContext& context) {
  // A leaf goes to every shard that owns part of its scope. A (sub)query
  // whose leaves all lie in one shard's exclusive ownership ships whole
  // to that shard; anything else evaluates its operands at the
  // coordinator.
  const bool leaf = IsLeaf(node);
  std::vector<Shard*> owners;
  if (leaf) {
    for (size_t i : routing_.OwnersFor(node.base(), node.scope())) {
      owners.push_back(shards_[i].get());
    }
  } else {
    Shard* owner = query_shipping_ ? SingleOwner(node) : nullptr;
    if (owner == nullptr || !AnyReplicaUp(*owner)) {
      return std::optional<EntryList>();
    }
    owners.push_back(owner);
    ++net_.queries_shipped;
  }
  net_.servers_contacted += owners.size();
  Result<EntryList> gathered = Gather(node, owners, trace, context);
  if (gathered.ok()) return std::optional<EntryList>(gathered.TakeValue());
  if (leaf || gathered.status().code() != StatusCode::kUnavailable) {
    return gathered.status();
  }
  // The shipment failed transiently on every replica, or the coordinator
  // could not take its result in: decline, so the evaluator forks the
  // operands, which request each shard on their own and can degrade
  // instead of failing. The node keeps only the fleet's own accounting.
  if (trace != nullptr) {
    OpTrace declined;
    declined.io = trace->io;
    declined.shipped_records = trace->shipped_records;
    declined.shipped_bytes = trace->shipped_bytes;
    declined.retries = trace->retries;
    declined.failovers = trace->failovers;
    *trace = std::move(declined);
  }
  return std::optional<EntryList>();
}

Result<EntryList> DistributedDirectory::Gather(
    const Query& query, const std::vector<Shard*>& owners, OpTrace* trace,
    const SourceContext& context) {
  // Only a leaf degrades; a shipment that cannot complete declines.
  const bool leaf = IsLeaf(query);
  const bool degradable = leaf && allow_degraded_;
  auto key_fn = [](std::string_view rec) {
    Result<std::string_view> key = PeekEntryKey(rec);
    return key.ok() ? *key : std::string_view();
  };
  // Folds one request into the node's trace: every attempt's I/O (from
  // the replica's trace, whose scopes claimed it), the retries and
  // failovers, and the records scanned, which a leaf sums over shards.
  auto fold = [trace](const ReplicaAnswer& a) {
    if (trace == nullptr) return;
    trace->io += a.trace.io;
    trace->scanned_records += a.trace.scanned_records;
    trace->skipped_pages += a.trace.skipped_pages;
    trace->retries += a.retries;
    trace->failovers += a.failovers;
  };
  auto degrade = [&](size_t i, const Status& why) {
    // The shard stayed unavailable through every replica and retry:
    // degrade. Its contribution is dropped, the reachable shards'
    // results still merge, and the caller sees exactly what is missing
    // via the warnings.
    ++net_.degraded_results;
    if (trace != nullptr) ++trace->degraded_shards;
    context.degradations->Record({owners[i]->name(), why.message()});
  };

  std::vector<char> excluded(owners.size(), 0);
  // The whole scatter-gather restarts when a shard dies mid-merge and
  // degradation is allowed: the dead shard is excluded and the survivors
  // re-fetch (their streams were partially drained). Terminates — every
  // round either returns or excludes at least one shard.
  while (true) {
    // Scatter: one request per live owning shard; on the asking
    // evaluation's pool the shards work concurrently (slot `i` keeps
    // results in owner order, so the merge — and therefore the output —
    // is deterministic). A lone request runs on the asking thread.
    struct PerShard {
      Status status;
      ReplicaAnswer answer;
    };
    std::vector<PerShard> rs(owners.size());
    {
      ThreadPool::TaskGroup group(owners.size() > 1 ? context.pool
                                                    : nullptr);
      for (size_t i = 0; i < owners.size(); ++i) {
        if (excluded[i]) continue;
        group.Run([&, i] {
          rs[i].status = Request(*owners[i], query, trace != nullptr,
                                 &rs[i].answer);
        });
      }
    }
    Status failed;
    for (size_t i = 0; i < owners.size(); ++i) {
      if (excluded[i]) continue;
      PerShard& r = rs[i];
      if (!leaf && r.status.ok() && trace != nullptr) {
        // A shipped subtree keeps the replica evaluator's trace of it
        // (operator counters, operand children); what the node held is
        // folded back in below.
        std::swap(*trace, r.answer.trace);
      }
      fold(r.answer);
      if (r.status.ok()) continue;
      if (degradable && r.status.code() == StatusCode::kUnavailable) {
        degrade(i, r.status);
        excluded[i] = 1;
      } else if (failed.ok()) {
        failed = r.status;
      }
    }
    if (!failed.ok()) {
      for (PerShard& r : rs) {
        if (r.status.ok() && r.answer.replica != nullptr) {
          FreeRun(r.answer.replica->disk(), &r.answer.run).ok();
        }
      }
      return failed;
    }

    // Gather: wrap each answer as a resumable stream. A mid-stream read
    // failure requests the same query again (from a sibling, when the
    // ring walk moves on) and resumes where the stream left off
    // (dist/merge.h).
    std::vector<std::unique_ptr<ShardStream>> streams;
    std::vector<size_t> stream_owner;  // stream index -> owners index
    for (size_t i = 0; i < owners.size(); ++i) {
      if (excluded[i] || !rs[i].status.ok()) continue;
      Shard* shard = owners[i];
      auto refetch = [this, shard, &query, trace,
                      fold]() -> Result<ShardStream::Source> {
        ReplicaAnswer a;
        Status s = Request(*shard, query, trace != nullptr, &a);
        fold(a);
        if (!s.ok()) return s;
        return ShardStream::Source{a.replica->disk(), std::move(a.run)};
      };
      streams.push_back(std::make_unique<ShardStream>(
          shard->name(),
          ShardStream::Source{rs[i].answer.replica->disk(),
                              std::move(rs[i].answer.run)},
          std::move(refetch)));
      stream_owner.push_back(i);
    }
    std::vector<ShardStream*> ptrs;
    ptrs.reserve(streams.size());
    for (auto& s : streams) ptrs.push_back(s.get());

    size_t failed_stream = static_cast<size_t>(-1);
    Result<Run> merged =
        MergeShardStreams(coordinator_disk_.get(), key_fn, ptrs,
                          PageFormat::kKeyPrefix, &failed_stream);
    // Whatever the merge consumed crossed the network, whether or not it
    // completed; a degraded restart re-ships and re-counts honestly.
    for (ShardStream* s : ptrs) {
      net_.records_shipped += s->consumed();
      net_.bytes_shipped += s->bytes_consumed();
      if (trace != nullptr) {
        trace->shipped_records += s->consumed();
        trace->shipped_bytes += s->bytes_consumed();
      }
    }
    if (merged.ok()) return merged;
    for (ShardStream* s : ptrs) s->Close();
    // A failure on the coordinator's side of the streams (failed_stream
    // unset) is no shard's: it never degrades one.
    if (degradable && merged.status().code() == StatusCode::kUnavailable &&
        failed_stream < stream_owner.size()) {
      size_t i = stream_owner[failed_stream];
      degrade(i, merged.status());
      excluded[i] = 1;
      continue;  // re-fetch the survivors and merge again
    }
    return merged.status();
  }
}

Shard* DistributedDirectory::SingleOwner(const Query& query) {
  Shard* owner = nullptr;
  for (const Query* leaf : query.Leaves()) {
    std::vector<size_t> owners =
        routing_.OwnersFor(leaf->base(), leaf->scope());
    if (owners.size() != 1) return nullptr;
    Shard* s = shards_[owners[0]].get();
    if (owner != nullptr && owner != s) return nullptr;
    owner = s;
  }
  return owner;
}

Result<std::vector<Entry>> DistributedDirectory::Execute(
    const Query& query, OpTrace* trace,
    std::vector<DegradationWarning>* warnings) {
  ParallelEvaluator coordinator(coordinator_disk_.get(), this, {},
                                /*cache=*/nullptr, /*shared_pool=*/nullptr,
                                this);
  return coordinator.EvaluateToEntries(query, trace, /*shared=*/nullptr,
                                       warnings);
}

Status DistributedDirectory::ScanRange(std::string_view, std::string_view,
                                       ScanFilters, const RecordFn&,
                                       uint64_t*) const {
  return Status::NotSupported(
      "a fleet answers its leaves by scatter-gather; it is not scannable");
}

uint64_t DistributedDirectory::num_entries() const {
  uint64_t n = 0;
  for (const auto& s : shards_) n += s->num_entries();
  return n;
}

EntrySource::RangeEstimate DistributedDirectory::EstimateRange(
    std::string_view start_key, std::string_view end_key,
    ScanFilters filters) const {
  RangeEstimate total;
  for (const auto& s : shards_) {
    const RangeEstimate one =
        s->replica(0)->store().EstimateRange(start_key, end_key, filters);
    total.pages += one.pages;
    total.records += one.records;
  }
  return total;
}

std::map<std::string, uint64_t> DistributedDirectory::ReplicaFailovers()
    const {
  std::map<std::string, uint64_t> out;
  for (const auto& shard : shards_) {
    for (const auto& r : shard->replicas_) {
      uint64_t n = r->failovers();
      if (n > 0) out[r->name()] = n;
    }
  }
  return out;
}

void DistributedDirectory::ResetStats() {
  net_.Reset();
  coordinator_disk_->ResetStats();
  for (const auto& shard : shards_) {
    for (const auto& r : shard->replicas_) {
      r->disk()->ResetStats();
      r->failovers_.store(0, std::memory_order_relaxed);
    }
  }
}

}  // namespace ndq
