#include "dist/distributed.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "dist/merge.h"
#include "exec/atomic.h"
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
  // shard's entries straight out of `global`; replicas 1..R-1 are page
  // copies of its segment, each on its own disk, sharing its StoreStats.
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

Status DistributedDirectory::FetchAtomicFromShard(Shard& shard,
                                                  const Query& query,
                                                  bool want_trace,
                                                  ShardFetch* out) {
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
    OpTrace server_trace;
    OpTrace* st = want_trace ? &server_trace : nullptr;
    Result<EntryList> local =
        query.op() == QueryOp::kLdap
            ? EvalLdap(replica->disk(), replica->store(), query.base(),
                       query.scope(), *query.ldap_filter(), st)
            : EvalAtomic(replica->disk(), replica->store(), query.base(),
                         query.scope(), query.filter(), st);
    out->scanned_records = server_trace.scanned_records;
    if (!local.ok()) return local.status();
    // The sorted result STAYS on the replica's disk; the coordinator
    // streams it during the merge (dist/merge.h).
    out->replica = replica;
    out->run = local.TakeValue();
    return Status::OK();
  };

  const size_t num_replicas = shard.replicas_.size();
  // Read load-balancing: each fetch starts its ring walk one replica past
  // the previous fetch's start.
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
  if (node.is_atomic() || node.op() == QueryOp::kLdap) {
    NDQ_ASSIGN_OR_RETURN(EntryList merged,
                         EvaluateAtomicDistributed(node, trace, context));
    return std::optional<EntryList>(std::move(merged));
  }
  // A (sub)query whose leaves all lie in one shard's exclusive ownership
  // ships whole; anything else evaluates its operands at the coordinator.
  Shard* owner = query_shipping_ ? SingleOwner(node) : nullptr;
  if (owner == nullptr || !AnyReplicaUp(*owner)) {
    return std::optional<EntryList>();
  }
  Result<EntryList> whole = ShipWholeQuery(node, owner, trace);
  if (whole.ok()) return std::optional<EntryList>(whole.TakeValue());
  if (whole.status().code() != StatusCode::kUnavailable) {
    return whole.status();
  }
  // Every replica failed the shipment transiently mid-flight: fall back to
  // the operands, which retry each shard independently and can degrade
  // instead of failing.
  ++net_.retries;
  return std::optional<EntryList>();
}

Result<EntryList> DistributedDirectory::EvaluateAtomicDistributed(
    const Query& query, OpTrace* trace, const SourceContext& context) {
  std::vector<size_t> owner_idx =
      routing_.OwnersFor(query.base(), query.scope());
  net_.servers_contacted += owner_idx.size();
  std::vector<Shard*> owners;
  owners.reserve(owner_idx.size());
  for (size_t idx : owner_idx) owners.push_back(shards_[idx].get());

  auto key_fn = [](std::string_view rec) {
    Result<std::string_view> key = PeekEntryKey(rec);
    return key.ok() ? *key : std::string_view();
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
    // Scatter: issue the atomic query to every live owning shard; on the
    // asking evaluation's pool the shards work concurrently (slot `i`
    // keeps results in owner order, so the merge — and therefore the
    // output — is deterministic).
    struct PerShard {
      Status status;
      ShardFetch fetch;
      IoStats io;
      bool fetched = false;
    };
    std::vector<PerShard> rs(owners.size());
    {
      ThreadPool::TaskGroup group(context.pool);
      for (size_t i = 0; i < owners.size(); ++i) {
        if (excluded[i]) continue;
        group.Run([&, i] {
          PerShard& r = rs[i];
          // Scope the task's I/O (the replica-side scan) so it reaches
          // this leaf's trace even when the task ran on a pool worker.
          IoScope scope(nullptr, &r.io);
          r.status = FetchAtomicFromShard(*owners[i], query,
                                          trace != nullptr, &r.fetch);
          r.fetched = r.status.ok();
        });
      }
    }
    Status failed;
    for (size_t i = 0; i < owners.size(); ++i) {
      if (excluded[i]) continue;
      PerShard& r = rs[i];
      if (trace != nullptr) {
        trace->scanned_records += r.fetch.scanned_records;
        trace->retries += r.fetch.retries;
        trace->failovers += r.fetch.failovers;
        trace->io += r.io;
      }
      if (r.status.ok()) continue;
      if (allow_degraded_ && r.status.code() == StatusCode::kUnavailable) {
        degrade(i, r.status);
        excluded[i] = 1;
      } else if (failed.ok()) {
        failed = r.status;
      }
    }
    if (!failed.ok()) {
      for (PerShard& r : rs) {
        if (r.fetched) FreeRun(r.fetch.replica->disk(), &r.fetch.run).ok();
      }
      return failed;
    }

    // Gather: wrap each fetched run as a resumable stream. A mid-merge
    // read failure re-fetches the same result from a sibling replica and
    // resumes where the stream left off (dist/merge.h).
    std::vector<std::unique_ptr<ShardStream>> streams;
    std::vector<size_t> stream_owner;  // stream index -> owners index
    for (size_t i = 0; i < owners.size(); ++i) {
      if (excluded[i] || !rs[i].fetched) continue;
      Shard* shard = owners[i];
      auto refetch =
          [this, shard, &query,
           trace](uint64_t) -> Result<ShardStream::Source> {
        ShardFetch f;
        Status s =
            FetchAtomicFromShard(*shard, query, trace != nullptr, &f);
        if (trace != nullptr) {
          trace->scanned_records += f.scanned_records;
          trace->retries += f.retries;
          trace->failovers += f.failovers;
        }
        if (!s.ok()) return s;
        return ShardStream::Source{f.replica->disk(), std::move(f.run)};
      };
      streams.push_back(std::make_unique<ShardStream>(
          shard->name(),
          ShardStream::Source{rs[i].fetch.replica->disk(),
                              std::move(rs[i].fetch.run)},
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
    if (allow_degraded_ &&
        merged.status().code() == StatusCode::kUnavailable &&
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

Result<EntryList> DistributedDirectory::ShipWholeQuery(const Query& query,
                                                       Shard* shard,
                                                       OpTrace* trace) {
  // The chosen replica evaluates the whole tree locally (on its own disk
  // and scratch space) and only the final result crosses the network.
  ++net_.queries_shipped;
  ++net_.servers_contacted;
  auto attempt_one = [&](DirectoryServer* server) -> Result<EntryList> {
    net_.messages += 2;
    if (server->is_down()) {
      return Status::Unavailable("replica '" + server->name() +
                                 "' is down");
    }
    std::lock_guard<std::mutex> server_lock(server->mu_);
    // The replica runs the same evaluator, sequential and uncached, on
    // this thread: its trace nodes carry this thread's worker id.
    ParallelEvaluator remote(server->disk(), &server->store());
    NDQ_ASSIGN_OR_RETURN(EntryList local, remote.Evaluate(query, trace));
    ScopedRun local_guard(server->disk(), std::move(local));
    RunWriter writer(coordinator_disk_.get(), PageFormat::kKeyPrefix);
    RunReader reader(server->disk(), local_guard.get());
    std::string rec;
    uint64_t recs = 0, bytes = 0;
    while (true) {
      NDQ_ASSIGN_OR_RETURN(bool more, reader.Next(&rec));
      if (!more) break;
      bytes += rec.size();
      ++recs;
      NDQ_RETURN_IF_ERROR(writer.Add(rec));
    }
    net_.bytes_shipped += bytes;
    net_.records_shipped += recs;
    if (trace != nullptr) {
      // The remote evaluator filled `trace` (children included); the
      // final-result shipment is recorded here.
      trace->shipped_records = recs;
      trace->shipped_bytes = bytes;
    }
    NDQ_RETURN_IF_ERROR(local_guard.Free());
    return writer.Finish();
  };

  const size_t num_replicas = shard->replicas_.size();
  const size_t start =
      shard->next_replica_.fetch_add(1, std::memory_order_relaxed) %
      num_replicas;
  uint64_t failovers = 0;
  // The remote evaluator's node scopes claim its I/O into `trace`, which
  // each attempt overwrites; an abandoned attempt's I/O is carried here.
  IoStats failed_io;
  Status last = Status::Unavailable("shard '" + shard->name() +
                                    "' has no replicas");
  for (size_t k = 0; k < num_replicas; ++k) {
    DirectoryServer* server =
        shard->replicas_[(start + k) % num_replicas].get();
    if (trace != nullptr) *trace = OpTrace();
    Result<EntryList> out = attempt_one(server);
    if (out.ok()) {
      if (trace != nullptr) {
        trace->failovers += failovers;
        trace->io += failed_io;
      }
      return out;
    }
    if (trace != nullptr) failed_io += trace->io;
    last = out.status();
    if (last.code() != StatusCode::kUnavailable) return last;
    if (k + 1 < num_replicas) {
      ++net_.failovers;
      ++failovers;
      server->failovers_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (trace != nullptr) {
    *trace = OpTrace();
    trace->io = failed_io;
  }
  return last;
}

Result<std::vector<Entry>> DistributedDirectory::Execute(
    const Query& query, OpTrace* trace,
    std::vector<DegradationWarning>* warnings) {
  ParallelEvaluator coordinator(coordinator_disk_.get(), this, {},
                                /*cache=*/nullptr, pool_.get(), this);
  return coordinator.EvaluateToEntries(query, trace, /*shared=*/nullptr,
                                       warnings);
}

Status DistributedDirectory::ScanRange(
    std::string_view, std::string_view,
    const std::function<Status(std::string_view)>&) const {
  return Status::NotSupported(
      "a fleet answers its leaves by scatter-gather; it is not scannable");
}

uint64_t DistributedDirectory::num_entries() const {
  uint64_t n = 0;
  for (const auto& s : shards_) n += s->num_entries();
  return n;
}

uint64_t DistributedDirectory::EstimateRangeRecords(
    std::string_view start_key, std::string_view end_key) const {
  uint64_t n = 0;
  for (const auto& s : shards_) {
    n += s->replica(0)->store().EstimateRangeRecords(start_key, end_key);
  }
  return n;
}

uint64_t DistributedDirectory::EstimateRangePages(
    std::string_view start_key, std::string_view end_key) const {
  uint64_t n = 0;
  for (const auto& s : shards_) {
    n += s->replica(0)->store().EstimateRangePages(start_key, end_key);
  }
  return n;
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

void DistributedDirectory::set_parallelism(size_t n) {
  if (n <= 1) {
    pool_.reset();
    return;
  }
  pool_ = std::make_unique<ThreadPool>(n);
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
