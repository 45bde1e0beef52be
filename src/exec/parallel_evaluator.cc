#include "exec/parallel_evaluator.h"

#include <chrono>
#include <initializer_list>

#include "exec/atomic.h"
#include "exec/boolean.h"
#include "exec/embedded_ref.h"
#include "exec/hierarchy.h"
#include "query/fingerprint.h"

namespace ndq {

namespace {

// On success, protects the freshly produced list while the operand guards
// free, so a failed operand Free cannot leak the output.
Result<EntryList> FinishStep(Disk* disk, Result<EntryList> out,
                             std::initializer_list<ScopedRun*> operands) {
  if (!out.ok()) return out;  // operand guards free via their destructors
  ScopedRun out_guard(disk, out.TakeValue());
  for (ScopedRun* op : operands) NDQ_RETURN_IF_ERROR(op->Free());
  return out_guard.Release();
}

// Mutable stores stamp a mutation version; keying the cache by it keeps
// lists computed against superseded versions from ever serving a query
// pinned to a newer one (the owner's Clear() on mutation is the capacity
// story, this is the correctness story).
std::string VersionedKey(std::string fingerprint, const EntrySource* store) {
  const uint64_t version = store->version();
  if (version != 0) fingerprint += "@" + std::to_string(version);
  return fingerprint;
}

bool IsLeaf(const Query& query) {
  return query.op() == QueryOp::kAtomic || query.op() == QueryOp::kLdap;
}

}  // namespace

IndexProbeSource::IndexProbeSource(Disk* disk,
                                   const AttributeIndexes* indexes,
                                   const EntryStore* store,
                                   std::function<bool(const Query&)> use_probe)
    : disk_(disk),
      indexes_(indexes),
      store_(store),
      use_probe_(std::move(use_probe)) {}

Result<std::optional<EntryList>> IndexProbeSource::Answer(
    const Query& node, OpTrace* trace, const SourceContext&) {
  if (node.op() != QueryOp::kAtomic ||
      (use_probe_ != nullptr && !use_probe_(node))) {
    return std::optional<EntryList>();
  }
  // The probe declines (nullopt) when the attribute is not indexed or the
  // filter kind defeats the index.
  NDQ_ASSIGN_OR_RETURN(std::optional<Run> probed,
                       indexes_->EvalAtomic(disk_, *store_, node.base(),
                                            node.scope(), node.filter()));
  if (probed.has_value() && trace != nullptr) trace->index_probes = 1;
  return probed;
}

ParallelEvaluator::ParallelEvaluator(Disk* disk, const EntrySource* store,
                                     ExecOptions options, OperandCache* cache)
    : ParallelEvaluator(disk, store, options, cache, nullptr) {}

ParallelEvaluator::ParallelEvaluator(Disk* disk, const EntrySource* store,
                                     ExecOptions options, OperandCache* cache,
                                     ThreadPool* shared_pool,
                                     NodeSource* source)
    : disk_(disk),
      store_(store),
      options_(options),
      cache_(cache),
      source_(source),
      owned_pool_(shared_pool == nullptr && options.parallelism > 1
                      ? std::make_unique<ThreadPool>(options.parallelism)
                      : nullptr),
      pool_(shared_pool != nullptr ? shared_pool : owned_pool_.get()) {}

ParallelEvaluator::~ParallelEvaluator() = default;

EvalStats ParallelEvaluator::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

void ParallelEvaluator::ResetStats() {
  std::lock_guard<std::mutex> lock(stats_mu_);
  stats_ = EvalStats();
}

Result<EntryList> ParallelEvaluator::Evaluate(
    const Query& query, OpTrace* trace, const SharedOperands* shared,
    std::vector<DegradationWarning>* warnings) {
  if (warnings != nullptr) warnings->clear();
  if (cache_ != nullptr && cache_->disk() != disk_) {
    return Status::InvalidArgument(
        "operand cache is backed by a different disk than the evaluator");
  }
  if (shared != nullptr && !shared->keys.empty() && cache_ == nullptr) {
    return Status::InvalidArgument(
        "shared-operand evaluation requires an operand cache");
  }
  // Pin one store version for the whole query tree: every leaf — on this
  // thread or a forked worker — reads the same snapshot, so concurrent
  // mutations cannot tear a query across versions. Immutable stores
  // return nullptr and are read directly.
  std::shared_ptr<const EntrySource> snapshot = store_->PinSnapshot();
  DegradationLog degradations;
  Result<EntryList> out = EvaluateTraced(
      query, trace,
      Call{shared, snapshot != nullptr ? snapshot.get() : store_,
           &degradations});
  if (warnings != nullptr) *warnings = degradations.Take();
  return out;
}

Result<std::vector<Entry>> ParallelEvaluator::EvaluateToEntries(
    const Query& query, OpTrace* trace, const SharedOperands* shared,
    std::vector<DegradationWarning>* warnings) {
  NDQ_ASSIGN_OR_RETURN(EntryList list,
                       Evaluate(query, trace, shared, warnings));
  ScopedRun guard(disk_, std::move(list));
  Result<std::vector<Entry>> entries = ReadEntryList(disk_, guard.get());
  Status freed = guard.Free();
  // A read error is the primary failure; a free error only matters when
  // the read itself succeeded.
  if (!entries.ok()) return entries;
  NDQ_RETURN_IF_ERROR(freed);
  return entries;
}

Result<EntryList> ParallelEvaluator::EvaluateTraced(const Query& query,
                                                    OpTrace* trace,
                                                    const Call& call) {
  bool answered = false;
  if (trace == nullptr) return EvaluateNode(query, nullptr, call, &answered);
  *trace = OpTrace();
  const auto start = std::chrono::steady_clock::now();
  IoStats self;
  Result<EntryList> out = [&] {
    // nullptr disk: count this thread's traffic on every device (scratch
    // plus store, when split). Child scopes on this thread nest inside and
    // claim their own I/O; children on other threads never touch this
    // scope. Either way `self` is exactly this node's own traffic.
    IoScope scope(nullptr, &self);
    return EvaluateNode(query, trace, call, &answered);
  }();
  trace->label = QueryNodeLabel(query);
  trace->op = query.op();
  trace->worker = ThreadPool::current_worker_id();
  // The I/O is folded in even when the node failed, so a caller that
  // recovers (the fleet falling back from a failed shipment) still
  // accounts for it. A node the source answered already holds its
  // subtree's I/O and shipping; its children are not added again.
  trace->io += self;
  if (!answered) {
    for (const OpTrace& child : trace->children) {
      trace->io += child.io;
      trace->shipped_records += child.shipped_records;
      trace->shipped_bytes += child.shipped_bytes;
    }
  }
  if (!out.ok()) return out;
  trace->wall_micros = std::chrono::duration<double, std::micro>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  trace->output_records = out->num_records;
  trace->output_pages = out->pages.size();
  return out;
}

Status ParallelEvaluator::EvalOperandInto(const Query& query, OpTrace* trace,
                                          const Call& call, ScopedRun* out) {
  Result<EntryList> r = EvaluateTraced(query, trace, call);
  if (!r.ok()) return r.status();
  *out = ScopedRun(disk_, r.TakeValue());
  return Status::OK();
}

Result<bool> ParallelEvaluator::ServeCached(const std::string& key,
                                            const Query& query,
                                            OpTrace* trace, EntryList* out) {
  NDQ_ASSIGN_OR_RETURN(bool hit, cache_->Lookup(key, out));
  if (hit && trace != nullptr) {
    trace->cache_hits = 1;
    FillTraceSkeleton(query, trace);
  }
  return hit;
}

Result<EntryList> ParallelEvaluator::Publish(const std::string& key,
                                             Result<EntryList> out,
                                             OpTrace* trace) {
  if (!out.ok()) return out;
  // Insert copies the list; injected faults during the copy are absorbed
  // by the cache (the entry is simply not cached). Anything else is an
  // invariant violation — propagate it, but free the computed list first.
  Status cs = cache_->Insert(key, *out);
  if (!cs.ok()) {
    ScopedRun computed(disk_, out.TakeValue());
    return cs;
  }
  if (trace != nullptr) trace->cache_misses = 1;
  return out;
}

Result<EntryList> ParallelEvaluator::EvaluateNode(const Query& query,
                                                  OpTrace* trace,
                                                  const Call& call,
                                                  bool* answered) {
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.operators_evaluated;
  }
  // Cross-query sharing: a node the batch scheduler marked shared — leaf
  // or interior — is served from, and on a miss published to, the operand
  // cache before its source or its operands are touched. The first
  // occurrence in the batch evaluates the subtree; every later one copies
  // the finished list out for ~2*out pages. Membership is by the bare
  // fingerprint (that is what the scheduler computed); fingerprints are
  // recomputed per node, which is cheap for directory-query-sized trees.
  std::string key;
  const SharedOperands* shared = call.shared;
  if (cache_ != nullptr && shared != nullptr && !shared->keys.empty()) {
    std::string fp = QueryFingerprint(query);
    if (shared->contains(fp)) key = VersionedKey(std::move(fp), call.store);
  }
  EntryList cached;
  bool hit = false;
  if (!key.empty()) {
    NDQ_ASSIGN_OR_RETURN(hit, ServeCached(key, query, trace, &cached));
  }
  Result<EntryList> out = cached;
  if (!hit && key.empty()) {
    out = EvaluateUncached(query, trace, call, /*cache_leaf=*/true, answered);
  } else if (!hit) {
    // A shared subtree records into a log of its own, so whether THIS
    // list is partial is known exactly while siblings record concurrently:
    // a partial list is never cached; its warnings still reach the caller.
    DegradationLog subtree;
    out = EvaluateUncached(query, trace,
                           Call{call.shared, call.store, &subtree},
                           /*cache_leaf=*/false, answered);
    std::vector<DegradationWarning> degraded = subtree.Take();
    if (degraded.empty()) out = Publish(key, std::move(out), trace);
    for (DegradationWarning& w : degraded) {
      call.degradations->Record(std::move(w));
    }
  }
  if (out.ok() && IsLeaf(query)) {
    std::lock_guard<std::mutex> lock(stats_mu_);
    ++stats_.atomic_queries;
    stats_.atomic_output_records += out->num_records;
  }
  return out;
}

Result<EntryList> ParallelEvaluator::EvaluateUncached(const Query& query,
                                                      OpTrace* trace,
                                                      const Call& call,
                                                      bool cache_leaf,
                                                      bool* answered) {
  if (source_ != nullptr) {
    std::optional<EntryList> sourced;
    NDQ_ASSIGN_OR_RETURN(
        sourced,
        source_->Answer(query, trace, SourceContext{pool_, call.degradations}));
    if (sourced.has_value()) {
      *answered = true;
      return std::move(*sourced);
    }
  }
  if (IsLeaf(query)) return EvalLeaf(query, trace, call.store, cache_leaf);
  return EvaluateOperator(query, trace, call);
}

Result<EntryList> ParallelEvaluator::EvalLeaf(const Query& query,
                                              OpTrace* trace,
                                              const EntrySource* store,
                                              bool cache_leaf) {
  // A leaf the evaluator scans itself is cached whether or not a batch
  // shares it: any later query may repeat it.
  std::string key;
  if (cache_leaf && cache_ != nullptr) {
    key = VersionedKey(QueryFingerprint(query), store);
    EntryList cached;
    NDQ_ASSIGN_OR_RETURN(bool hit, ServeCached(key, query, trace, &cached));
    if (hit) return cached;
  }
  Result<EntryList> out =
      query.op() == QueryOp::kAtomic
          ? EvalAtomic(disk_, *store, query.base(), query.scope(),
                       query.filter(), trace)
          : EvalLdap(disk_, *store, query.base(), query.scope(),
                     *query.ldap_filter(), trace);
  if (!key.empty()) return Publish(key, std::move(out), trace);
  return out;
}

Result<EntryList> ParallelEvaluator::EvaluateOperator(const Query& query,
                                                      OpTrace* trace,
                                                      const Call& call) {
  OpTrace* t1 = nullptr;
  OpTrace* t2 = nullptr;
  OpTrace* t3 = nullptr;
  if (trace != nullptr) {
    size_t n = (query.q1() != nullptr ? 1 : 0) +
               (query.q2() != nullptr ? 1 : 0) +
               (query.q3() != nullptr ? 1 : 0);
    trace->children.resize(n);
    if (n > 0) t1 = &trace->children[0];
    if (n > 1) t2 = &trace->children[1];
    if (n > 2) t3 = &trace->children[2];
  }

  if (query.op() == QueryOp::kSimpleAgg) {
    // One operand: nothing to fork.
    ScopedRun l1;
    NDQ_RETURN_IF_ERROR(EvalOperandInto(*query.q1(), t1, call, &l1));
    Result<EntryList> out =
        EvalSimpleAgg(disk_, l1.get(), *query.agg(), trace);
    return FinishStep(disk_, std::move(out), {&l1});
  }

  // Multi-operand operators: fork the operand subtrees, join, then run
  // the operator on this thread. The TaskGroup destructor joins EVERY
  // forked subtree before the statuses are read — even when one operand
  // has already failed — so no task is abandoned mid-flight, and the
  // ScopedRun guards free whatever operands did materialize. Errors are
  // then surfaced in operand order (s1, then s2, then s3), which makes
  // the reported status deterministic regardless of which subtree's
  // failure raced in first.
  ScopedRun l1, l2, l3;
  Status s1, s2, s3;
  {
    ThreadPool::TaskGroup group(pool_);
    group.Run([&] { s1 = EvalOperandInto(*query.q1(), t1, call, &l1); });
    group.Run([&] { s2 = EvalOperandInto(*query.q2(), t2, call, &l2); });
    if (query.q3() != nullptr) {
      group.Run([&] { s3 = EvalOperandInto(*query.q3(), t3, call, &l3); });
    }
  }
  NDQ_RETURN_IF_ERROR(s1);
  NDQ_RETURN_IF_ERROR(s2);
  NDQ_RETURN_IF_ERROR(s3);

  Result<EntryList> out = Status::Internal("unreachable");
  switch (query.op()) {
    case QueryOp::kAnd:
    case QueryOp::kOr:
    case QueryOp::kDiff:
      out = EvalBoolean(disk_, query.op(), l1.get(), l2.get(), trace);
      break;
    case QueryOp::kParents:
    case QueryOp::kChildren:
    case QueryOp::kAncestors:
    case QueryOp::kDescendants:
      out = EvalHierarchy(disk_, query.op(), l1.get(), l2.get(), nullptr,
                          query.agg(), options_, trace);
      break;
    case QueryOp::kCoAncestors:
    case QueryOp::kCoDescendants:
      out = EvalHierarchy(disk_, query.op(), l1.get(), l2.get(), &l3.get(),
                          query.agg(), options_, trace);
      break;
    case QueryOp::kValueDn:
    case QueryOp::kDnValue:
      out = EvalEmbeddedRef(disk_, query.op(), l1.get(), l2.get(),
                            query.ref_attr(), query.agg(), options_, trace);
      break;
    default:
      return Status::Internal("unreachable query op in ParallelEvaluator");
  }
  return FinishStep(disk_, std::move(out), {&l1, &l2, &l3});
}

}  // namespace ndq
