#include "exec/parallel_evaluator.h"

#include <chrono>
#include <optional>

#include "exec/atomic.h"
#include "exec/boolean.h"
#include "exec/embedded_ref.h"
#include "exec/hierarchy.h"
#include "query/fingerprint.h"

namespace ndq {

namespace {

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
  if (IsLeaf(query)) {
    Operand leaf(&query, trace);
    EvaluateLeaves({&leaf}, call);
    NDQ_RETURN_IF_ERROR(leaf.status);
    return leaf.list.Release();
  }
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
  // Cross-query sharing: a node the batch scheduler marked shared is
  // served from, and on a miss published to, the operand cache before its
  // source or its operands are touched. The first occurrence in the batch
  // evaluates the subtree; every later one copies the finished list out
  // for ~2*out pages. Membership is by the bare fingerprint (that is what
  // the scheduler computed); fingerprints are recomputed per node, which
  // is cheap for directory-query-sized trees.
  std::string key;
  const SharedOperands* shared = call.shared;
  if (cache_ != nullptr && shared != nullptr && !shared->keys.empty()) {
    std::string fp = QueryFingerprint(query);
    if (shared->contains(fp)) key = VersionedKey(std::move(fp), call.store);
  }
  if (key.empty()) return EvaluateUncached(query, trace, call, answered);
  EntryList cached;
  NDQ_ASSIGN_OR_RETURN(bool hit, ServeCached(key, query, trace, &cached));
  if (hit) return cached;
  // A shared subtree records into a log of its own, so whether THIS list
  // is partial is known exactly while siblings record concurrently: a
  // partial list is never cached; its warnings still reach the caller.
  DegradationLog subtree;
  Result<EntryList> out = EvaluateUncached(
      query, trace, Call{call.shared, call.store, &subtree}, answered);
  std::vector<DegradationWarning> degraded = subtree.Take();
  if (degraded.empty()) out = Publish(key, std::move(out), trace);
  for (DegradationWarning& w : degraded) {
    call.degradations->Record(std::move(w));
  }
  return out;
}

Result<EntryList> ParallelEvaluator::EvaluateUncached(const Query& query,
                                                      OpTrace* trace,
                                                      const Call& call,
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
  return EvaluateOperator(query, trace, call);
}

Result<std::optional<EntryList>> ParallelEvaluator::AnswerLeaf(
    const Query& leaf, OpTrace* trace, const Call& call, std::string* key) {
  // A leaf the evaluator scans itself is cached whether or not a batch
  // shares it: any later query may repeat it. A shared leaf is looked up
  // before its source is asked, like any shared node.
  bool shared = false;
  if (cache_ != nullptr) {
    std::string fp = QueryFingerprint(leaf);
    shared = call.shared != nullptr && call.shared->contains(fp);
    *key = VersionedKey(std::move(fp), call.store);
  }
  EntryList cached;
  if (shared) {
    NDQ_ASSIGN_OR_RETURN(bool hit, ServeCached(*key, leaf, trace, &cached));
    if (hit) return std::optional<EntryList>(cached);
  }
  if (source_ != nullptr) {
    // A shared leaf's source records into a log of its own, so a partial
    // answer is known and never cached; its warnings still reach the
    // caller. A leaf the source answers is cached only when shared.
    DegradationLog own;
    Result<std::optional<EntryList>> sourced = source_->Answer(
        leaf, trace,
        SourceContext{pool_, shared ? &own : call.degradations});
    std::vector<DegradationWarning> degraded = own.Take();
    if (!degraded.empty()) key->clear();
    for (DegradationWarning& w : degraded) {
      call.degradations->Record(std::move(w));
    }
    NDQ_RETURN_IF_ERROR(sourced.status());
    if (sourced->has_value()) {
      if (!shared || key->empty()) return sourced;
      NDQ_ASSIGN_OR_RETURN(EntryList published,
                           Publish(*key, std::move(**sourced), trace));
      return std::optional<EntryList>(published);
    }
  }
  if (!shared && !key->empty()) {
    NDQ_ASSIGN_OR_RETURN(bool hit, ServeCached(*key, leaf, trace, &cached));
    if (hit) return std::optional<EntryList>(cached);
  }
  return std::optional<EntryList>();
}

void ParallelEvaluator::EvaluateLeaves(const std::vector<Operand*>& leaves,
                                       const Call& call) {
  using Clock = std::chrono::steady_clock;
  struct Progress {
    Clock::time_point start;  // traced leaves only
    std::string key;          // where a scanned list is cached ("" = nowhere)
    bool scan = false;        // nothing answered the leaf
  };
  std::vector<Progress> progress(leaves.size());
  // Stamps the trace of a leaf whose list (or error) is final.
  auto finish = [&](size_t i) {
    Operand* leaf = leaves[i];
    OpTrace* trace = leaf->trace;
    if (trace == nullptr) return;
    trace->worker = ThreadPool::current_worker_id();
    if (!leaf->status.ok()) return;
    trace->wall_micros = std::chrono::duration<double, std::micro>(
                             Clock::now() - progress[i].start)
                             .count();
    trace->output_records = leaf->list->num_records;
    trace->output_pages = leaf->list->pages.size();
  };
  auto answer = [&](size_t i) {
    Operand* leaf = leaves[i];
    OpTrace* trace = leaf->trace;
    Result<std::optional<EntryList>> found = std::optional<EntryList>();
    if (trace == nullptr) {
      found = AnswerLeaf(*leaf->query, nullptr, call, &progress[i].key);
    } else {
      // As EvaluateTraced: the source may record I/O into the trace
      // itself, and this thread's own I/O is added to it.
      progress[i].start = Clock::now();
      *trace = OpTrace();
      IoStats self;
      {
        IoScope scope(nullptr, &self);
        found = AnswerLeaf(*leaf->query, trace, call, &progress[i].key);
      }
      trace->label = QueryNodeLabel(*leaf->query);
      trace->op = leaf->query->op();
      trace->io += self;
    }
    if (!found.ok()) {
      leaf->status = found.status();
    } else if (!found->has_value()) {
      progress[i].scan = true;
      return;
    } else {
      leaf->list = ScopedRun(disk_, std::move(**found));
    }
    finish(i);
  };
  if (leaves.size() == 1) {
    answer(0);
  } else {
    // A fleet's source fetches each leaf from its shards: ask at once.
    ThreadPool::TaskGroup group(pool_);
    for (size_t i = 0; i < leaves.size(); ++i) {
      group.Run([&answer, i] { answer(i); });
    }
  }

  // The leaves nothing answered: one pass over the widest of their ranges.
  std::vector<size_t> scanned;
  std::vector<ScanLeaf> scans;
  for (size_t i = 0; i < leaves.size(); ++i) {
    if (!progress[i].scan) continue;
    const Query& q = *leaves[i]->query;
    const bool atomic = q.op() == QueryOp::kAtomic;
    scanned.push_back(i);
    scans.push_back(ScanLeaf{q.scope(), atomic ? &q.filter() : nullptr,
                             atomic ? nullptr : q.ldap_filter().get(),
                             leaves[i]->trace});
  }
  if (!scans.empty()) {
    Result<std::vector<EntryList>> lists =
        ScanLeaves(disk_, *call.store, leaves.front()->query->base(), scans);
    for (size_t j = 0; j < scanned.size(); ++j) {
      const size_t i = scanned[j];
      Operand* leaf = leaves[i];
      if (!lists.ok()) {
        leaf->status = lists.status();
      } else if (progress[i].key.empty()) {
        leaf->list = ScopedRun(disk_, (*lists)[j]);
      } else {
        // The cache's copy is this leaf's I/O. A failed Publish frees the
        // list; the lists after it are guarded on their own turn.
        std::optional<IoScope> scope;
        if (leaf->trace != nullptr) scope.emplace(nullptr, &leaf->trace->io);
        Result<EntryList> published =
            Publish(progress[i].key, (*lists)[j], leaf->trace);
        if (published.ok()) {
          leaf->list = ScopedRun(disk_, published.TakeValue());
        } else {
          leaf->status = published.status();
        }
      }
      finish(i);
    }
  }

  std::lock_guard<std::mutex> lock(stats_mu_);
  for (const Operand* leaf : leaves) {
    ++stats_.operators_evaluated;
    if (!leaf->status.ok()) continue;
    ++stats_.atomic_queries;
    stats_.atomic_output_records += leaf->list->num_records;
  }
}

Result<EntryList> ParallelEvaluator::EvaluateOperator(const Query& query,
                                                      OpTrace* trace,
                                                      const Call& call) {
  std::vector<Operand> operands;
  for (const QueryPtr& q : {query.q1(), query.q2(), query.q3()}) {
    if (q != nullptr) operands.emplace_back(q.get(), nullptr);
  }
  if (trace != nullptr) {
    trace->children.resize(operands.size());
    for (size_t i = 0; i < operands.size(); ++i) {
      operands[i].trace = &trace->children[i];
    }
  }
  // Sibling leaves over one base are one unit, evaluated by one scan.
  std::vector<const Query*> queries;
  for (const Operand& op : operands) queries.push_back(op.query);
  std::vector<std::vector<Operand*>> units;
  for (const std::vector<size_t>& indexes : ScanUnits(queries)) {
    std::vector<Operand*>& unit = units.emplace_back();
    for (size_t i : indexes) unit.push_back(&operands[i]);
  }
  auto run = [&](const std::vector<Operand*>& unit) {
    Operand* op = unit.front();
    if (IsLeaf(*op->query)) return EvaluateLeaves(unit, call);
    op->status = EvalOperandInto(*op->query, op->trace, call, &op->list);
  };
  // Several units fork, join, then the operator runs on this thread. The
  // TaskGroup destructor joins EVERY forked unit before the statuses are
  // read — even when one operand has already failed — so no task is
  // abandoned mid-flight, and the ScopedRun guards free whatever operands
  // did materialize. Errors are then surfaced in operand order, which
  // makes the reported status deterministic regardless of which
  // subtree's failure raced in first.
  if (units.size() == 1) {
    run(units.front());
  } else {
    ThreadPool::TaskGroup group(pool_);
    for (const std::vector<Operand*>& unit : units) {
      group.Run([&run, &unit] { run(unit); });
    }
  }
  for (const Operand& op : operands) NDQ_RETURN_IF_ERROR(op.status);

  const Run& l1 = operands[0].list.get();
  Result<EntryList> out = Status::Internal("unreachable");
  switch (query.op()) {
    case QueryOp::kSimpleAgg:
      out = EvalSimpleAgg(disk_, l1, *query.agg(), trace);
      break;
    case QueryOp::kAnd:
    case QueryOp::kOr:
    case QueryOp::kDiff:
      out = EvalBoolean(disk_, query.op(), l1, operands[1].list.get(), trace);
      break;
    case QueryOp::kParents:
    case QueryOp::kChildren:
    case QueryOp::kAncestors:
    case QueryOp::kDescendants:
      out = EvalHierarchy(disk_, query.op(), l1, operands[1].list.get(),
                          nullptr, query.agg(), options_, trace);
      break;
    case QueryOp::kCoAncestors:
    case QueryOp::kCoDescendants:
      out = EvalHierarchy(disk_, query.op(), l1, operands[1].list.get(),
                          &operands[2].list.get(), query.agg(), options_,
                          trace);
      break;
    case QueryOp::kValueDn:
    case QueryOp::kDnValue:
      out = EvalEmbeddedRef(disk_, query.op(), l1, operands[1].list.get(),
                            query.ref_attr(), query.agg(), options_, trace);
      break;
    default:
      return Status::Internal("unreachable query op in ParallelEvaluator");
  }
  // On success, the output is guarded while the operands free, so a
  // failed operand Free cannot leak it.
  if (!out.ok()) return out;
  ScopedRun out_guard(disk_, out.TakeValue());
  for (Operand& op : operands) NDQ_RETURN_IF_ERROR(op.list.Free());
  return out_guard.Release();
}

}  // namespace ndq
