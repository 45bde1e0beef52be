#include "layers.h"

#include <algorithm>

#include "exec/atomic.h"
#include "exec/common.h"
#include "exec/cost.h"
#include "gen/paper_data.h"
#include "query/optimize.h"
#include "query/parser.h"
#include "query/rewrite.h"
#include "storage/serde.h"
#include "store/directory_store.h"

namespace perfbench {

using namespace ndq;

namespace {

double UsToMs(double us) { return us / 1e3; }

/// Placeholder for a Result a timed lambda assigns.
Status NotRun() { return Status::Internal("not run"); }

/// The key range and scope test of one atomic leaf, as exec/atomic.cc
/// derives them.
struct LeafRange {
  std::string start, end;
  bool InScope(const Query& leaf, std::string_view key) const {
    const std::string& base = leaf.base().HierKey();
    switch (leaf.scope()) {
      case Scope::kBase:
        return key == base;
      case Scope::kOne:
        return key == base || KeyIsParent(base, key);
      case Scope::kSub:
        return KeyInSubtree(base, key);
    }
    return false;
  }
};

LeafRange RangeOf(const Query& leaf) {
  const std::string& base = leaf.base().HierKey();
  LeafRange r;
  r.start = base;
  r.end = leaf.scope() == Scope::kBase ? KeyExactEnd(base)
                                       : KeySubtreeEnd(base);
  return r;
}

bool LeafMatches(const Query& leaf, const Entry& e) {
  return leaf.op() == QueryOp::kLdap ? leaf.ldap_filter()->Matches(e)
                                     : leaf.filter().Matches(e);
}

/// storage + filter breakdown of one leaf over one store: decode pass,
/// then DeserializeEntry and Matches over the in-scope records.
Status BreakDownLeaf(const Query& leaf, const EntrySource& store,
                     Tracer* tracer, uint64_t qid, uint64_t parent,
                     LayerTotals* t) {
  if (leaf.scope() == Scope::kBase && leaf.base().IsNull()) {
    return Status::OK();
  }
  LeafRange range = RangeOf(leaf);
  uint64_t visited = 0, in_scope = 0;
  Status st;
  double decode_us = TimedSpan(tracer, "storage.decode", qid, parent, [&] {
    st = store.ScanRange(range.start, range.end,
                         [&](std::string_view rec) -> Status {
                           NDQ_ASSIGN_OR_RETURN(std::string_view key,
                                                PeekEntryKey(rec));
                           ++visited;
                           if (range.InScope(leaf, key)) ++in_scope;
                           return Status::OK();
                         });
  });
  NDQ_RETURN_IF_ERROR(st);
  t->decode_us += decode_us;
  t->decode_records += visited;

  std::vector<std::string> records;
  NDQ_RETURN_IF_ERROR(store.ScanRange(
      range.start, range.end, [&](std::string_view rec) -> Status {
        NDQ_ASSIGN_OR_RETURN(std::string_view key, PeekEntryKey(rec));
        if (range.InScope(leaf, key)) records.emplace_back(rec);
        return Status::OK();
      }));

  std::vector<Entry> entries;
  entries.reserve(records.size());
  t->deserialize_us +=
      TimedSpan(tracer, "filter.deserialize", qid, parent, [&] {
        for (const std::string& rec : records) {
          Result<Entry> e = DeserializeEntry(rec);
          if (!e.ok()) {
            st = e.status();
            return;
          }
          entries.push_back(e.TakeValue());
        }
      });
  NDQ_RETURN_IF_ERROR(st);
  t->deserialize_records += entries.size();

  uint64_t matched = 0;
  t->match_us += TimedSpan(tracer, "filter.match", qid, parent, [&] {
    for (const Entry& e : entries) matched += LeafMatches(leaf, e) ? 1 : 0;
  });
  t->match_records += entries.size();
  t->matched += matched;
  return Status::OK();
}

/// EvalAtomic / EvalLdap of one leaf over one store; returns microseconds.
Result<double> TimeLeaf(const Query& leaf, const EntrySource& store,
                        Disk* scratch, Tracer* tracer, uint64_t qid,
                        uint64_t parent) {
  Result<EntryList> list = NotRun();
  double us = TimedSpan(tracer, "exec.leaf", qid, parent, [&] {
    list = leaf.op() == QueryOp::kLdap
               ? EvalLdap(scratch, store, leaf.base(), leaf.scope(),
                          *leaf.ldap_filter())
               : EvalAtomic(scratch, store, leaf.base(), leaf.scope(),
                            leaf.filter());
  });
  if (!list.ok()) return list.status();
  EntryList run = list.TakeValue();
  NDQ_RETURN_IF_ERROR(FreeRun(scratch, &run));
  return us;
}

}  // namespace

LayerReplayer::LayerReplayer(Engine* engine, Tracer* tracer)
    : engine_(engine),
      tracer_(tracer),
      scratch_(std::make_unique<SimDisk>(kDefaultPageSize)) {
  if (engine_->fleet() == nullptr) {
    evaluator_ = std::make_unique<ParallelEvaluator>(
        scratch_.get(), &engine_->store(), ExecOptions{}, nullptr);
  }
}

LayerReplayer::~LayerReplayer() = default;

Status LayerReplayer::Replay(Session* session, const GenQuery& q,
                             uint64_t qid, LayerTotals* t) {
  ScopedSpan root(tracer_, "replay", qid);
  const uint64_t parent = root.id();

  // The traced phase just cached this query's leaves; replay the engine
  // call cold, like the layer calls below.
  engine_->InvalidateCaches();
  QueryOutcome outcome;
  double run_us = TimedSpan(tracer_, "engine.run", qid, parent,
                            [&] { outcome = session->Run(q.text); });
  NDQ_RETURN_IF_ERROR(outcome.status);

  // query: the planning pipeline Session::Submit runs.
  QueryPtr plan;
  double plan_us = 0;
  {
    ScopedSpan span(tracer_, "query.plan", qid, parent);
    std::shared_ptr<const EntrySource> pinned = engine_->store().PinSnapshot();
    const EntrySource& view = pinned != nullptr ? *pinned : engine_->store();
    Result<QueryPtr> parsed = NotRun();
    TimedSpan(tracer_, "query.parse", qid, span.id(),
              [&] { parsed = ParseQuery(q.text); });
    NDQ_RETURN_IF_ERROR(parsed.status());
    TimedSpan(tracer_, "query.rewrite", qid, span.id(),
              [&] { plan = RewriteQuery(*parsed); });
    if (engine_->optimize()) {
      TimedSpan(tracer_, "query.optimize", qid, span.id(),
                [&] { plan = OptimizeQuery(view, plan).plan; });
    }
    double est = 0;
    TimedSpan(tracer_, "query.estimate", qid, span.id(),
              [&] { est = EstimateCost(view, *plan).TotalPages(); });
    (void)est;
    plan_us = span.End();
  }
  t->plan_us.Add(plan_us);

  const std::vector<const Query*> leaves = plan->Leaves();
  double replayed_us = plan_us;
  double leaf_us = 0;

  if (DistributedDirectory* fleet = engine_->fleet()) {
    // dist: the fleet's scatter-gather evaluation of the same plan.
    Result<std::vector<Entry>> r = NotRun();
    double exec_us = TimedSpan(tracer_, "dist.execute", qid, parent,
                               [&] { r = fleet->Execute(*plan); });
    NDQ_RETURN_IF_ERROR(r.status());
    if (r->size() != outcome.entries.size()) {
      return Status::Internal("replayed fleet result differs: " + q.text);
    }
    t->dist_execute_ms[ClassName(q.cls)].Add(UsToMs(exec_us));
    replayed_us += exec_us;
    // Leaves run on the owning shards' replicas.
    for (const Query* leaf : leaves) {
      for (const std::string& name :
           fleet->OwnersFor(leaf->base(), leaf->scope())) {
        Shard* shard = fleet->FindShard(name);
        if (shard == nullptr) return Status::Internal("no shard " + name);
        const EntrySource& store = shard->replica(0)->store();
        NDQ_ASSIGN_OR_RETURN(double us, TimeLeaf(*leaf, store, scratch_.get(),
                                                 tracer_, qid, parent));
        leaf_us += us;
        NDQ_RETURN_IF_ERROR(
            BreakDownLeaf(*leaf, store, tracer_, qid, parent, t));
      }
    }
    t->leaf_ms.Add(UsToMs(leaf_us));
  } else {
    // exec: whole-plan evaluation, then each leaf alone, then the
    // result's materialisation.
    Result<EntryList> list = NotRun();
    double eval_us = TimedSpan(tracer_, "exec.evaluate", qid, parent,
                               [&] { list = evaluator_->Evaluate(*plan); });
    NDQ_RETURN_IF_ERROR(list.status());
    ScopedRun result(scratch_.get(), list.TakeValue());
    Result<std::vector<Entry>> entries = NotRun();
    double mat_us = TimedSpan(tracer_, "exec.materialize", qid, parent, [&] {
      entries = ReadEntryList(scratch_.get(), result.get());
    });
    NDQ_RETURN_IF_ERROR(entries.status());
    NDQ_RETURN_IF_ERROR(result.Free());
    if (entries->size() != outcome.entries.size()) {
      return Status::Internal("replayed local result differs: " + q.text);
    }
    t->materialize_us += mat_us;
    t->materialized += entries->size();
    replayed_us += eval_us + mat_us;

    for (const Query* leaf : leaves) {
      NDQ_ASSIGN_OR_RETURN(double us,
                           TimeLeaf(*leaf, engine_->store(), scratch_.get(),
                                    tracer_, qid, parent));
      leaf_us += us;
      NDQ_RETURN_IF_ERROR(
          BreakDownLeaf(*leaf, engine_->store(), tracer_, qid, parent, t));
    }
    t->leaf_ms.Add(UsToMs(leaf_us));
    t->operator_ms.Add(UsToMs(std::max(0.0, eval_us - leaf_us)));
  }
  t->overhead_ms.Add(UsToMs(run_us - replayed_us));
  ++t->replayed;
  return Status::OK();
}

Status ProbeStore(const DirectoryInstance& inst, Tracer* tracer,
                  StoreProbe* out) {
  const uint64_t qid = 0;
  std::vector<const Entry*> entries;
  for (const auto& [key, entry] : inst) entries.push_back(&entry);

  // Volatile: the engine's owned store is this, minus the engine.
  SimDisk disk(kDefaultPageSize);
  DirectoryStore store(&disk, gen::PaperSchema());
  std::vector<double> put_us;
  for (const Entry* e : entries) {
    Status st;
    put_us.push_back(TimedSpan(tracer, "store.put", qid, 0,
                               [&] { st = store.Put(*e); }));
    NDQ_RETURN_IF_ERROR(st);
  }
  for (double us : put_us) out->put_us.Add(us);
  for (int size : {2048, 4096, 8192}) {
    size_t end = std::min<size_t>(size, put_us.size());
    if (end < 1024) continue;
    Samples window;
    for (size_t i = end - 1024; i < end; ++i) window.Add(put_us[i]);
    out->put_us_at[size] = window.Median();
  }

  // Durable: the same op stream with every Put committed to the WAL.
  {
    SimDisk wal_disk(kDefaultPageSize);
    NDQ_ASSIGN_OR_RETURN(std::unique_ptr<DirectoryStore> durable,
                         DirectoryStore::CreateDurable(&wal_disk,
                                                       gen::PaperSchema()));
    for (const Entry* e : entries) {
      Status st;
      out->durable_put_us.Add(TimedSpan(tracer, "store.durable_put", qid, 0,
                                        [&] { st = durable->Put(*e); }));
      NDQ_RETURN_IF_ERROR(st);
    }
    durable->WaitForMaintenance();
    out->wal_records = durable->wal_records();
  }

  // Merged scan over memtable + segments versus one bulk-loaded segment;
  // best of three passes each.
  store.WaitForMaintenance();
  SimDisk bulk_disk(kDefaultPageSize);
  NDQ_ASSIGN_OR_RETURN(EntryStore bulk, EntryStore::BulkLoad(&bulk_disk, inst));
  auto best_scan = [&](const EntrySource& src, const char* name,
                       double* us_per_rec) -> Status {
    double best = 0;
    for (int pass = 0; pass < 3; ++pass) {
      uint64_t n = 0;
      Status st;
      double us = TimedSpan(tracer, name, qid, 0, [&] {
        st = src.ScanRange("", "", [&](std::string_view) -> Status {
          ++n;
          return Status::OK();
        });
      });
      NDQ_RETURN_IF_ERROR(st);
      if (n == 0) return Status::Internal("empty scan");
      if (pass == 0 || us / n < best) best = us / n;
    }
    *us_per_rec = best;
    return Status::OK();
  };
  NDQ_RETURN_IF_ERROR(
      best_scan(store, "store.scan_lsm", &out->scan_lsm_us_per_rec));
  NDQ_RETURN_IF_ERROR(
      best_scan(bulk, "store.scan_bulk", &out->scan_bulk_us_per_rec));
  return Status::OK();
}

}  // namespace perfbench
