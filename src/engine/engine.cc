#include "engine/engine.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <optional>
#include <utility>

#include "exec/cost.h"
#include "query/fingerprint.h"
#include "query/optimize.h"
#include "query/parser.h"
#include "query/rewrite.h"
#include "storage/file_disk.h"

namespace ndq {

namespace internal {

struct TicketState {
  QueryPtr plan;
  std::shared_ptr<const SharedOperands> shared;
  OptimizeStats opt;  ///< what the optimizer did to `plan`
  double estimated_pages = 0;  ///< the cost admission judged `plan` by

  mutable std::mutex mu;
  mutable std::condition_variable cv;
  bool done = false;
  QueryOutcome outcome;

  void Complete(QueryOutcome out) {
    {
      std::lock_guard<std::mutex> lock(mu);
      outcome = std::move(out);
      done = true;
    }
    cv.notify_all();
  }

  const QueryOutcome& Wait() const {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done; });
    return outcome;
  }

  bool IsDone() const {
    std::lock_guard<std::mutex> lock(mu);
    return done;
  }
};

/// One session's admission state. Submissions become "chains": at most
/// max_inflight pool tasks run at once, each evaluating queries and then
/// pulling the next waiting one, so a full pool never strands a queue and
/// no worker ever blocks waiting for admission (which could deadlock a
/// pool whose workers are all gatekeeping).
class SessionImpl : public std::enable_shared_from_this<SessionImpl> {
 public:
  explicit SessionImpl(Engine* engine) : engine_(engine) {}

  QueryTicket Submit(const std::string& text) {
    Result<QueryPtr> parsed = ParseQuery(text);
    if (!parsed.ok()) {
      return DoneTicket(nullptr, parsed.status(), {}, 0,
                        /*count_rejected=*/false);
    }
    return Submit(*parsed);
  }

  QueryTicket Submit(const QueryPtr& plan) {
    QueryPtr canonical = engine_->rewrite() ? RewriteQuery(plan) : plan;
    OptimizeStats opt;
    std::optional<double> est;
    if (engine_->optimize_enabled()) {
      // Plan over a pinned view so the optimizer's statistics reads stay
      // on one store version while concurrent mutations publish.
      std::shared_ptr<const EntrySource> view = engine_->PinStore();
      OptimizedPlan optimized = OptimizeQuery(*view, canonical);
      canonical = optimized.plan;
      opt = optimized.stats;
      est = optimized.est_pages_after;
    }
    return SubmitCanonical(std::move(canonical), nullptr, opt, est);
  }

  BatchResult RunBatch(std::vector<Result<QueryPtr>> parsed) {
    BatchResult br;
    br.outcomes.resize(parsed.size());

    std::vector<QueryPtr> canon(parsed.size());
    std::vector<OptimizeStats> opts(parsed.size());
    std::vector<std::optional<double>> ests(parsed.size());
    std::vector<QueryPtr> valid;
    // One pinned view for the whole batch's planning pass.
    std::shared_ptr<const EntrySource> view = engine_->PinStore();
    for (size_t i = 0; i < parsed.size(); ++i) {
      if (!parsed[i].ok()) continue;
      canon[i] = engine_->rewrite() ? RewriteQuery(*parsed[i]) : *parsed[i];
      // Optimize BEFORE the sharing census: reordering rebuilds operand
      // permutations into one canonical left-deep shape, so the census
      // sees them as the same sub-plan and shares it.
      if (engine_->optimize_enabled()) {
        OptimizedPlan optimized = OptimizeQuery(*view, canon[i]);
        canon[i] = optimized.plan;
        opts[i] = optimized.stats;
        ests[i] = optimized.est_pages_after;
      }
      valid.push_back(canon[i]);
    }
    view.reset();

    // The sharing census over the canonical batch, and one precompute
    // pass so every shared subtree is materialized exactly once before
    // any query runs (queries then only ever hit).
    PlanCensus census = AnalyzeBatch(valid);
    br.stats.shared_subtrees = census.shared.size();
    br.stats.shared_occurrences = census.TotalOccurrences();
    OperandCache* cache = engine_->cache();
    std::shared_ptr<const SharedOperands> shared;
    OperandCacheStats before;
    if (!census.shared.empty() && cache != nullptr) {
      before = cache->stats();
      shared = std::make_shared<const SharedOperands>(
          SharedOperands{census.SharedKeys()});
      engine_->PrecomputeShared(census.maximal, shared);
    }

    std::vector<QueryTicket> tickets(parsed.size());
    for (size_t i = 0; i < parsed.size(); ++i) {
      if (!parsed[i].ok()) continue;
      tickets[i] = SubmitCanonical(canon[i], shared, opts[i], ests[i]);
    }
    for (size_t i = 0; i < parsed.size(); ++i) {
      if (!parsed[i].ok()) {
        br.outcomes[i].status = parsed[i].status();
        continue;
      }
      br.outcomes[i] = TakeOutcome(tickets[i]);
      for (const DegradationWarning& w : br.outcomes[i].warnings) {
        if (w.source == "admission") {
          ++br.stats.rejected;
          break;
        }
      }
    }
    if (shared != nullptr) {
      OperandCacheStats after = cache->stats();
      br.stats.cache_hits = after.hits - before.hits;
      br.stats.cache_misses = after.misses - before.misses;
    }
    return br;
  }

  /// Waits for the ticket and moves its outcome out (batch tickets are
  /// owned exclusively by RunBatch, so the move cannot race a reader).
  QueryOutcome TakeOutcome(const QueryTicket& ticket) {
    ticket.state_->Wait();
    std::lock_guard<std::mutex> lock(ticket.state_->mu);
    return std::move(ticket.state_->outcome);
  }

  UpdateResult Apply(const UpdateBatch& batch) {
    return engine_->ApplyUpdates(batch);
  }

  void Drain() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return inflight_ == 0 && waiting_.empty(); });
  }

  SessionStats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }

 private:
  /// Admission + enqueue of an already-canonical, already-optimized plan;
  /// `est_pages` is the optimizer's estimate of it, when the optimizer
  /// ran (the cost model is asked otherwise).
  QueryTicket SubmitCanonical(QueryPtr plan,
                              std::shared_ptr<const SharedOperands> shared,
                              const OptimizeStats& opt,
                              std::optional<double> est_pages) {
    const double est =
        est_pages.has_value()
            ? *est_pages
            : EstimateCost(*engine_->PinStore(), *plan).TotalPages();
    const uint64_t budget = engine_->page_budget();
    if (budget > 0 && est > static_cast<double>(budget)) {
      DegradationWarning w{
          "admission", "estimated " + std::to_string((uint64_t)est) +
                           " pages exceeds the per-query budget of " +
                           std::to_string(budget)};
      return DoneTicket(std::move(plan),
                        Status::ResourceExhausted(w.ToString()), {w}, est,
                        /*count_rejected=*/true);
    }

    auto state = std::make_shared<TicketState>();
    state->plan = std::move(plan);
    state->shared = std::move(shared);
    state->opt = opt;
    state->estimated_pages = est;
    bool dispatch = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      const size_t depth = engine_->options().queue_depth;
      if (inflight_ + waiting_.size() >= depth) {
        ++stats_.rejected;
        DegradationWarning w{"admission",
                             "session queue depth " +
                                 std::to_string(depth) + " exceeded"};
        QueryOutcome out;
        out.status = Status::ResourceExhausted(w.ToString());
        out.plan = std::move(state->plan);
        out.warnings.push_back(std::move(w));
        out.estimated_pages = est;
        state->Complete(std::move(out));
        return QueryTicket(std::move(state));
      }
      ++stats_.submitted;
      const size_t max_inflight =
          std::max<size_t>(1, engine_->options().max_inflight);
      if (inflight_ < max_inflight) {
        ++inflight_;
        dispatch = true;
      } else {
        waiting_.push_back(state);
      }
    }
    if (dispatch) {
      auto self = shared_from_this();
      engine_->Dispatch([self, state] { self->Chain(state); });
    }
    return QueryTicket(std::move(state));
  }

  /// One dispatched task: evaluate, deliver, pull the next waiting query.
  void Chain(std::shared_ptr<TicketState> state) {
    while (state != nullptr) {
      QueryOutcome out =
          engine_->ExecuteQuery(state->plan, state->shared.get());
      out.estimated_pages = state->estimated_pages;
      out.optimizer = state->opt;
      out.trace.plan_rewrites = state->opt.Total();
      state->Complete(std::move(out));
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++stats_.completed;
      }
      state = PullNext();
    }
  }

  std::shared_ptr<TicketState> PullNext() {
    std::unique_lock<std::mutex> lock(mu_);
    if (!waiting_.empty()) {
      std::shared_ptr<TicketState> next = waiting_.front();
      waiting_.pop_front();
      return next;
    }
    --inflight_;
    lock.unlock();
    cv_.notify_all();
    return nullptr;
  }

  /// An already-completed ticket (parse errors, admission rejections).
  QueryTicket DoneTicket(QueryPtr plan, Status status,
                         std::vector<DegradationWarning> warnings, double est,
                         bool count_rejected) {
    auto state = std::make_shared<TicketState>();
    QueryOutcome out;
    out.status = std::move(status);
    out.plan = std::move(plan);
    out.warnings = std::move(warnings);
    out.estimated_pages = est;
    state->Complete(std::move(out));
    if (count_rejected) {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.rejected;
    }
    return QueryTicket(std::move(state));
  }

  Engine* const engine_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::shared_ptr<TicketState>> waiting_;
  size_t inflight_ = 0;  // chains currently dispatched
  SessionStats stats_;
};

}  // namespace internal

// ---------------------------------------------------------------------------
// QueryTicket / Session
// ---------------------------------------------------------------------------

bool QueryTicket::done() const {
  return state_ != nullptr && state_->IsDone();
}

const QueryOutcome& QueryTicket::Wait() const {
  static const QueryOutcome kInvalid = [] {
    QueryOutcome out;
    out.status = Status::InvalidArgument("invalid (default) QueryTicket");
    return out;
  }();
  if (state_ == nullptr) return kInvalid;
  return state_->Wait();
}

namespace {

QueryTicket InvalidSessionTicket() {
  // Reuse the invalid-ticket path: a default ticket waits to an
  // InvalidArgument outcome.
  return QueryTicket();
}

}  // namespace

QueryTicket Session::Submit(const std::string& query_text) {
  if (impl_ == nullptr) return InvalidSessionTicket();
  return impl_->Submit(query_text);
}

QueryTicket Session::Submit(const QueryPtr& plan) {
  if (impl_ == nullptr) return InvalidSessionTicket();
  return impl_->Submit(plan);
}

QueryOutcome Session::Run(const std::string& query_text) {
  return Submit(query_text).Wait();
}

QueryOutcome Session::Run(const QueryPtr& plan) {
  return Submit(plan).Wait();
}

Result<std::vector<Entry>> Session::Query(const std::string& query_text) {
  QueryOutcome out = Run(query_text);
  if (!out.ok()) return out.status;
  return std::move(out.entries);
}

BatchResult Session::RunBatch(const std::vector<std::string>& query_texts) {
  std::vector<Result<QueryPtr>> parsed;
  parsed.reserve(query_texts.size());
  for (const std::string& text : query_texts) parsed.push_back(ParseQuery(text));
  return RunBatchParsed(std::move(parsed));
}

BatchResult Session::RunBatch(const std::vector<QueryPtr>& plans) {
  std::vector<Result<QueryPtr>> parsed;
  parsed.reserve(plans.size());
  for (const QueryPtr& plan : plans) {
    if (plan == nullptr) {
      parsed.push_back(Status::InvalidArgument("null plan in batch"));
    } else {
      parsed.push_back(plan);
    }
  }
  return RunBatchParsed(std::move(parsed));
}

BatchResult Session::RunBatchParsed(std::vector<Result<QueryPtr>> parsed) {
  if (impl_ == nullptr) {
    BatchResult br;
    br.outcomes.resize(parsed.size());
    for (QueryOutcome& out : br.outcomes) {
      out.status = Status::InvalidArgument("session not opened");
    }
    return br;
  }
  return impl_->RunBatch(std::move(parsed));
}

UpdateResult Session::Apply(const UpdateBatch& batch) {
  if (impl_ == nullptr) {
    UpdateResult res;
    res.status = Status::InvalidArgument("session not opened");
    return res;
  }
  return impl_->Apply(batch);
}

void Session::Drain() {
  if (impl_ != nullptr) impl_->Drain();
}

SessionStats Session::stats() const {
  if (impl_ == nullptr) return SessionStats();
  return impl_->stats();
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

namespace {

/// Builds one engine-owned disk per EngineOptions::disk_backend
/// ("" = $NDQ_DISK_BACKEND, then "sim"). File-backed disks live under
/// $NDQ_FILE_DISK_DIR (default /tmp) and are unlinked immediately after
/// opening — the fd keeps the storage alive for the engine's lifetime
/// and nothing ever leaks into the filesystem.
std::unique_ptr<Disk> MakeOwnedDisk(const EngineOptions& options,
                                    const char* role) {
  std::string backend = options.disk_backend;
  if (backend.empty()) {
    const char* env = std::getenv("NDQ_DISK_BACKEND");
    if (env != nullptr) backend = env;
  }
  if (backend != "file") return std::make_unique<SimDisk>(kDefaultPageSize);

  static std::atomic<uint64_t> seq{0};
  const char* dir = std::getenv("NDQ_FILE_DISK_DIR");
  std::string path = std::string(dir != nullptr ? dir : "/tmp") + "/ndq-" +
                     role + "-" + std::to_string(::getpid()) + "-" +
                     std::to_string(seq.fetch_add(1)) + ".pages";
  auto disk = std::make_unique<FileDisk>(path, kDefaultPageSize);
  if (disk->init_status().ok()) ::unlink(path.c_str());
  return disk;
}

}  // namespace

Engine::Engine(Schema schema, EngineOptions options)
    : owned_data_disk_(MakeOwnedDisk(options, "data")),
      owned_scratch_(MakeOwnedDisk(options, "scratch")),
      owned_store_(std::make_unique<DirectoryStore>(owned_data_disk_.get(),
                                                    std::move(schema))),
      scratch_(owned_scratch_.get()),
      data_disk_(owned_data_disk_.get()),
      store_(owned_store_.get()),
      options_(std::move(options)) {
  Init();
}

Engine::Engine(Disk* scratch, const EntrySource* store,
               EngineOptions options, Disk* data_disk)
    : scratch_(scratch),
      data_disk_(data_disk),
      store_(store),
      options_(std::move(options)) {
  Init();
}

namespace {

/// Stand-in store for an engine whose build failed: planning over it is
/// harmless (everything estimates to zero) and evaluation never happens —
/// ExecuteQuery short-circuits on init_status() first.
class NullSource : public EntrySource {
 public:
  Status ScanRange(std::string_view, std::string_view, ScanFilters,
                   const RecordFn&, uint64_t*) const override {
    return Status::Internal("engine failed to initialize");
  }
  uint64_t num_entries() const override { return 0; }
  RangeEstimate EstimateRange(std::string_view, std::string_view,
                              ScanFilters) const override {
    return {};
  }
};

}  // namespace

Engine::Engine(const DirectoryInstance& global, EngineOptions options)
    : options_(std::move(options)) {
  if (options_.backend == EngineBackend::kDistributed) {
    Result<DistributedDirectory> built =
        DistributedDirectory::Build(global, options_.topology);
    if (built.ok()) {
      fleet_ = std::make_unique<DistributedDirectory>(built.TakeValue());
      scratch_ = fleet_->coordinator_disk();
      store_ = fleet_.get();
    } else {
      init_status_ = built.status();
    }
  } else {
    owned_data_disk_ = MakeOwnedDisk(options_, "data");
    owned_scratch_ = MakeOwnedDisk(options_, "scratch");
    Result<EntryStore> loaded =
        EntryStore::BulkLoad(owned_data_disk_.get(), global);
    if (loaded.ok()) {
      owned_entry_store_ =
          std::make_unique<EntryStore>(loaded.TakeValue());
      scratch_ = owned_scratch_.get();
      data_disk_ = owned_data_disk_.get();
      store_ = owned_entry_store_.get();
    } else {
      init_status_ = loaded.status();
    }
  }
  if (!init_status_.ok()) {
    if (owned_scratch_ == nullptr) {
      owned_scratch_ = std::make_unique<SimDisk>(kDefaultPageSize);
    }
    null_source_ = std::make_unique<NullSource>();
    scratch_ = owned_scratch_.get();
    store_ = null_source_.get();
  }
  Init();
}

void Engine::Init() {
  // $NDQ_OPTIMIZE=on|off (also 1|0) overrides the constructed default,
  // mirroring $NDQ_DISK_BACKEND — CI's lever for running the whole suite
  // with the optimizer off without touching each test.
  if (const char* env = std::getenv("NDQ_OPTIMIZE")) {
    std::string v = env;
    if (v == "off" || v == "0") options_.optimize = false;
    if (v == "on" || v == "1") options_.optimize = true;
  }
  if (options_.cache_capacity_pages > 0) {
    cache_ =
        std::make_unique<OperandCache>(scratch_, options_.cache_capacity_pages);
  }
  {
    std::lock_guard<std::mutex> lock(sched_mu_);
    RebuildPoolLocked(options_.exec.parallelism == 0
                          ? 1
                          : options_.exec.parallelism);
  }
  if (!options_.fault_spec.empty()) {
    // A bad spec at construction leaves fault injection off; call
    // SetFaults directly to observe the parse error.
    SetFaults(options_.fault_spec).ok();
  }
  if (options_.io_depth > 0) SetIoDepth(options_.io_depth);
  if (owned_store_ != nullptr) {
    // Threshold-triggered flush/compaction runs on the engine's pool
    // (inline when workerless) with engine-wide in-flight accounting, so
    // Drain() and the destructor wait for maintenance like any query.
    owned_store_->SetMaintenanceExecutor(
        [this](std::function<void()> task) { Dispatch(std::move(task)); });
  }
}

Engine::~Engine() {
  Drain();
  AttachInjector(nullptr);
}

void Engine::RebuildPoolLocked(size_t parallelism) {
  // Order matters: the group and evaluator borrow the pool.
  evaluator_.reset();
  group_.reset();
  pool_.reset();
  options_.exec.parallelism = parallelism;
  // A session thread blocks on its ticket instead of helping the pool
  // (unlike a direct ParallelEvaluator caller), so delivering
  // `parallelism` concurrent evaluation threads takes that many WORKERS —
  // a ThreadPool of parallelism+1. With parallelism 1 the pool stays
  // workerless and dispatch runs inline on the submitting thread.
  pool_ = std::make_unique<ThreadPool>(parallelism <= 1 ? 1
                                                        : parallelism + 1);
  group_ = std::make_unique<ThreadPool::TaskGroup>(pool_.get());
  // A fleet answers every leaf (fanning its shard fetches out on this
  // same pool); a local store's leaves are range-scanned.
  evaluator_ = std::make_unique<ParallelEvaluator>(
      scratch_, store_, options_.exec, cache_.get(), pool_.get(),
      fleet_.get());
}

Session Engine::OpenSession() {
  return Session(std::make_shared<internal::SessionImpl>(this));
}

void Engine::SetParallelism(size_t n) {
  if (n == 0) n = 1;
  std::unique_lock<std::mutex> lock(sched_mu_);
  sched_cv_.wait(lock, [&] { return global_inflight_ == 0; });
  RebuildPoolLocked(n);
}

size_t Engine::parallelism() const {
  std::lock_guard<std::mutex> lock(sched_mu_);
  // Invert the worker-count adjustment in RebuildPoolLocked.
  size_t p = pool_->parallelism();
  return p <= 1 ? 1 : p - 1;
}

Status Engine::SetFaults(const std::string& spec) {
  std::unique_lock<std::mutex> lock(sched_mu_);
  sched_cv_.wait(lock, [&] { return global_inflight_ == 0; });
  if (spec.empty() || spec == "off") {
    AttachInjector(nullptr);
    injector_.reset();
    options_.fault_spec.clear();
    return Status::OK();
  }
  NDQ_ASSIGN_OR_RETURN(FaultInjector parsed, FaultInjector::Parse(spec));
  AttachInjector(nullptr);
  injector_ = std::make_unique<FaultInjector>(std::move(parsed));
  AttachInjector(injector_.get());
  options_.fault_spec = spec;
  return Status::OK();
}

void Engine::SetPageBudget(uint64_t pages) {
  std::lock_guard<std::mutex> lock(sched_mu_);
  options_.per_query_page_budget = pages;
}

void Engine::SetOptimize(bool on) {
  std::lock_guard<std::mutex> lock(sched_mu_);
  options_.optimize = on;
}

bool Engine::optimize() const {
  std::lock_guard<std::mutex> lock(sched_mu_);
  return options_.optimize;
}

bool Engine::optimize_enabled() const { return optimize(); }

void Engine::SetIoDepth(size_t n) {
  std::unique_lock<std::mutex> lock(sched_mu_);
  sched_cv_.wait(lock, [&] { return global_inflight_ == 0; });
  scratch_->SetIoDepth(n);
  if (data_disk_ != nullptr && data_disk_ != scratch_) {
    data_disk_->SetIoDepth(n);
  }
  if (fleet_ != nullptr) {
    for (DirectoryServer* server : fleet_->servers()) {
      server->disk()->SetIoDepth(n);
    }
  }
  options_.io_depth = n;
}

size_t Engine::io_depth() const {
  std::lock_guard<std::mutex> lock(sched_mu_);
  return options_.io_depth;
}

uint64_t Engine::page_budget() const {
  std::lock_guard<std::mutex> lock(sched_mu_);
  return options_.per_query_page_budget;
}

std::shared_ptr<const EntrySource> Engine::PinStore() const {
  std::shared_ptr<const EntrySource> snap = store_->PinSnapshot();
  if (snap != nullptr) return snap;
  // Immutable store: a non-owning alias so callers hold one handle type.
  return std::shared_ptr<const EntrySource>(std::shared_ptr<void>(), store_);
}

UpdateResult Engine::ApplyUpdates(const UpdateBatch& batch) {
  UpdateResult res;
  if (fleet_ != nullptr) {
    res.status = Status::InvalidArgument(
        "distributed engines are read-only: the fleet's replicas are "
        "bulk-loaded copies of one instance; rebuild the engine to change "
        "the data");
    return res;
  }
  if (owned_store_ == nullptr) {
    res.status = Status::InvalidArgument(
        "engine has no mutable store (borrowing mode); mutate the "
        "borrowed store through its owner");
    return res;
  }
  res = owned_store_->Apply(batch);
  // Version-stamped cache keys already keep stale lists from serving new
  // queries; clearing reclaims their pages promptly.
  if (res.applied > 0) InvalidateCaches();
  return res;
}

void Engine::InvalidateCaches() {
  if (cache_ != nullptr) cache_->Clear();
}

void Engine::Drain() {
  std::unique_lock<std::mutex> lock(sched_mu_);
  sched_cv_.wait(lock, [&] { return global_inflight_ == 0; });
}

EvalStats Engine::eval_stats() const {
  std::lock_guard<std::mutex> lock(sched_mu_);
  return evaluator_->stats();
}

void Engine::AttachInjector(FaultInjector* injector) {
  scratch_->set_fault_injector(injector);
  if (data_disk_ != nullptr) data_disk_->set_fault_injector(injector);
  if (fleet_ != nullptr) {
    for (DirectoryServer* server : fleet_->servers()) {
      server->disk()->set_fault_injector(injector);
    }
  }
}

void Engine::Dispatch(std::function<void()> body) {
  ThreadPool::TaskGroup* group;
  {
    std::lock_guard<std::mutex> lock(sched_mu_);
    ++global_inflight_;
    group = group_.get();
  }
  // With no pool workers this runs `body` inline on the calling thread;
  // the in-flight counter was already published, so a concurrent
  // SetParallelism cannot swap the pool out from under it.
  group->Run([this, body = std::move(body)] {
    body();
    std::lock_guard<std::mutex> lock(sched_mu_);
    --global_inflight_;
    sched_cv_.notify_all();
  });
}

QueryOutcome Engine::ExecuteQuery(const QueryPtr& plan,
                                  const SharedOperands* shared) {
  QueryOutcome out;
  out.plan = plan;
  if (!init_status_.ok()) {
    out.status = init_status_;
    return out;
  }
  Result<std::vector<Entry>> r = evaluator_->EvaluateToEntries(
      *plan, &out.trace, shared, &out.warnings);
  out.trace.io_depth = scratch_->io_depth();
  if (!r.ok()) {
    out.status = r.status();
    return out;
  }
  out.entries = r.TakeValue();
  return out;
}

void Engine::PrecomputeShared(const std::vector<QueryPtr>& roots,
                              std::shared_ptr<const SharedOperands> shared) {
  if (cache_ == nullptr || roots.empty()) return;
  struct Sync {
    std::mutex mu;
    std::condition_variable cv;
    size_t remaining;
  };
  auto sync = std::make_shared<Sync>();
  sync->remaining = roots.size();
  for (const QueryPtr& root : roots) {
    Dispatch([this, root, shared, sync] {
      // Evaluating the root with the shared set publishes it — and any
      // nested shared subtree — to the cache as a side effect; the list
      // itself is not needed. Failures (e.g. injected faults) are
      // absorbed: the queries will recompute whatever went uncached.
      Result<EntryList> r = evaluator_->Evaluate(*root, nullptr, shared.get());
      if (r.ok()) {
        ScopedRun guard(scratch_, r.TakeValue());
        guard.Free().ok();
      }
      {
        std::lock_guard<std::mutex> lock(sync->mu);
        --sync->remaining;
      }
      sync->cv.notify_all();
    });
  }
  std::unique_lock<std::mutex> lock(sync->mu);
  sync->cv.wait(lock, [&] { return sync->remaining == 0; });
}

}  // namespace ndq
