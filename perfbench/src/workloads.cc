#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <thread>

#include "engine/engine.h"
#include "gen/paper_data.h"
#include "layers.h"
#include "query/parser.h"
#include "query/reference.h"
#include "storage/serde.h"

namespace perfbench {

using namespace ndq;

const char* ClassName(QueryClass c) {
  switch (c) {
    case QueryClass::kSub:
      return "sub";
    case QueryClass::kOrg:
      return "org";
    case QueryClass::kHier:
      return "hier";
    case QueryClass::kL3:
      return "l3";
    case QueryClass::kJoin:
      return "join";
    case QueryClass::kGlobal:
      return "global";
  }
  return "?";
}

namespace {

// Set-up is repeated and its median reported, so one slow build on a
// noisy host does not decide setup_s.
constexpr int kSetupRepeats = 3;
// Queries run before timing starts; their results are checked against
// the reference evaluator at full size.
constexpr int kWarmupQueries = 40;
// fleet_open: the offered rate and the session count (E21's mix runs
// below the fleet's measured knee of 80-95 qps at this size).
constexpr double kFleetQps = 40.0;
constexpr size_t kFleetWorkers = 4;
// A run whose achieved rate falls below this share of the offered rate
// had a growing backlog; its percentiles would describe the backlog, not
// the system.
constexpr double kMinAchievedShare = 0.95;
// Traced runs replay queries through the layers for at most this long.
constexpr double kReplaySeconds = 15.0;

int Uniform(std::mt19937& rng, int lo, int hi) {  // [lo, hi)
  return lo + static_cast<int>(rng() % static_cast<uint32_t>(hi - lo));
}

std::string Str(int v) { return std::to_string(v); }

std::string OrgDn(int o) { return "dc=org" + Str(o) + ", dc=com"; }

std::string SubDn(const gen::DifOptions& d, int o, int s) {
  return "dc=sub" + Str(o * d.subdomains_per_org + s) + ", " + OrgDn(o);
}

std::string Leaf(const std::string& base, const std::string& filter) {
  return "(" + base + " ? sub ? " + filter + ")";
}

/// A CANumber prefix matching ten numbers of global subdomain `g`
/// (dif_gen numbers call appearances serially across subdomains).
std::string CaPrefix(const gen::DifOptions& d, int g, std::mt19937& rng) {
  const int per_sub =
      d.subscribers_per_domain * d.qhps_per_subscriber * d.cas_per_qhp;
  const int serial = g * per_sub + Uniform(rng, 0, per_sub);
  std::string number = "973" + Str(1000000 + serial);
  number.back() = '*';
  return number;
}

EngineOptions BaseOptions() {
  EngineOptions opt;
  // In-process simulated disks: the benchmark reads and writes nothing
  // outside its own process.
  opt.disk_backend = "sim";
  return opt;
}

EngineOptions FleetOptions(const gen::DifOptions& dif) {
  EngineOptions opt = BaseOptions();
  opt.backend = EngineBackend::kDistributed;
  opt.topology = TopologyConfig::Parse(FleetTopology(dif, 2)).TakeValue();
  return opt;
}

std::string Serialized(const std::vector<Entry>& entries) {
  std::string out;
  for (const Entry& e : entries) SerializeEntry(e, &out);
  return out;
}

std::string Serialized(const std::vector<const Entry*>& entries) {
  std::string out;
  for (const Entry* e : entries) SerializeEntry(*e, &out);
  return out;
}

/// The reference evaluator's answer to `text` over `inst`, serialized.
Result<std::string> ReferenceBytes(const std::string& text,
                                   const DirectoryInstance& inst) {
  NDQ_ASSIGN_OR_RETURN(QueryPtr q, ParseQuery(text));
  NDQ_ASSIGN_OR_RETURN(std::vector<const Entry*> ref,
                       EvaluateReference(*q, inst));
  return Serialized(ref);
}

/// Runs `q` and checks the result bytes against the reference evaluator.
void CheckAgainstReference(Session* session, const std::string& text,
                           const DirectoryInstance& inst, RunStatus* status) {
  QueryOutcome out = session->Run(text);
  Result<std::string> ref = ReferenceBytes(text, inst);
  if (!out.ok() || !ref.ok()) {
    status->Fail("query failed: " + text + ": " +
                 (out.ok() ? ref.status() : out.status).ToString());
  } else if (Serialized(out.entries) != *ref) {
    status->Fail("result differs from the reference: " + text);
  }
}

/// The validation set: queries of both read workloads over a small
/// directory of the same shape, run on a local and a fleet engine; both
/// answers must be byte-identical to the reference evaluator's.
void ValidateBackends(uint32_t seed, Report* report, RunStatus* status) {
  gen::DifOptions dif = LocalDif(seed);
  dif.subscribers_per_domain = 40;
  const DirectoryInstance inst = gen::GenerateDif(dif);
  Engine local(inst, BaseOptions());
  Engine fleet(inst, FleetOptions(dif));
  if (!local.init_status().ok() || !fleet.init_status().ok()) {
    status->Fail("validation engines failed to build");
    return;
  }
  Session ls = local.OpenSession();
  Session fs = fleet.OpenSession();
  std::vector<std::string> texts;
  LocalMixStream local_stream(dif, seed ^ 0x5a17u);
  for (int i = 0; i < 48; ++i) texts.push_back(local_stream.Next().text);
  FleetStream fleet_stream(dif, seed ^ 0xf1e7u);
  for (int i = 0; i < 16; ++i) texts.push_back(fleet_stream.Next().text);
  size_t nonempty = 0;
  for (const std::string& text : texts) {
    Result<std::string> ref = ReferenceBytes(text, inst);
    QueryOutcome lo = ls.Run(text);
    QueryOutcome fo = fs.Run(text);
    if (!ref.ok() || !lo.ok() || !fo.ok()) {
      status->Fail("validation query failed: " + text);
      continue;
    }
    if (Serialized(lo.entries) != *ref) {
      status->Fail("local result differs from the reference: " + text);
    }
    if (Serialized(fo.entries) != *ref) {
      status->Fail("fleet result differs from the reference: " + text);
    }
    nonempty += ref->empty() ? 0 : 1;
  }
  report->Detail("validation_queries", static_cast<double>(texts.size()));
  report->Detail("validation_nonempty", static_cast<double>(nonempty));
}

/// Latencies of one measured phase.
struct Latencies {
  Samples all_ms;
  std::map<QueryClass, Samples> by_class;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t pages = 0;  // page transfers the queries' traces attribute
  double seconds = 0;

  void Add(QueryClass c, double ms, bool ok, uint64_t transfers) {
    ++attempted;
    pages += transfers;
    if (!ok) {
      // A failure misses every latency limit.
      ++failed;
      ms = 1e12;
    }
    all_ms.Add(ms);
    by_class[c].Add(ms);
  }
  Samples Sub() const {
    auto it = by_class.find(QueryClass::kSub);
    return it == by_class.end() ? Samples() : it->second;
  }
  Samples Heavy() const {
    Samples s;
    for (const auto& [c, samples] : by_class) {
      if (IsHeavy(c)) s.Append(samples);
    }
    return s;
  }
};

void ReportQueries(const Latencies& lat, double completed_qps, Report* r) {
  const Samples sub = lat.Sub();
  const Samples heavy = lat.Heavy();
  r->Metric("qps", completed_qps, "1/s", lat.all_ms.size());
  r->Metric("lat_p50_ms", lat.all_ms.Percentile(0.50), "ms", lat.all_ms.size());
  r->Metric("lat_p99_ms", lat.all_ms.Percentile(0.99), "ms", lat.all_ms.size());
  r->Metric("sub_p50_ms", sub.Percentile(0.50), "ms", sub.size());
  r->Metric("sub_p95_ms", sub.Percentile(0.95), "ms", sub.size());
  r->Metric("heavy_p50_ms", heavy.Percentile(0.50), "ms", heavy.size());
  r->Metric("io_pages_per_query",
            lat.attempted == 0 ? 0 : double(lat.pages) / lat.attempted,
            "count", lat.attempted);
  for (const auto& [c, samples] : lat.by_class) {
    r->Detail(std::string("class_") + ClassName(c) + "_n",
              static_cast<double>(samples.size()));
    r->Detail(std::string("class_") + ClassName(c) + "_p50_ms",
              samples.Median());
  }
}

void ReportSetup(const Samples& setup_s, Report* r) {
  r->Metric("setup_s", setup_s.Median(), "s", setup_s.size());
}

uint64_t LeafScanned(const OpTrace& t) {
  uint64_t n = t.scanned_records;
  for (const OpTrace& c : t.children) n += LeafScanned(c);
  return n;
}

/// Counters a traced phase reads before and after.
struct CounterSnapshot {
  uint64_t page_reads = 0;
  uint64_t cache_hits = 0, cache_misses = 0;
  uint64_t messages = 0, records_shipped = 0, servers_contacted = 0;
};

CounterSnapshot Snap(Engine* engine) {
  CounterSnapshot s;
  if (DistributedDirectory* fleet = engine->fleet()) {
    for (DirectoryServer* server : fleet->servers()) {
      s.page_reads += server->disk()->stats().page_reads;
    }
    const NetStats& net = fleet->net_stats();
    s.messages = net.messages;
    s.records_shipped = net.records_shipped;
    s.servers_contacted = net.servers_contacted;
  } else if (engine->data_disk() != nullptr) {
    s.page_reads = engine->data_disk()->stats().page_reads;
  }
  if (OperandCache* cache = engine->cache()) {
    OperandCacheStats cs = cache->stats();
    s.cache_hits = cs.hits;
    s.cache_misses = cs.misses;
  }
  return s;
}

double PerQuery(uint64_t count, uint64_t queries) {
  return queries == 0 ? 0 : static_cast<double>(count) / queries;
}

/// Per-layer metrics of a traced phase: counter deltas over `queries`
/// engine calls, and the replays' sums.
void ReportLayers(const CounterSnapshot& a, const CounterSnapshot& b,
                  uint64_t queries, uint64_t scanned, const LayerTotals& t,
                  Report* r) {
  r->Metric("storage.page_reads_per_query",
            PerQuery(b.page_reads - a.page_reads, queries), "count", queries);
  r->Metric("exec.scanned_records_per_query", PerQuery(scanned, queries),
            "count", queries);
  const uint64_t lookups =
      (b.cache_hits - a.cache_hits) + (b.cache_misses - a.cache_misses);
  r->Metric("exec.cache_hit_ratio",
            lookups == 0 ? 0 : double(b.cache_hits - a.cache_hits) / lookups,
            "ratio", lookups);
  r->Metric("dist.messages_per_query",
            PerQuery(b.messages - a.messages, queries), "count", queries);
  r->Metric("dist.records_shipped_per_query",
            PerQuery(b.records_shipped - a.records_shipped, queries), "count",
            queries);
  r->Metric("dist.shards_per_query",
            PerQuery(b.servers_contacted - a.servers_contacted, queries),
            "count", queries);

  auto per = [](double us, uint64_t n) { return n == 0 ? 0 : us / n; };
  r->Metric("storage.decode_us_per_rec", per(t.decode_us, t.decode_records),
            "us", t.decode_records);
  r->Metric("filter.deserialize_us_per_rec",
            per(t.deserialize_us, t.deserialize_records), "us",
            t.deserialize_records);
  r->Metric("filter.match_us_per_rec", per(t.match_us, t.match_records), "us",
            t.match_records);
  r->Metric("filter.match_ratio",
            t.match_records == 0 ? 0 : double(t.matched) / t.match_records,
            "ratio", t.match_records);
  r->Metric("exec.leaf_ms", t.leaf_ms.Mean(), "ms", t.leaf_ms.size());
  r->Metric("exec.operator_ms", t.operator_ms.Mean(), "ms",
            t.operator_ms.size());
  r->Metric("exec.materialize_us_per_entry",
            per(t.materialize_us, t.materialized), "us", t.materialized);
  r->Metric("query.plan_us", t.plan_us.Median(), "us", t.plan_us.size());
  r->Metric("engine.overhead_ms", t.overhead_ms.Median(), "ms",
            t.overhead_ms.size());
  for (const auto& [cls, samples] : t.dist_execute_ms) {
    r->Metric("dist.execute_ms." + cls, samples.Median(), "ms",
              samples.size());
  }
  r->Detail("replayed_queries", static_cast<double>(t.replayed));
}

void ReportTraceOverhead(const Samples& untraced_ms, const Samples& traced_ms,
                         const Tracer& tracer, Report* r) {
  const double base = untraced_ms.Median();
  r->Metric("trace.overhead_pct",
            base > 0 ? 100.0 * (traced_ms.Median() - base) / base : 0, "%",
            traced_ms.size());
  r->Detail("spans", static_cast<double>(tracer.size()));
}

Clock::duration Seconds(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

/// Builds the engine kSetupRepeats times with `build`, keeping the last
/// one, and records each build's wall time in seconds.
template <typename BuildFn>
Status SetUp(std::unique_ptr<Engine>* engine, Samples* seconds,
             BuildFn&& build) {
  for (int i = 0; i < kSetupRepeats; ++i) {
    engine->reset();
    const Clock::time_point t0 = Clock::now();
    NDQ_RETURN_IF_ERROR(build(engine));
    seconds->Add(std::chrono::duration<double>(Clock::now() - t0).count());
  }
  return Status::OK();
}

/// Replays the traced phase's queries, in order, for a bounded time.
Status ReplayQueries(Engine* engine, Tracer* tracer,
                     const std::vector<std::pair<uint64_t, GenQuery>>& log,
                     LayerTotals* totals) {
  LayerReplayer replayer(engine, tracer);
  Session session = engine->OpenSession();
  const Clock::time_point deadline = Clock::now() + Seconds(kReplaySeconds);
  for (const auto& [qid, q] : log) {
    if (Clock::now() >= deadline) break;
    NDQ_RETURN_IF_ERROR(replayer.Replay(&session, q, qid, totals));
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// local_mix
// ---------------------------------------------------------------------------

/// One closed-loop phase of `seconds`. With the tracer enabled every query
/// gets a root span and an engine.run span, and is logged for replay.
struct ClosedLoopPhase {
  Latencies lat;
  Samples service_ms;
  uint64_t scanned = 0;
  std::vector<std::pair<uint64_t, GenQuery>> log;
};

template <typename NextFn>
ClosedLoopPhase RunClosedLoop(Session* session, NextFn&& next, double seconds,
                              Tracer* tracer) {
  ClosedLoopPhase phase;
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point deadline = t0 + Seconds(seconds);
  while (Clock::now() < deadline) {
    GenQuery q = next();
    const uint64_t qid = tracer->enabled() ? tracer->NextId() : 0;
    ScopedSpan root(tracer, "query", qid);
    QueryOutcome out;
    double us = TimedSpan(tracer, "engine.run", qid, root.id(),
                          [&] { out = session->Run(q.text); });
    root.End();
    phase.lat.Add(q.cls, us / 1e3, out.ok(), out.trace.io.TotalTransfers());
    phase.service_ms.Add(us / 1e3);
    phase.scanned += LeafScanned(out.trace);
    if (tracer->enabled()) phase.log.emplace_back(qid, std::move(q));
  }
  phase.lat.seconds =
      std::chrono::duration<double>(Clock::now() - t0).count();
  return phase;
}

}  // namespace

gen::DifOptions LocalDif(uint32_t seed) {
  gen::DifOptions d;
  d.seed = seed;
  d.num_orgs = 4;
  d.subdomains_per_org = 4;
  d.subscribers_per_domain = 400;
  return d;
}

gen::DifOptions ProvisionDif(uint32_t seed) {
  gen::DifOptions d;
  d.seed = seed;
  d.num_orgs = 1;
  d.subdomains_per_org = 2;
  d.subscribers_per_domain = 400;
  return d;
}

std::string FleetTopology(const gen::DifOptions& dif, int replicas) {
  std::string text = "replicas " + Str(replicas) + "\nshard root dc=com\n";
  for (int o = 0; o < dif.num_orgs; ++o) {
    text += "shard org" + Str(o) + " " + OrgDn(o) + "\n";
  }
  return text;
}

QueryClass ClassDeck::Next(std::mt19937& rng) {
  if (pos_ == block_.size()) {
    std::shuffle(block_.begin(), block_.end(), rng);
    pos_ = 0;
  }
  return block_[pos_++];
}

namespace {

std::vector<QueryClass> Block(
    std::initializer_list<std::pair<QueryClass, int>> mix) {
  std::vector<QueryClass> block;
  for (const auto& [c, n] : mix) block.insert(block.end(), n, c);
  return block;
}

}  // namespace

// Per 20 queries: 10 atomic/L0 scans (5 per subdomain, 5 per org), 4 L1/L2
// hierarchy queries, 3 L3 queries and 3 global scans. With this split the
// median latency falls inside the org-scan class rather than on the edge
// between two classes, where it would jump from run to run.
LocalMixStream::LocalMixStream(const gen::DifOptions& dif, uint32_t seed)
    : dif_(dif),
      rng_(seed),
      deck_(Block({{QueryClass::kSub, 5},
                   {QueryClass::kOrg, 5},
                   {QueryClass::kHier, 4},
                   {QueryClass::kL3, 3},
                   {QueryClass::kGlobal, 3}})) {}

GenQuery LocalMixStream::Next() {
  const QueryClass cls = deck_.Next(rng_);
  const int o = Uniform(rng_, 0, dif_.num_orgs);
  const int s = Uniform(rng_, 0, dif_.subdomains_per_org);
  const int g = o * dif_.subdomains_per_org + s;
  const std::string org = OrgDn(o);
  const std::string sub = SubDn(dif_, o, s);
  const std::string sn = "surName=sn" + Str(Uniform(rng_, 0, 1000));
  const std::string uid =
      "uid=user" + Str(Uniform(rng_, 0, dif_.subscribers_per_domain));
  const int pick = Uniform(rng_, 0, 4);

  if (cls == QueryClass::kSub || cls == QueryClass::kOrg) {
    // Atomic and L0 scans with selective filters.
    const std::string& b = cls == QueryClass::kSub ? sub : org;
    switch (pick) {
      case 0:
        return {Leaf(b, sn), cls};
      case 1:
        return {Leaf(b, "CANumber=" + CaPrefix(dif_, g, rng_)), cls};
      case 2:
        return {"(& " + Leaf(b, sn) + " " + Leaf(b, uid) + ")", cls};
      default:
        return {"(| " + Leaf(b, uid) + " " + Leaf(b, sn) + ")", cls};
    }
  }
  if (cls == QueryClass::kHier) {
    // L1/L2: hierarchy selection with a witness-count aggregate.
    if (pick < 2) {
      const std::string prefix = Str(Uniform(rng_, 10, 100));
      const std::string end = Str(Uniform(rng_, 1400, 2300));
      const std::string m = Str(Uniform(rng_, 1, 3));
      return {"(c " + Leaf(org, "surName=sn" + prefix + "*") + " " +
                  Leaf(org, "endTime>=" + end) + " count($2)>=" + m + ")",
              QueryClass::kHier};
    }
    const std::string prefix = Str(Uniform(rng_, 1, 10));
    const std::string timeout = Str(Uniform(rng_, 10, 40));
    const std::string m = Str(Uniform(rng_, 1, 7));
    return {"(d " + Leaf(sub, "surName=sn" + prefix + "*") + " " +
                Leaf(sub, "timeOut>=" + timeout) + " count($2)>=" + m + ")",
            QueryClass::kHier};
  }
  if (cls == QueryClass::kL3) {
    // L3: embedded references over the policy subtree.
    const std::string& b = pick % 2 == 0 ? sub : org;
    const std::string prio = Str(Uniform(rng_, 1, 6));
    if (pick < 2) {
      const int ports[] = {25, 80, 110, 443, 8080};
      const std::string port = Str(ports[Uniform(rng_, 0, 5)]);
      return {"(vd " + Leaf(b, "SLARulePriority<=" + prio) + " " +
                  Leaf(b, "sourcePort=" + port) + " SLATPRef)",
              QueryClass::kL3};
    }
    const std::string rate = Str(Uniform(rng_, 10, 100));
    return {"(dv " + Leaf(b, "DSInProfilePeakRate>=" + rate) + " " +
                Leaf(b, "SLARulePriority<=" + prio) + " SLADSActRef)",
            QueryClass::kL3};
  }
  // Global scans over the whole directory.
  if (pick < 2) return {Leaf("dc=com", sn), QueryClass::kGlobal};
  return {Leaf("dc=com", "DSInProfilePeakRate>=" + Str(Uniform(rng_, 80, 100))),
          QueryClass::kGlobal};
}

// E21's mix (bench/bench_scale.cpp) per 20 queries: 12 subdomain scans,
// 5 org scans, 2 org-level joins and 1 global scan.
FleetStream::FleetStream(const gen::DifOptions& dif, uint32_t seed)
    : dif_(dif),
      rng_(seed),
      deck_(Block({{QueryClass::kSub, 12},
                   {QueryClass::kOrg, 5},
                   {QueryClass::kJoin, 2},
                   {QueryClass::kGlobal, 1}})) {}

GenQuery FleetStream::Next() {
  const QueryClass cls = deck_.Next(rng_);
  const int o = Uniform(rng_, 0, dif_.num_orgs);
  const int s = Uniform(rng_, 0, dif_.subdomains_per_org);
  const std::string org = OrgDn(o);
  if (cls == QueryClass::kSub) {
    return {Leaf(SubDn(dif_, o, s), "objectClass=QHP"), cls};
  }
  if (cls == QueryClass::kOrg) {
    return {Leaf(org, "objectClass=SLAPolicyRules"), cls};
  }
  if (cls == QueryClass::kJoin) {
    return {"(c " + Leaf(org, "objectClass=TOPSSubscriber") + " " +
                Leaf(org, "objectClass=QHP") + " count($2)>=3)",
            QueryClass::kJoin};
  }
  return {Leaf("dc=com", "objectClass=SLADSAction"), QueryClass::kGlobal};
}

int RunLocalMix(const Args& args, Report* report, RunStatus* status) {
  const gen::DifOptions dif = LocalDif(args.seed);
  const DirectoryInstance inst = gen::GenerateDif(dif);
  report->Detail("entries", static_cast<double>(inst.size()));

  std::unique_ptr<Engine> engine;
  Samples setup_s;
  Status st = SetUp(&engine, &setup_s, [&](std::unique_ptr<Engine>* e) {
    *e = std::make_unique<Engine>(inst, BaseOptions());
    return (*e)->init_status();
  });
  if (!st.ok()) {
    status->Fail("set-up failed: " + st.ToString());
    return 1;
  }
  report->Detail("optimizer", engine->optimize() ? "on" : "off");

  ValidateBackends(args.seed, report, status);
  Session session = engine->OpenSession();
  LocalMixStream warmup(dif, args.seed ^ 0x3a3au);
  for (int i = 0; i < kWarmupQueries; ++i) {
    CheckAgainstReference(&session, warmup.Next().text, inst, status);
  }

  LocalMixStream stream(dif, args.seed);
  auto next = [&] { return stream.Next(); };
  Tracer tracer(false);
  if (!args.trace) {
    ClosedLoopPhase run = RunClosedLoop(&session, next, args.seconds, &tracer);
    ReportSetup(setup_s, report);
    ReportQueries(run.lat, run.lat.attempted / run.lat.seconds, report);
    report->Metric("error_rate", PerQuery(run.lat.failed, run.lat.attempted),
                   "ratio", run.lat.attempted);
    status->attempted += run.lat.attempted;
    status->failed += run.lat.failed;
    return 0;
  }

  // The traced half replays the untraced half's stream on a cold cache,
  // so their difference is the tracing overhead.
  ClosedLoopPhase plain =
      RunClosedLoop(&session, next, args.seconds / 2, &tracer);
  LocalMixStream again(dif, args.seed);
  engine->InvalidateCaches();
  tracer.set_enabled(true);
  const CounterSnapshot before = Snap(engine.get());
  ClosedLoopPhase traced = RunClosedLoop(
      &session, [&] { return again.Next(); }, args.seconds / 2, &tracer);
  const CounterSnapshot after = Snap(engine.get());
  LayerTotals totals;
  st = ReplayQueries(engine.get(), &tracer, traced.log, &totals);
  if (!st.ok()) status->Fail("replay failed: " + st.ToString());
  ReportLayers(before, after, traced.lat.attempted, traced.scanned, totals,
               report);
  report->Metric("engine.service_ms", traced.service_ms.Median(), "ms",
                 traced.service_ms.size());
  report->Metric("engine.rejected",
                 static_cast<double>(session.stats().rejected), "count");
  ReportTraceOverhead(plain.service_ms, traced.service_ms, tracer, report);
  status->attempted += plain.lat.attempted + traced.lat.attempted;
  status->failed += plain.lat.failed + traced.lat.failed;
  tracer.WriteJsonLines(args.out_dir + "/spans-local_mix.jsonl");
  return 0;
}

// ---------------------------------------------------------------------------
// fleet_open
// ---------------------------------------------------------------------------

namespace {

struct OpenLoopPhase {
  Latencies lat;            // from scheduled arrival to completion
  Samples lateness_ms;      // actual start minus scheduled arrival
  Samples service_ms;       // Session::Run wall time
  double offered_qps = 0;
  double achieved_qps = 0;
  uint64_t scanned = 0;
  std::vector<std::pair<uint64_t, GenQuery>> log;
};

/// Fixed-rate open loop: arrival i is due at t0 + i/qps; `workers`
/// threads, one Session each, take arrivals in order. A worker that runs
/// late starts at once and the lateness lands in the latency.
OpenLoopPhase RunOpenLoop(Engine* engine, FleetStream* stream, double seconds,
                          Tracer* tracer) {
  const size_t n = static_cast<size_t>(seconds * kFleetQps);
  std::vector<GenQuery> queries;
  std::vector<uint64_t> qids(n, 0);
  for (size_t i = 0; i < n; ++i) {
    queries.push_back(stream->Next());
    if (tracer->enabled()) qids[i] = tracer->NextId();
  }
  std::vector<double> start_ms(n), done_ms(n), service_ms(n);
  std::vector<char> ok(n, 0);
  std::vector<uint64_t> scanned(n, 0), pages(n, 0);
  std::atomic<size_t> next{0};
  const size_t workers =
      std::max<size_t>(1, std::min<size_t>(kFleetWorkers,
                                           std::thread::hardware_concurrency()));
  const Clock::time_point t0 = Clock::now();
  auto due = [&](size_t i) { return t0 + Seconds(i / kFleetQps); };
  std::vector<std::thread> threads;
  for (size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&] {
      Session session = engine->OpenSession();
      for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
        std::this_thread::sleep_until(due(i));
        ScopedSpan root(tracer, "query", qids[i]);
        const Clock::time_point start = Clock::now();
        QueryOutcome out;
        service_ms[i] = TimedSpan(tracer, "engine.run", qids[i], root.id(),
                                  [&] { out = session.Run(queries[i].text); }) /
                        1e3;
        root.End();
        start_ms[i] = MsBetween(due(i), start);
        done_ms[i] = MsBetween(t0, Clock::now());
        ok[i] = out.ok() ? 1 : 0;
        scanned[i] = LeafScanned(out.trace);
        pages[i] = out.trace.io.TotalTransfers();
      }
    });
  }
  for (std::thread& t : threads) t.join();

  OpenLoopPhase phase;
  double last_done_ms = 0;
  for (size_t i = 0; i < n; ++i) {
    const double due_ms = 1e3 * i / kFleetQps;
    phase.lat.Add(queries[i].cls, done_ms[i] - due_ms, ok[i] != 0, pages[i]);
    phase.lateness_ms.Add(start_ms[i]);
    phase.service_ms.Add(service_ms[i]);
    phase.scanned += scanned[i];
    last_done_ms = std::max(last_done_ms, done_ms[i]);
    if (tracer->enabled()) phase.log.emplace_back(qids[i], queries[i]);
  }
  phase.lat.seconds = last_done_ms / 1e3;
  phase.offered_qps = kFleetQps;
  phase.achieved_qps = last_done_ms > 0 ? n / (last_done_ms / 1e3) : 0;
  return phase;
}

/// Open-loop health: the generator's lateness and achieved versus
/// offered rate. Returns false when the backlog grew.
bool ReportHealth(const OpenLoopPhase& phase, Report* r) {
  r->Detail("offered_qps", phase.offered_qps);
  r->Detail("achieved_qps", phase.achieved_qps);
  r->Detail("lateness_p50_ms", phase.lateness_ms.Median());
  r->Detail("lateness_p99_ms", phase.lateness_ms.Percentile(0.99));
  r->Detail("lateness_max_ms", phase.lateness_ms.Percentile(1.0));
  const bool healthy =
      phase.achieved_qps >= kMinAchievedShare * phase.offered_qps;
  r->Detail("open_loop_valid", healthy ? "true" : "false");
  return healthy;
}

}  // namespace

int RunFleetOpen(const Args& args, Report* report, RunStatus* status) {
  const gen::DifOptions dif = LocalDif(args.seed);
  const DirectoryInstance inst = gen::GenerateDif(dif);
  report->Detail("entries", static_cast<double>(inst.size()));

  std::unique_ptr<Engine> engine;
  Samples setup_s;
  Status st = SetUp(&engine, &setup_s, [&](std::unique_ptr<Engine>* e) {
    *e = std::make_unique<Engine>(inst, FleetOptions(dif));
    return (*e)->init_status();
  });
  if (!st.ok()) {
    status->Fail("set-up failed: " + st.ToString());
    return 1;
  }
  report->Detail("optimizer", engine->optimize() ? "on" : "off");
  report->Detail("shards", static_cast<double>(engine->fleet()->shards().size()));

  ValidateBackends(args.seed, report, status);
  {
    Session session = engine->OpenSession();
    FleetStream warmup(dif, args.seed ^ 0x3a3au);
    for (int i = 0; i < kWarmupQueries; ++i) {
      CheckAgainstReference(&session, warmup.Next().text, inst, status);
    }
  }

  FleetStream stream(dif, args.seed);
  Tracer tracer(false);
  if (!args.trace) {
    OpenLoopPhase run = RunOpenLoop(engine.get(), &stream, args.seconds,
                                    &tracer);
    if (!ReportHealth(run, report)) {
      status->Fail("open loop invalid: achieved " +
                   std::to_string(run.achieved_qps) + " of " +
                   std::to_string(run.offered_qps) + " qps offered");
    }
    ReportSetup(setup_s, report);
    ReportQueries(run.lat, run.achieved_qps, report);
    report->Metric("error_rate", PerQuery(run.lat.failed, run.lat.attempted),
                   "ratio", run.lat.attempted);
    status->attempted += run.lat.attempted;
    status->failed += run.lat.failed;
    return 0;
  }

  // The traced half replays the untraced half's schedule, so their
  // difference is the tracing overhead.
  OpenLoopPhase plain =
      RunOpenLoop(engine.get(), &stream, args.seconds / 2, &tracer);
  FleetStream again(dif, args.seed);
  tracer.set_enabled(true);
  const CounterSnapshot before = Snap(engine.get());
  OpenLoopPhase traced =
      RunOpenLoop(engine.get(), &again, args.seconds / 2, &tracer);
  const CounterSnapshot after = Snap(engine.get());
  ReportHealth(traced, report);
  LayerTotals totals;
  st = ReplayQueries(engine.get(), &tracer, traced.log, &totals);
  if (!st.ok()) status->Fail("replay failed: " + st.ToString());
  ReportLayers(before, after, traced.lat.attempted, traced.scanned, totals,
               report);
  report->Metric("engine.service_ms", traced.service_ms.Median(), "ms",
                 traced.service_ms.size());
  report->Metric("engine.queue_wait_ms", traced.lateness_ms.Mean(), "ms",
                 traced.lateness_ms.size());
  ReportTraceOverhead(plain.service_ms, traced.service_ms, tracer, report);
  status->attempted += plain.lat.attempted + traced.lat.attempted;
  status->failed += plain.lat.failed + traced.lat.failed;
  tracer.WriteJsonLines(args.out_dir + "/spans-fleet_open.jsonl");
  return 0;
}

// ---------------------------------------------------------------------------
// provision_rw
// ---------------------------------------------------------------------------

namespace {

constexpr size_t kLoadBatch = 64;

/// The writer's op stream: put a modified QHP, remove a call appearance,
/// re-add it. Every acknowledged op is applied to `model` as well.
class Provisioner {
 public:
  Provisioner(const DirectoryInstance& inst, uint32_t seed,
              DirectoryInstance* model)
      : rng_(seed), model_(model) {
    for (const auto& [key, e] : inst) {
      if (e.HasClass("QHP")) qhps_.push_back(e.dn());
      if (e.HasClass("callAppearance")) cas_.push_back(e.dn());
    }
  }

  /// Applies the next single-op batch; returns its wall time in us.
  double Step(Session* session, Tracer* tracer, bool* ok) {
    UpdateBatch batch;
    Entry entry;
    switch (phase_) {
      case 0: {
        entry = *model_->Find(qhps_[rng_() % qhps_.size()]);
        entry.RemoveAttribute("priority");
        entry.AddInt("priority", 1 + static_cast<int64_t>(rng_() % 5));
        batch.Put(entry);
        break;
      }
      case 1:
        removed_ = *model_->Find(cas_[rng_() % cas_.size()]);
        batch.Remove(removed_.dn());
        break;
      default:
        batch.Add(removed_);
        break;
    }
    UpdateResult res;
    const uint64_t qid = tracer->enabled() ? tracer->NextId() : 0;
    double us = TimedSpan(tracer, "engine.apply", qid, 0,
                          [&] { res = session->Apply(batch); });
    *ok = res.ok() && res.applied == 1;
    if (*ok) {
      Status st = phase_ == 0   ? model_->Put(entry)
                  : phase_ == 1 ? model_->Remove(removed_.dn())
                                : model_->Add(removed_);
      if (!st.ok()) *ok = false;
    }
    phase_ = (phase_ + 1) % 3;
    return us;
  }

 private:
  std::mt19937 rng_;
  DirectoryInstance* model_;
  std::vector<Dn> qhps_, cas_;
  int phase_ = 0;
  Entry removed_;
};

/// The reader's queries: subdomain scans of equal cost over a small set
/// that fits the operand cache.
std::vector<std::string> ReaderQueries(const gen::DifOptions& dif) {
  std::vector<std::string> out;
  for (int s = 0; s < dif.subdomains_per_org; ++s) {
    for (int k = 7; k < 1000; k += 125) {
      out.push_back(Leaf(SubDn(dif, 0, s), "surName=sn" + Str(k)));
    }
  }
  return out;
}

struct RwPhase {
  Latencies reads;
  Samples read_service_ms;
  Samples write_ms;
  uint64_t writes = 0, write_failures = 0;
  double seconds = 0;
  uint64_t scanned = 0;
  // Store shape after each write.
  uint64_t flushes = 0, compactions = 0;
  Samples segments;
  std::vector<std::pair<uint64_t, GenQuery>> log;
};

RwPhase RunReadWrite(Engine* engine, Provisioner* writer,
                     const std::vector<std::string>& reads, uint32_t seed,
                     double seconds, Tracer* tracer) {
  RwPhase phase;
  DirectoryStore* store = engine->mutable_store();
  const Clock::time_point t0 = Clock::now();
  std::thread reader([&] {
    Session session = engine->OpenSession();
    std::mt19937 rng(seed);
    ClosedLoopPhase loop = RunClosedLoop(
        &session,
        [&] {
          return GenQuery{reads[rng() % reads.size()], QueryClass::kSub};
        },
        seconds, tracer);
    phase.reads = loop.lat;
    phase.read_service_ms = loop.service_ms;
    phase.scanned = loop.scanned;
    phase.log = std::move(loop.log);
  });
  {
    Session session = engine->OpenSession();
    size_t prev_mem = store->memtable_size();
    size_t prev_segs = store->num_segments();
    while (Clock::now() - t0 < Seconds(seconds)) {
      bool ok = false;
      phase.write_ms.Add(writer->Step(&session, tracer, &ok) / 1e3);
      ++phase.writes;
      if (!ok) ++phase.write_failures;
      const size_t mem = store->memtable_size();
      const size_t segs = store->num_segments();
      if (mem < prev_mem) ++phase.flushes;
      if (segs < prev_segs) ++phase.compactions;
      phase.segments.Add(static_cast<double>(segs));
      prev_mem = mem;
      prev_segs = segs;
    }
    phase.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  }
  reader.join();
  return phase;
}

/// The final store must hold exactly the model's entries, byte for byte.
void CheckStoreAgainstModel(Engine* engine, const DirectoryInstance& model,
                            RunStatus* status) {
  DirectoryStore* store = engine->mutable_store();
  store->WaitForMaintenance();
  std::vector<std::string> got;
  Status st = store->ScanRange("", "", [&](std::string_view rec) -> Status {
    got.emplace_back(rec);
    return Status::OK();
  });
  if (!st.ok()) {
    status->Fail("final scan failed: " + st.ToString());
    return;
  }
  if (got.size() != model.size()) {
    status->Fail("final store has " + std::to_string(got.size()) +
                 " entries, model has " + std::to_string(model.size()));
    return;
  }
  size_t i = 0;
  for (const auto& [key, entry] : model) {
    std::string want;
    SerializeEntry(entry, &want);
    if (got[i++] != want) {
      status->Fail("final store differs from the model at " +
                   entry.dn().ToString());
      return;
    }
  }
}

}  // namespace

int RunProvisionRw(const Args& args, Report* report, RunStatus* status) {
  const gen::DifOptions dif = ProvisionDif(args.seed);
  const DirectoryInstance inst = gen::GenerateDif(dif);
  report->Detail("entries", static_cast<double>(inst.size()));
  std::vector<UpdateBatch> load;
  for (const auto& [key, e] : inst) {
    if (load.empty() || load.back().size() == kLoadBatch) load.emplace_back();
    load.back().Add(e);
  }

  std::unique_ptr<Engine> engine;
  Samples setup_s;
  Status st =
      SetUp(&engine, &setup_s, [&](std::unique_ptr<Engine>* e) -> Status {
        *e = std::make_unique<Engine>(gen::PaperSchema(), BaseOptions());
        Session loader = (*e)->OpenSession();
        for (const UpdateBatch& batch : load) {
          NDQ_RETURN_IF_ERROR(loader.Apply(batch).status);
        }
        (*e)->mutable_store()->WaitForMaintenance();
        return Status::OK();
      });
  if (!st.ok()) {
    status->Fail("set-up failed: " + st.ToString());
    return 1;
  }
  report->Detail("optimizer", engine->optimize() ? "on" : "off");

  DirectoryInstance model = inst;
  Provisioner writer(inst, args.seed, &model);
  const std::vector<std::string> reads = ReaderQueries(dif);
  {
    Session session = engine->OpenSession();
    Tracer off(false);
    for (const std::string& q : reads) {
      CheckAgainstReference(&session, q, model, status);
    }
    for (int i = 0; i < 3 * 8; ++i) {
      bool ok = false;
      writer.Step(&session, &off, &ok);
      if (!ok) status->Fail("warm-up write failed");
    }
  }

  Tracer tracer(false);
  if (!args.trace) {
    RwPhase run = RunReadWrite(engine.get(), &writer, reads, args.seed,
                               args.seconds, &tracer);
    ReportSetup(setup_s, report);
    ReportQueries(run.reads, run.reads.attempted / run.reads.seconds, report);
    report->Metric("write_ops_s", run.writes / run.seconds, "1/s", run.writes);
    report->Metric("write_p50_ms", run.write_ms.Median(), "ms",
                   run.write_ms.size());
    report->Metric("write_p99_ms", run.write_ms.Percentile(0.99), "ms",
                   run.write_ms.size());
    report->Detail("flushes", static_cast<double>(run.flushes));
    report->Detail("compactions", static_cast<double>(run.compactions));
    const uint64_t attempted = run.reads.attempted + run.writes;
    const uint64_t failed = run.reads.failed + run.write_failures;
    report->Metric("error_rate", PerQuery(failed, attempted), "ratio",
                   attempted);
    status->attempted += attempted;
    status->failed += failed;
    CheckStoreAgainstModel(engine.get(), model, status);
    return 0;
  }

  RwPhase plain = RunReadWrite(engine.get(), &writer, reads, args.seed,
                               args.seconds / 2, &tracer);
  tracer.set_enabled(true);
  const CounterSnapshot before = Snap(engine.get());
  RwPhase traced = RunReadWrite(engine.get(), &writer, reads, args.seed,
                                args.seconds / 2, &tracer);
  const CounterSnapshot after = Snap(engine.get());
  CheckStoreAgainstModel(engine.get(), model, status);

  LayerTotals totals;
  st = ReplayQueries(engine.get(), &tracer, traced.log, &totals);
  if (!st.ok()) status->Fail("replay failed: " + st.ToString());
  ReportLayers(before, after, traced.reads.attempted, traced.scanned, totals,
               report);
  report->Metric("engine.service_ms", traced.read_service_ms.Median(), "ms",
                 traced.read_service_ms.size());
  report->Metric("engine.apply_us", traced.write_ms.Median() * 1e3, "us",
                 traced.write_ms.size());
  // Both halves: one alone is too short to be sure of a compaction.
  Samples segments = plain.segments;
  segments.Append(traced.segments);
  report->Metric("store.flushes",
                 static_cast<double>(plain.flushes + traced.flushes), "count");
  report->Metric("store.compactions",
                 static_cast<double>(plain.compactions + traced.compactions),
                 "count");
  report->Metric("store.segments_mean", segments.Mean(), "count",
                 segments.size());

  StoreProbe probe;
  st = ProbeStore(inst, &tracer, &probe);
  if (!st.ok()) status->Fail("store probe failed: " + st.ToString());
  report->Metric("store.put_us", probe.put_us.Median(), "us",
                 probe.put_us.size());
  for (const auto& [size, us] : probe.put_us_at) {
    report->Metric("store.put_us.at" + std::to_string(size / 1024) + "k", us,
                   "us", 1024);
  }
  report->Metric("store.durable_put_us", probe.durable_put_us.Median(), "us",
                 probe.durable_put_us.size());
  report->Metric("store.wal_records", static_cast<double>(probe.wal_records),
                 "count");
  report->Metric("store.scan_us_per_rec", probe.scan_lsm_us_per_rec, "us");
  report->Metric("store.scan_bulk_us_per_rec", probe.scan_bulk_us_per_rec,
                 "us");
  ReportTraceOverhead(plain.read_service_ms, traced.read_service_ms, tracer,
                      report);
  status->attempted += plain.reads.attempted + plain.writes +
                       traced.reads.attempted + traced.writes;
  status->failed += plain.reads.failed + plain.write_failures +
                    traced.reads.failed + traced.write_failures;
  tracer.WriteJsonLines(args.out_dir + "/spans-provision_rw.jsonl");
  return 0;
}

}  // namespace perfbench
