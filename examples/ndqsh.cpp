// ndqsh — an interactive shell for querying network directories.
//
// Usage:
//   ndqsh [ldif-file]        load entries from LDIF (default: the paper's
//                            Figures 1/11/12 sample data)
//
// Commands (one per line; queries are the paper's syntax, Figs. 7-10):
//   (dc=att, dc=com ? sub ? surName=jagadish)      evaluate a query
//   .load <file>                                   load more LDIF
//   .add                                           read one LDIF record
//                                                  from following lines
//                                                  (end with a blank line)
//   .delete <dn>                                   remove an entry
//   .explain <query>                               classify + optimize
//   .stats                                         store and I/O counters
//   .help / .quit
//
// The shell is a thin frontend over ndq::Engine (engine/engine.h): one
// engine owns the disks, store, operand cache, thread pool and fault
// policy, and a single Session submits the queries. `.set parallelism`
// and `.set faults` are engine settings — they survive across queries and
// are reported by `.explain analyze` and `.stats`.
//
// `.topology <file>` rebuilds the engine over a fleet of replicated
// subtree shards (EngineBackend::kDistributed) loaded with the current
// entries; queries work unchanged and `.stats` shows the network
// counters. `.topology off` returns to the local mutable store.

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "core/ldif.h"
#include "core/ldif_update.h"
#include "engine/engine.h"
#include "exec/cost.h"
#include "gen/paper_data.h"
#include "query/optimize.h"
#include "query/parser.h"
#include "query/rewrite.h"
#include "query/validate.h"
#include "storage/serde.h"

namespace {

struct Shell {
  ndq::Schema schema = ndq::gen::PaperSchema();
  // Behind a pointer so `.topology` can swap the whole backend.
  std::unique_ptr<ndq::Engine> engine =
      std::make_unique<ndq::Engine>(schema);
  ndq::Session session{engine->OpenSession()};
  // The active fault spec, remembered for display ("off" = none).
  std::string fault_spec = "off";
  // The active shard layout; meaningful when distributed() is true.
  ndq::TopologyConfig topology;

  bool distributed() const { return engine->fleet() != nullptr; }

  ndq::DirectoryStore& store() { return *engine->mutable_store(); }

  /// Every entry currently served, as an instance the next backend can
  /// load: the local store's merged view, or (distributed) each shard's
  /// partition off replica 0.
  ndq::Result<ndq::DirectoryInstance> CurrentInstance() {
    ndq::DirectoryInstance inst(schema, /*validate=*/false);
    auto add = [&inst](std::string_view record) -> ndq::Status {
      NDQ_ASSIGN_OR_RETURN(ndq::Entry e, ndq::DeserializeEntry(record));
      return inst.Add(e);
    };
    if (distributed()) {
      for (const auto& shard : engine->fleet()->shards()) {
        NDQ_RETURN_IF_ERROR(
            shard->replica(0)->store().ScanRange("", "", add));
      }
    } else {
      NDQ_RETURN_IF_ERROR(engine->store().ScanRange("", "", add));
    }
    return inst;
  }

  void TopologyOff() {
    if (!distributed()) {
      std::printf("already on the local backend\n");
      return;
    }
    ndq::Result<ndq::DirectoryInstance> inst = CurrentInstance();
    if (!inst.ok()) {
      std::printf("cannot read fleet entries: %s\n",
                  inst.status().ToString().c_str());
      return;
    }
    auto next = std::make_unique<ndq::Engine>(schema);
    ndq::Session next_session = next->OpenSession();
    ndq::UpdateBatch batch;
    for (const auto& [key, entry] : *inst) batch.Put(entry);
    ndq::UpdateResult res = next_session.Apply(batch);
    if (!res.ok()) {
      std::printf("reload failed: %s\n", res.status.ToString().c_str());
      return;
    }
    engine = std::move(next);
    session = std::move(next_session);
    fault_spec = "off";
    std::printf("local backend restored (%zu entries)\n", res.applied);
  }

  void TopologyLoad(const std::string& path) {
    std::ifstream in(path);
    if (!in) {
      std::printf("cannot open %s\n", path.c_str());
      return;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    ndq::Result<ndq::TopologyConfig> parsed =
        ndq::TopologyConfig::Parse(buf.str());
    if (!parsed.ok()) {
      std::printf("bad topology: %s\n", parsed.status().ToString().c_str());
      return;
    }
    ndq::Result<ndq::DirectoryInstance> inst = CurrentInstance();
    if (!inst.ok()) {
      std::printf("cannot snapshot entries: %s\n",
                  inst.status().ToString().c_str());
      return;
    }
    ndq::EngineOptions opt;
    opt.backend = ndq::EngineBackend::kDistributed;
    opt.topology = *parsed;
    auto next = std::make_unique<ndq::Engine>(*inst, opt);
    if (!next->init_status().ok()) {
      std::printf("fleet build failed: %s\n",
                  next->init_status().ToString().c_str());
      return;  // the current engine stays live
    }
    engine = std::move(next);
    session = engine->OpenSession();
    topology = *parsed;
    fault_spec = "off";
    std::printf("distributed backend up (read-only):\n");
    for (const auto& shard : engine->fleet()->shards()) {
      std::printf("  shard %-14s context '%-25s' %zu entries x%zu\n",
                  shard->name().c_str(),
                  shard->context().ToString().c_str(), shard->num_entries(),
                  shard->num_replicas());
    }
  }

  void TopologyShow() {
    if (!distributed()) {
      std::printf("backend: local (use .topology <file> to shard)\n");
      return;
    }
    std::printf("backend: distributed\n%s", topology.ToString().c_str());
  }

  void SetFaults(const std::string& spec) {
    ndq::Status s = engine->SetFaults(spec);
    if (!s.ok()) {
      std::printf("bad fault spec: %s\n", s.ToString().c_str());
      std::printf(
          "syntax: <rule>[;<rule>...], rule = ops[:field...]\n"
          "  ops:    read|write|alloc|free|any\n"
          "  fields: n=<k> (fail the k-th op), every=<k>, p=<prob>,\n"
          "          seed=<s>, page=<id>, sticky\n"
          "  e.g. .set faults read:n=3   .set faults any:p=0.01:seed=7\n");
      return;
    }
    fault_spec = (spec == "off" || spec.empty()) ? "off" : spec;
    if (fault_spec == "off") {
      std::printf("fault injection off\n");
    } else {
      std::printf("fault injection on: %s\n", fault_spec.c_str());
    }
  }

  void SetParallelism(size_t n) {
    if (n == 0) n = 1;
    engine->SetParallelism(n);
    std::printf(
        "parallelism set to %zu (operand cache: %zu pages, cleared on "
        "store updates)\n",
        engine->parallelism(),
        engine->cache() != nullptr ? engine->cache()->capacity_pages()
                                   : size_t{0});
  }

  void SetOptimize(const std::string& arg) {
    if (arg != "on" && arg != "off") {
      std::printf("usage: .set optimize on|off\n");
      return;
    }
    engine->SetOptimize(arg == "on");
    std::printf("cost-based optimizer %s\n", arg.c_str());
  }

  void SetIoDepth(size_t n) {
    engine->SetIoDepth(n);
    if (n == 0) {
      std::printf("async I/O off (synchronous page reads)\n");
    } else {
      std::printf(
          "io-depth set to %zu (run scans keep up to %zu page reads in "
          "flight; page accounting is unchanged)\n",
          engine->io_depth(), engine->io_depth());
    }
  }

  // Cached operand lists are snapshots of the store; drop them whenever
  // it mutates (.load/.apply/.add/.delete).
  void InvalidateCache() { engine->InvalidateCaches(); }

  int LoadLdifText(const std::string& text) {
    if (distributed()) {
      std::printf("distributed backend is read-only (.topology off first)\n");
      return -1;
    }
    ndq::Result<std::vector<ndq::Entry>> entries =
        ndq::ParseLdif(schema, text);
    if (!entries.ok()) {
      std::printf("parse error: %s\n", entries.status().ToString().c_str());
      return -1;
    }
    // Session::Apply: the file is one update batch, one state transition
    // of the store (one copy of its state); in-flight queries keep their
    // pinned snapshots, later ones see the whole file, and the operand
    // cache is invalidated for us.
    ndq::UpdateBatch batch;
    for (ndq::Entry& e : *entries) batch.Put(std::move(e));
    ndq::UpdateResult res = session.Apply(batch);
    for (const ndq::Status& s : res.op_status) {
      if (!s.ok()) std::printf("put error: %s\n", s.ToString().c_str());
    }
    return static_cast<int>(res.applied);
  }

  void ApplyFile(const std::string& path) {
    if (distributed()) {
      std::printf("distributed backend is read-only (.topology off first)\n");
      return;
    }
    std::ifstream in(path);
    if (!in) {
      std::printf("cannot open %s\n", path.c_str());
      return;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    ndq::Result<size_t> n =
        ndq::ApplyLdifChanges(schema, buf.str(), &store());
    if (!n.ok()) {
      std::printf("apply error: %s\n", n.status().ToString().c_str());
      return;
    }
    if (*n > 0) InvalidateCache();
    std::printf("applied %zu change record(s)\n", *n);
  }

  void LoadFile(const std::string& path) {
    std::ifstream in(path);
    if (!in) {
      std::printf("cannot open %s\n", path.c_str());
      return;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    int n = LoadLdifText(buf.str());
    if (n >= 0) std::printf("loaded %d entries from %s\n", n, path.c_str());
  }

  // Distinguishes "the text never parsed" from "the plan failed to
  // evaluate" in an outcome: rejected/unparsed outcomes carry no plan.
  static void PrintFailure(const ndq::QueryOutcome& outcome) {
    std::printf("%s error: %s\n",
                outcome.plan == nullptr ? "parse" : "eval",
                outcome.status.ToString().c_str());
    for (const ndq::DegradationWarning& w : outcome.warnings) {
      std::printf("warning: %s\n", w.ToString().c_str());
    }
  }

  void RunQuery(const std::string& text) {
    ndq::QueryOutcome outcome = session.Run(text);
    if (!outcome.ok()) {
      PrintFailure(outcome);
      return;
    }
    for (const ndq::Entry& e : outcome.entries) {
      std::printf("%s", e.ToString().c_str());
      std::printf("\n");
    }
    std::printf("# %zu entr%s  [%s]\n", outcome.entries.size(),
                outcome.entries.size() == 1 ? "y" : "ies",
                ndq::LanguageToString(outcome.plan->MinimalLanguage()));
  }

  void ExplainAnalyze(const std::string& text) {
    ndq::QueryOutcome outcome = session.Run(text);
    if (!outcome.ok()) {
      PrintFailure(outcome);
      return;
    }
    std::printf(
        "settings: parallelism=%zu iodepth=%zu optimize=%s faults=%s "
        "cache=%zu pages\n",
        engine->parallelism(), engine->io_depth(),
        engine->optimize() ? "on" : "off", fault_spec.c_str(),
        engine->cache() != nullptr ? engine->cache()->capacity_pages()
                                   : size_t{0});
    if (outcome.optimizer.Total() > 0) {
      std::printf("optimizer: %s\n", outcome.optimizer.ToString().c_str());
    }
    std::printf("%s", ndq::ExplainAnalyze(engine->store(), *outcome.plan,
                                          outcome.trace)
                          .c_str());
    std::printf(
        "total: %zu result entr%s; estimated ~%.0f pages, actual %llu "
        "transfers (%llu reads + %llu writes), %.1f ms\n",
        outcome.entries.size(), outcome.entries.size() == 1 ? "y" : "ies",
        outcome.estimated_pages,
        (unsigned long long)outcome.trace.io.TotalTransfers(),
        (unsigned long long)outcome.trace.io.page_reads,
        (unsigned long long)outcome.trace.io.page_writes,
        outcome.trace.wall_micros / 1000.0);
    for (const std::string& v : ndq::VerifyTheoremBounds(outcome.trace)) {
      std::printf("BOUND VIOLATION: %s\n", v.c_str());
    }
  }

  void Explain(const std::string& text) {
    ndq::Result<ndq::QueryPtr> q = ndq::ParseQuery(text);
    if (!q.ok()) {
      std::printf("parse error: %s\n", q.status().ToString().c_str());
      return;
    }
    std::printf("language: %s, %zu node(s)\n",
                ndq::LanguageToString((*q)->MinimalLanguage()),
                (*q)->NodeCount());
    for (const ndq::QueryIssue& issue :
         ndq::ValidateQuery(schema, **q)) {
      std::printf("%s: %s\n",
                  issue.severity == ndq::QueryIssue::Severity::kError
                      ? "error"
                      : "warning",
                  issue.message.c_str());
    }
    ndq::RewriteStats stats;
    ndq::QueryPtr r = ndq::RewriteQuery(*q, &stats);
    if (stats.Total() > 0) {
      std::printf("canonicalized (%zu rewrite(s)): %s\n", stats.Total(),
                  r->ToString().c_str());
    } else {
      std::printf("already canonical: %s\n", r->ToString().c_str());
    }
    if (engine->optimize()) {
      ndq::OptimizedPlan opt = ndq::OptimizeQuery(engine->store(), r);
      if (opt.stats.Total() > 0) {
        std::printf(
            "optimized (%s; est ~%.0f -> ~%.0f pages): %s\n",
            opt.stats.ToString().c_str(), opt.est_pages_before,
            opt.est_pages_after, opt.plan->ToString().c_str());
        r = opt.plan;
      } else {
        std::printf("optimizer: no profitable rewrite\n");
      }
    }
    std::printf("plan:\n%s", ndq::ExplainPlan(engine->store(), *r).c_str());
    ndq::CostEstimate est = ndq::EstimateCost(engine->store(), *r);
    std::printf("estimated cost: ~%.0f pages (%.0f leaf + %.0f operator)\n",
                est.TotalPages(), est.leaf_pages, est.operator_pages);
  }

  void Stats() {
    if (distributed()) {
      ndq::DistributedDirectory* fleet = engine->fleet();
      std::printf("backend: distributed (%zu shards)\n",
                  fleet->shards().size());
      for (const auto& server : fleet->servers()) {
        std::printf("  %-18s %llu entries, disk %s\n",
                    server->name().c_str(),
                    (unsigned long long)server->store().num_entries(),
                    server->disk()->stats().ToString().c_str());
      }
      const ndq::NetStats& net = fleet->net_stats();
      std::printf(
          "network: %llu messages, %llu records / %llu bytes shipped,\n"
          "         %llu server contacts, %llu retries, %llu failovers, "
          "%llu degraded\n",
          (unsigned long long)net.messages,
          (unsigned long long)net.records_shipped,
          (unsigned long long)net.bytes_shipped,
          (unsigned long long)net.servers_contacted,
          (unsigned long long)net.retries, (unsigned long long)net.failovers,
          (unsigned long long)net.degraded_results);
      std::printf("coordinator:  %s\n",
                  fleet->coordinator_disk()->stats().ToString().c_str());
    } else {
      std::printf("store: %llu entries, %zu segment(s), memtable %zu\n",
                  (unsigned long long)store().num_entries(),
                  store().num_segments(), store().memtable_size());
      std::printf("data disk:    %s\n",
                  engine->data_disk()->stats().ToString().c_str());
      std::printf("scratch disk: %s\n",
                  engine->scratch()->stats().ToString().c_str());
    }
    if (engine->cache() != nullptr) {
      ndq::OperandCacheStats cs = engine->cache()->stats();
      std::printf(
          "operand cache: %llu hit(s), %llu miss(es), %llu/%zu pages "
          "(%llu entr%s), %llu eviction(s); parallelism %zu\n",
          (unsigned long long)cs.hits, (unsigned long long)cs.misses,
          (unsigned long long)cs.resident_pages,
          engine->cache()->capacity_pages(),
          (unsigned long long)cs.resident_entries,
          cs.resident_entries == 1 ? "y" : "ies",
          (unsigned long long)cs.evictions, engine->parallelism());
      if (cs.copy_failures > 0) {
        std::printf("operand cache: %llu copy failure(s) absorbed\n",
                    (unsigned long long)cs.copy_failures);
      }
    }
    ndq::SessionStats ss = session.stats();
    std::printf("session: %llu submitted, %llu completed, %llu rejected\n",
                (unsigned long long)ss.submitted,
                (unsigned long long)ss.completed,
                (unsigned long long)ss.rejected);
    if (engine->fault_injector() != nullptr) {
      std::printf("fault injection: %llu of %llu eligible op(s) failed\n",
                  (unsigned long long)engine->fault_injector()->faults_fired(),
                  (unsigned long long)engine->fault_injector()->ops_seen());
    }
  }
};

const char* kHelp =
    "commands:\n"
    "  (<query>)           evaluate (paper syntax; try .help-examples)\n"
    "  .load <file>        load LDIF entries (online: queries in flight\n"
    "                      keep their snapshot; new queries see the load)\n"
    "  .apply <file>       apply LDIF change records (changetype:)\n"
    "  .add                read one LDIF record until a blank line\n"
    "  .delete <dn>        remove an entry (online, like .load)\n"
    "  .explain <query>    classify + show optimizer rewrites + cost\n"
    "  .explain analyze <query>\n"
    "                      evaluate with per-operator tracing: estimated\n"
    "                      vs actual pages/cardinality per plan node\n"
    "  .set parallelism <n>\n"
    "                      evaluate independent operand subtrees on up to\n"
    "                      n threads, with a sorted-operand cache for\n"
    "                      repeated atomic sub-queries (1 = sequential)\n"
    "  .set iodepth <n>    keep up to n async page reads in flight on\n"
    "                      sequential run scans (0 = synchronous, the\n"
    "                      default; page accounting is identical)\n"
    "  .set optimize on|off\n"
    "                      cost-based optimizer: short-circuit provably\n"
    "                      empty operands, reorder &/| by selectivity,\n"
    "                      push filters below hierarchy operators (on by\n"
    "                      default; .explain shows what it did)\n"
    "  .set faults <spec>  inject I/O faults on both disks; spec is\n"
    "                      rule[;rule...], rule = ops[:n=k|:every=k|:p=x\n"
    "                      |:seed=s|:page=id|:sticky], ops in\n"
    "                      read|write|alloc|free|any (.set faults off)\n"
    "  .topology <file>    reload the current entries into a fleet of\n"
    "                      replicated subtree shards and route queries\n"
    "                      through the coordinator (read-only); the file\n"
    "                      holds `replicas N`, `page_size N` and\n"
    "                      `shard <name> [replicas=K] <dn>` lines\n"
    "  .topology           show the active shard layout\n"
    "  .topology off       return to the local mutable store\n"
    "  .stats              store / I/O / operand-cache counters (network\n"
    "                      and per-replica counters when distributed)\n"
    "  .help-examples      sample queries\n"
    "  .quit\n";

const char* kExamples =
    "examples:\n"
    "  (dc=att, dc=com ? sub ? surName=jagadish)\n"
    "  (c (dc=com ? sub ? objectClass=organizationalUnit)\n"
    "     (dc=com ? sub ? surName=jagadish))\n"
    "  (g (dc=com ? sub ? objectClass=SLAPolicyRules)\n"
    "     count(SLAPVPRef) > 1)\n"
    "  (vd (dc=com ? sub ? objectClass=SLAPolicyRules)\n"
    "      (dc=com ? sub ? sourcePort=25) SLATPRef)\n"
    "  (ldap dc=com ? sub ? (&(objectClass=QHP)(priority<=1)))\n";

}  // namespace

int main(int argc, char** argv) {
  Shell shell;
  if (argc > 1) {
    shell.LoadFile(argv[1]);
  } else {
    int n = shell.LoadLdifText(
        ndq::WriteLdif(ndq::gen::PaperInstance()));
    std::printf("loaded %d entries (paper sample data)\n", n);
  }
  std::printf("ndqsh — type .help for commands\n");

  std::string line;
  bool interactive = true;
  while (interactive) {
    std::printf("ndq> ");
    std::fflush(stdout);
    if (!std::getline(std::cin, line)) break;
    // Trim.
    size_t b = line.find_first_not_of(" \t");
    if (b == std::string::npos) continue;
    size_t e = line.find_last_not_of(" \t");
    line = line.substr(b, e - b + 1);

    if (line == ".quit" || line == ".exit") break;
    if (line == ".help") {
      std::printf("%s", kHelp);
    } else if (line == ".help-examples") {
      std::printf("%s", kExamples);
    } else if (line == ".stats") {
      shell.Stats();
    } else if (line.rfind(".load ", 0) == 0) {
      shell.LoadFile(line.substr(6));
    } else if (line.rfind(".apply ", 0) == 0) {
      shell.ApplyFile(line.substr(7));
    } else if (line == ".add") {
      std::string record, rec_line;
      while (std::getline(std::cin, rec_line) && !rec_line.empty()) {
        record += rec_line;
        record += '\n';
      }
      int n = shell.LoadLdifText(record);
      if (n >= 0) std::printf("added %d entr%s\n", n, n == 1 ? "y" : "ies");
    } else if (line.rfind(".delete ", 0) == 0) {
      ndq::Result<ndq::Dn> dn = ndq::Dn::Parse(line.substr(8));
      if (!dn.ok()) {
        std::printf("bad dn: %s\n", dn.status().ToString().c_str());
        continue;
      }
      ndq::UpdateBatch batch;
      batch.Remove(*dn);
      ndq::UpdateResult res = shell.session.Apply(batch);
      std::printf("%s\n",
                  res.ok() ? "deleted" : res.status.ToString().c_str());
    } else if (line == ".topology") {
      shell.TopologyShow();
    } else if (line == ".topology off") {
      shell.TopologyOff();
    } else if (line.rfind(".topology ", 0) == 0) {
      shell.TopologyLoad(line.substr(10));
    } else if (line.rfind(".set faults ", 0) == 0) {
      shell.SetFaults(line.substr(12));
    } else if (line.rfind(".set parallelism ", 0) == 0) {
      char* end = nullptr;
      unsigned long n = std::strtoul(line.c_str() + 17, &end, 10);
      if (end == line.c_str() + 17 || (end != nullptr && *end != '\0')) {
        std::printf("usage: .set parallelism <n>\n");
        continue;
      }
      shell.SetParallelism(static_cast<size_t>(n));
    } else if (line.rfind(".set iodepth ", 0) == 0) {
      char* end = nullptr;
      unsigned long n = std::strtoul(line.c_str() + 13, &end, 10);
      if (end == line.c_str() + 13 || (end != nullptr && *end != '\0')) {
        std::printf("usage: .set iodepth <n>\n");
        continue;
      }
      shell.SetIoDepth(static_cast<size_t>(n));
    } else if (line.rfind(".set optimize ", 0) == 0) {
      shell.SetOptimize(line.substr(14));
    } else if (line.rfind(".explain analyze ", 0) == 0) {
      std::string q = line.substr(17);
      // Multi-line queries: keep reading while parens are unbalanced.
      while (std::count(q.begin(), q.end(), '(') >
             std::count(q.begin(), q.end(), ')')) {
        std::string more;
        if (!std::getline(std::cin, more)) break;
        q += ' ';
        q += more;
      }
      shell.ExplainAnalyze(q);
    } else if (line.rfind(".explain ", 0) == 0) {
      std::string q = line.substr(9);
      while (std::count(q.begin(), q.end(), '(') >
             std::count(q.begin(), q.end(), ')')) {
        std::string more;
        if (!std::getline(std::cin, more)) break;
        q += ' ';
        q += more;
      }
      shell.Explain(q);
    } else if (line[0] == '(') {
      std::string q = line;
      while (std::count(q.begin(), q.end(), '(') >
             std::count(q.begin(), q.end(), ')')) {
        std::string more;
        if (!std::getline(std::cin, more)) break;
        q += ' ';
        q += more;
      }
      shell.RunQuery(q);
    } else {
      std::printf("unknown command (try .help)\n");
    }
  }
  std::printf("\n");
  return 0;
}
