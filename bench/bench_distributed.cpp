// E11 — distributed evaluation (Sec. 8.3).
// Claims: only atomic sub-query RESULTS travel (not raw partitions); local
// queries touch one server; fleet size trades per-server I/O against
// message count; the coordinator's operator I/O is unchanged from the
// centralized case. The fleet runs behind Engine sessions — the same API
// every other bench drives.

#include "bench_util.h"
#include "engine/engine.h"
#include "gen/dif_gen.h"

using namespace ndq;
using namespace ndq::bench;

namespace {

// `topology` is TopologyConfig's text form: one "shard <name> <dn>" line
// per shard.
Engine MakeFleetEngine(const DirectoryInstance& global,
                       const char* topology) {
  EngineOptions opt;
  opt.backend = EngineBackend::kDistributed;
  opt.topology = TopologyConfig::Parse(topology).TakeValue();
  return Engine(global, opt);
}

}  // namespace

int main() {
  PrintHeader("E11: distributed evaluation (bench_distributed)",
              "ship atomic results only; locality bounds fan-out");

  gen::DifOptions opt;
  opt.num_orgs = 4;
  opt.subdomains_per_org = 2;
  DirectoryInstance global = gen::GenerateDif(opt);
  std::printf("global directory: %zu entries\n", global.size());

  const struct {
    const char* label;
    const char* topology;
  } fleets[] = {
      {"1 server", "shard s0 dc=com\n"},
      {"1+4 servers (per-org delegation)",
       "shard root dc=com\n"
       "shard s0 dc=org0, dc=com\n"
       "shard s1 dc=org1, dc=com\n"
       "shard s2 dc=org2, dc=com\n"
       "shard s3 dc=org3, dc=com\n"},
      {"1+8 servers (per-subdomain delegation)",
       "shard root dc=com\n"
       "shard d0 dc=sub0, dc=org0, dc=com\n"
       "shard d1 dc=sub1, dc=org0, dc=com\n"
       "shard d2 dc=sub2, dc=org1, dc=com\n"
       "shard d3 dc=sub3, dc=org1, dc=com\n"
       "shard d4 dc=sub4, dc=org2, dc=com\n"
       "shard d5 dc=sub5, dc=org2, dc=com\n"
       "shard d6 dc=sub6, dc=org3, dc=com\n"
       "shard d7 dc=sub7, dc=org3, dc=com\n"
       "shard o0 dc=org0, dc=com\n"
       "shard o1 dc=org1, dc=com\n"
       "shard o2 dc=org2, dc=com\n"
       "shard o3 dc=org3, dc=com\n"},
  };

  const struct {
    const char* label;
    const char* text;
  } queries[] = {
      {"local (one subdomain)",
       "(dc=sub0, dc=org0, dc=com ? sub ? objectClass=QHP)"},
      {"global scan", "(dc=com ? sub ? objectClass=TOPSSubscriber)"},
      {"global L2",
       "(c (dc=com ? sub ? objectClass=TOPSSubscriber)"
       "   (dc=com ? sub ? objectClass=QHP) count($2)>=3)"},
      {"global L3",
       "(vd (dc=com ? sub ? objectClass=SLAPolicyRules)"
       "    (& (dc=com ? sub ? sourcePort=25)"
       "       (dc=com ? sub ? objectClass=trafficProfile)) SLATPRef)"},
  };

  for (const auto& fleet_spec : fleets) {
    Engine engine = MakeFleetEngine(global, fleet_spec.topology);
    DistributedDirectory* fleet = engine.fleet();
    Session session = engine.OpenSession();
    std::printf("\n== fleet: %s ==\n", fleet_spec.label);
    std::printf("%-24s %8s %8s %10s %10s | %12s %12s\n", "query", "results",
                "msgs", "recs_ship", "bytes_ship", "max_srv_io",
                "coord_io");
    for (const auto& qspec : queries) {
      fleet->ResetStats();
      QueryOutcome out = session.Run(qspec.text);
      if (!out.ok()) {
        std::printf("%-24s FAILED: %s\n", qspec.label,
                    out.status.ToString().c_str());
        continue;
      }
      uint64_t max_server_io = 0;
      for (const auto& s : fleet->servers()) {
        max_server_io =
            std::max(max_server_io, s->disk()->stats().TotalTransfers());
      }
      const NetStats& net = fleet->net_stats();
      std::printf("%-24s %8zu %8llu %10llu %10llu | %12llu %12llu\n",
                  qspec.label, out.entries.size(),
                  (unsigned long long)net.messages,
                  (unsigned long long)net.records_shipped,
                  (unsigned long long)net.bytes_shipped,
                  (unsigned long long)max_server_io,
                  (unsigned long long)fleet->coordinator_disk()
                      ->stats()
                      .TotalTransfers());
    }
  }
  // Query shipping vs. atomic-result shipping on a subtree-local L2 query.
  std::printf("\n== query shipping ablation (subtree-local L2 query) ==\n");
  std::printf("%-28s %8s %10s %10s\n", "mode", "msgs", "recs_ship",
              "coord_io");
  {
    Engine engine = MakeFleetEngine(global,
                                    "shard root dc=com\n"
                                    "shard s0 dc=org0, dc=com\n"
                                    "shard s1 dc=org1, dc=com\n"
                                    "shard s2 dc=org2, dc=com\n"
                                    "shard s3 dc=org3, dc=com\n");
    DistributedDirectory* fleet = engine.fleet();
    Session session = engine.OpenSession();
    const char* local_l2 =
        "(c (dc=org0, dc=com ? sub ? objectClass=TOPSSubscriber)"
        "   (dc=org0, dc=com ? sub ? objectClass=QHP) count($2)>=3)";
    for (bool shipping : {false, true}) {
      fleet->set_query_shipping(shipping);
      fleet->ResetStats();
      QueryOutcome out = session.Run(local_l2);
      const NetStats& net = fleet->net_stats();
      std::printf("%-28s %8llu %10llu %10llu   (%zu results)\n",
                  shipping ? "ship whole query" : "ship atomic results",
                  (unsigned long long)net.messages,
                  (unsigned long long)net.records_shipped,
                  (unsigned long long)fleet->coordinator_disk()
                      ->stats()
                      .TotalTransfers(),
                  out.entries.size());
    }
  }

  std::printf(
      "\nexpected: local queries contact 1 server regardless of fleet\n"
      "size; finer delegation shrinks max_srv_io (parallelism) at the\n"
      "price of more messages; records shipped equals the atomic result\n"
      "sizes, never the raw partition sizes; query shipping collapses a\n"
      "subtree-local query to one round trip carrying only the final\n"
      "result.\n");
  return 0;
}
