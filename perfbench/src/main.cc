// ndq_perfbench: runs one workload and prints every metric by name, with
// its unit, ending with one JSON result line.
//
//   ndq_perfbench --workload <local_mix|fleet_open|provision_rw>
//                 --seed <n> --seconds <s> --trace <0|1>
//                 [--commit <id>] [--out-dir <dir>]
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// measures the per-layer metrics: half the time untraced, half traced
// (their difference is the tracing overhead), then replays the traced
// queries through each module's public functions. Metrics of a layer a
// workload does not exercise read 0. The full record, with provenance
// and sample counts, goes to <out-dir>/result-<workload>-<seed>-<trace>.json.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "storage/serde.h"
#include "workloads.h"

#ifndef NDQ_PERFBENCH_BUILD_TYPE
#define NDQ_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Gated by the benchmark: every workload reports each of these, and each
// stays within its bound from run to run on a shared host whose speed
// drifts. The table and the result file also carry every latency and
// throughput metric (README.md says why they are not gated).
const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},
    {"io_pages_per_query", "count"},
    {"peak_rss_mb", "MB"},
};

// Per-layer metrics every workload can report. Times that only one
// workload exercises (dist.execute_ms.*, store.*_us, engine.apply_us,
// engine.queue_wait_ms, exec.operator_ms, exec.materialize_us_per_entry)
// would read a constant 0 elsewhere, so only the table and the result
// file carry them.
const std::vector<MetricSpec> kPerLayer = {
    {"storage.decode_us_per_rec", "us"},
    {"storage.page_reads_per_query", "count"},
    {"filter.deserialize_us_per_rec", "us"},
    {"filter.match_us_per_rec", "us"},
    {"filter.match_ratio", "ratio"},
    {"exec.leaf_ms", "ms"},
    {"exec.cache_hit_ratio", "ratio"},
    {"exec.scanned_records_per_query", "count"},
    {"query.plan_us", "us"},
    {"engine.service_ms", "ms"},
    {"engine.overhead_ms", "ms"},
    {"engine.rejected", "count"},
    {"dist.messages_per_query", "count"},
    {"dist.records_shipped_per_query", "count"},
    {"dist.shards_per_query", "count"},
    {"store.flushes", "count"},
    {"store.compactions", "count"},
    {"store.segments_mean", "count"},
    {"store.wal_records", "count"},
    {"trace.overhead_pct", "%"},
};

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <local_mix|fleet_open|provision_rw> "
               "--seed <n> --seconds <s> --trace <0|1> [--commit <id>] "
               "[--out-dir <dir>]\n",
               argv0);
  return 2;
}

std::string EnvOr(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? v : fallback;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::string commit = "unknown";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = static_cast<uint32_t>(std::strtoul(value, nullptr, 10));
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--commit") {
      commit = value;
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      return Usage(argv[0]);
    }
  }
  if (argc % 2 != 1 || args.workload.empty() || args.seconds <= 0) {
    return Usage(argv[0]);
  }

  Report report;
  report.Detail("workload", args.workload);
  report.Detail("seed", static_cast<double>(args.seed));
  report.Detail("seconds", args.seconds);
  report.Detail("trace", args.trace ? "1" : "0");
  report.Detail("commit", commit);
  report.Detail("build_type", NDQ_PERFBENCH_BUILD_TYPE);
  report.Detail("nproc",
                static_cast<double>(std::thread::hardware_concurrency()));
  report.Detail("page_format",
                ndq::PageCompressionEnabled() ? "compressed" : "raw");
  report.Detail("NDQ_PAGE_FORMAT", EnvOr("NDQ_PAGE_FORMAT", ""));
  report.Detail("disk_backend", "sim");
  report.Detail("NDQ_OPTIMIZE", EnvOr("NDQ_OPTIMIZE", ""));

  RunStatus status;
  int rc;
  if (args.workload == "local_mix") {
    rc = RunLocalMix(args, &report, &status);
  } else if (args.workload == "fleet_open") {
    rc = RunFleetOpen(args, &report, &status);
  } else if (args.workload == "provision_rw") {
    rc = RunProvisionRw(args, &report, &status);
  } else {
    return Usage(argv[0]);
  }
  for (const std::string& p : status.problems) {
    std::fprintf(stderr, "check failed: %s\n", p.c_str());
  }
  if (rc != 0) return rc;
  if (status.attempted == 0) {
    std::fprintf(stderr, "no operations were attempted\n");
    return 1;
  }

  report.Metric("peak_rss_mb", PeakRssMb(), "MB");
  const std::vector<MetricSpec>& names = args.trace ? kPerLayer : kEndToEnd;
  std::vector<std::string> result_names;
  for (const MetricSpec& m : names) {
    // A layer this workload does not exercise did no such work.
    if (!report.Has(m.name)) report.Metric(m.name, 0, m.unit);
    result_names.push_back(m.name);
  }

  const std::string path = args.out_dir + "/result-" + args.workload + "-" +
                           std::to_string(args.seed) + "-" +
                           (args.trace ? "1" : "0") + ".json";
  if (FILE* f = std::fopen(path.c_str(), "w")) {
    std::fprintf(f, "%s\n",
                 report.ToJson(status.correct, status.attempted, status.failed)
                     .c_str());
    std::fclose(f);
  } else {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
  }

  std::printf("%s seed=%u seconds=%g trace=%d commit=%s build=%s\n",
              args.workload.c_str(), args.seed, args.seconds,
              args.trace ? 1 : 0, commit.c_str(), NDQ_PERFBENCH_BUILD_TYPE);
  report.PrintTable();
  std::printf("%s\n", report
                          .ResultLine(result_names, status.correct,
                                      status.attempted, status.failed)
                          .c_str());
  return 0;
}
