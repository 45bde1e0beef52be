// E18 — async I/O and scan prefetch (bench_io).
// Claims: with per-page transfer latency on the simulated disk, scan
// prefetch at io-depth d overlaps a plan's page transfers with its CPU
// work, so COLD multi-thread wall-clock approaches the latency-free
// floor — while the COUNTED page transfers (the theorems' currency) are
// byte-identical to the synchronous run at every io-depth. The same
// workload on the real-file backend (FileDisk, pread) reports actual
// hardware wall-clock next to the simulated numbers; there each
// measurement repeats the mix for at least 200 ms, and cold_ms is per
// pass.
//
// Emits BENCH_io.json (threads x io-depth sweep, sim + file backends)
// for EXPERIMENTS.md. Gate: cold 4-thread async >= 4.5x over the
// 1-thread synchronous baseline, pages identical, theorem bounds clean.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string>
#include <vector>

#include "bench_util.h"
#include "exec/trace.h"
#include "gen/dif_gen.h"
#include "query/parser.h"
#include "storage/file_disk.h"
#include "store/entry_store.h"

using namespace ndq;
using namespace ndq::bench;

namespace {

constexpr uint32_t kLatencyMicros = 80;
constexpr double kTargetSpeedup = 4.5;
// FileDisk gate: with the OS page cache serving reads faster than the
// async queue round trip, adaptive backoff (Disk::PrefetchWorthwhile)
// must keep every prefetching config within ~10% of its same-thread
// synchronous peer — prefetch never pays, so it must never cost either.
constexpr double kFileAsyncFloor = 0.9;
// One pass of the mix on the file backend takes a few ms, as little as
// the host's scheduling noise, so a file-backend measurement repeats the
// mix until it runs at least this long, and the configurations take
// turns for this many rounds, each keeping its fastest.
constexpr double kFileMinMs = 200;
constexpr int kFileRounds = 5;

// Multi-operand plans whose leaves are selective full-store scans: the
// scans dominate the I/O, each one is a sorted-run pass the Prefetcher
// can stream ahead on, and with >1 thread the operand subtrees overlap.
const char* kPlanMix[] = {
    "(& (| (dc=com ? sub ? objectClass=SLADSAction)"
    "      (dc=com ? sub ? objectClass=policyValidityPeriod))"
    "   (- (dc=com ? sub ? objectClass=trafficProfile)"
    "      (dc=com ? sub ? sourcePort=25)))",
    "(dc (dc=com ? sub ? objectClass=dcObject)"
    "    (& (dc=com ? sub ? sourcePort=25)"
    "       (dc=com ? sub ? objectClass=trafficProfile))"
    "    (dc=com ? sub ? objectClass=dcObject))",
    "(- (| (dc=com ? sub ? objectClass=SLAPolicyRules)"
    "      (dc=com ? sub ? objectClass=SLADSAction))"
    "   (| (dc=com ? sub ? objectClass=policyValidityPeriod)"
    "      (dc=com ? sub ? sourcePort=25)))",
    "(vd (dc=com ? sub ? objectClass=SLAPolicyRules)"
    "    (& (dc=com ? sub ? sourcePort=25)"
    "       (dc=com ? sub ? objectClass=trafficProfile))"
    "    SLATPRef)",
};

struct Config {
  size_t threads;
  size_t io_depth;
};

struct Measurement {
  Config config;
  /// Passes of the mix measured: cold_ms is per pass, the counters are
  /// totals over the passes.
  int passes = 1;
  double cold_ms = 0;
  uint64_t pages = 0;
  uint64_t prefetch_hits = 0;
  uint64_t prefetch_wasted = 0;
};

std::vector<QueryPtr> ParseMix() {
  std::vector<QueryPtr> mix;
  for (const char* text : kPlanMix) {
    mix.push_back(ParseQuery(text).TakeValue());
  }
  return mix;
}

// `passes` cold passes of the whole mix under (threads, io_depth);
// counted transfers and prefetch stats come off the disk's global stats
// so the numbers cover every scan in the plan, not just the traced root.
Measurement Measure(Disk* disk, const EntrySource& store,
                    const std::vector<QueryPtr>& mix, Config config,
                    int passes, uint64_t* violations) {
  Measurement m;
  m.config = config;
  m.passes = passes;
  EngineOptions options = EngineHarness::ColdOptions();
  options.exec.parallelism = config.threads;
  options.io_depth = config.io_depth;
  // options.io_depth == 0 means "leave the disk alone", so reset the
  // depth the previous config left attached before measuring.
  disk->SetIoDepth(config.io_depth);

  EngineHarness h(disk, &store, options);
  IoStats before = disk->stats();
  auto start = std::chrono::steady_clock::now();
  for (int pass = 0; pass < passes; ++pass) {
    for (const QueryPtr& q : mix) {
      QueryOutcome out = h.Run(q);
      *violations += VerifyTheoremBounds(out.trace).size();
    }
  }
  auto end = std::chrono::steady_clock::now();
  m.cold_ms =
      std::chrono::duration<double, std::milli>(end - start).count() / passes;
  IoStats delta = disk->stats() - before;
  m.pages = delta.TotalTransfers();
  m.prefetch_hits = delta.prefetch_hits;
  m.prefetch_wasted = delta.prefetch_wasted;
  return m;
}

void PrintSweep(const char* label, const std::vector<Measurement>& ms) {
  double base = ms.front().cold_ms;
  std::printf("\n== %s ==\n", label);
  std::printf("%8s %9s %10s %10s %12s %10s %8s\n", "threads", "iodepth",
              "cold_ms", "speedup", "pages", "pf_hits", "wasted");
  for (const Measurement& m : ms) {
    std::printf("%8zu %9zu %10.1f %9.2fx %12llu %10llu %8llu\n",
                m.config.threads, m.config.io_depth, m.cold_ms,
                base / m.cold_ms,
                static_cast<unsigned long long>(m.pages / m.passes),
                static_cast<unsigned long long>(m.prefetch_hits / m.passes),
                static_cast<unsigned long long>(m.prefetch_wasted / m.passes));
  }
}

void AppendSweepJson(FILE* f, const char* key,
                     const std::vector<Measurement>& ms) {
  double base = ms.front().cold_ms;
  std::fprintf(f, "  \"%s\": [\n", key);
  for (size_t i = 0; i < ms.size(); ++i) {
    const Measurement& m = ms[i];
    std::fprintf(f,
                 "    {\"threads\": %zu, \"io_depth\": %zu, "
                 "\"passes\": %d, \"cold_ms\": %.1f, \"speedup\": %.2f, "
                 "\"pages\": %llu, \"prefetch_hits\": %llu, "
                 "\"prefetch_wasted\": %llu}%s\n",
                 m.config.threads, m.config.io_depth, m.passes, m.cold_ms,
                 base / m.cold_ms,
                 static_cast<unsigned long long>(m.pages / m.passes),
                 static_cast<unsigned long long>(m.prefetch_hits / m.passes),
                 static_cast<unsigned long long>(m.prefetch_wasted / m.passes),
                 i + 1 < ms.size() ? "," : "");
  }
  std::fprintf(f, "  ]");
}

}  // namespace

int main() {
  PrintHeader("E18: async I/O and scan prefetch (bench_io)",
              "prefetch overlaps scan transfers with CPU so cold "
              "multi-thread wall-clock approaches the latency-free floor; "
              "counted pages byte-identical at every io-depth");

  gen::DifOptions opt;
  opt.num_orgs = 6;
  opt.subdomains_per_org = 3;
  DirectoryInstance inst = gen::GenerateDif(opt);
  std::vector<QueryPtr> mix = ParseMix();

  const Config sweep[] = {
      {1, 0},  // synchronous baseline: every transfer stalls its thread
      {1, 4}, {1, 16}, {4, 0}, {4, 4}, {4, 16},
  };

  // ---- Simulated device: latency-accurate wall-clock + exact pages ----
  SimDisk disk(1024);
  EntryStore store = EntryStore::BulkLoad(&disk, inst).TakeValue();
  std::printf("directory: %zu entries, %zu store pages, %uus/page\n",
              inst.size(), disk.live_pages(), kLatencyMicros);
  disk.set_transfer_latency_micros(kLatencyMicros);

  uint64_t violations = 0;
  std::vector<Measurement> sim;
  for (Config config : sweep) {
    sim.push_back(Measure(&disk, store, mix, config, 1, &violations));
  }
  disk.SetIoDepth(0);
  disk.set_transfer_latency_micros(0);
  PrintSweep("simulated disk (80us/page)", sim);

  // ---- Real files: wall-clock on actual hardware, same workload ----
  const char* tmp = std::getenv("TMPDIR");
  std::string path = std::string(tmp != nullptr ? tmp : "/tmp") +
                     "/ndq-bench-io-" + std::to_string(::getpid()) +
                     ".pages";
  std::vector<Measurement> file;
  {
    FileDisk fdisk(path, 1024);
    if (!fdisk.init_status().ok()) {
      std::fprintf(stderr, "file backend unavailable: %s\n",
                   fdisk.init_status().ToString().c_str());
      return 1;
    }
    EntryStore fstore = EntryStore::BulkLoad(&fdisk, inst).TakeValue();
    uint64_t fviolations = 0;
    // Every configuration measures the same number of passes: enough for
    // the synchronous baseline to run kFileMinMs (the doubling also warms
    // the page cache).
    int passes = 1;
    while (Measure(&fdisk, fstore, mix, sweep[0], passes, &fviolations)
                   .cold_ms *
               passes <
           kFileMinMs) {
      passes *= 2;
    }
    // The configurations take turns, so a slow spell of the host lands on
    // all of them alike; each keeps its fastest round.
    for (int round = 0; round < kFileRounds; ++round) {
      for (size_t i = 0; i < std::size(sweep); ++i) {
        Measurement m =
            Measure(&fdisk, fstore, mix, sweep[i], passes, &fviolations);
        if (round == 0) {
          file.push_back(m);
        } else if (m.cold_ms < file[i].cold_ms) {
          file[i] = m;
        }
      }
    }
    fdisk.SetIoDepth(0);
    violations += fviolations;
    const std::string label =
        "file disk (pread, page cache; " + std::to_string(passes) +
        " passes per measurement, best of " + std::to_string(kFileRounds) +
        " interleaved rounds)";
    PrintSweep(label.c_str(), file);
  }
  ::unlink(path.c_str());

  // ---- Gates ----
  bool pages_identical = true;
  for (const auto& ms : {sim, file}) {
    for (const Measurement& m : ms) {
      if (m.pages != ms.front().pages) pages_identical = false;
    }
  }
  // Best cold 4-thread async config against the 1-thread sync baseline.
  double best4 = 0;
  for (const Measurement& m : sim) {
    if (m.config.threads == 4 && m.config.io_depth > 0) {
      best4 = std::max(best4, sim.front().cold_ms / m.cold_ms);
    }
  }
  // Every prefetching file-backend config against its same-thread
  // synchronous peer.
  double worst_file_ratio = 1e9;
  for (const Measurement& m : file) {
    if (m.config.io_depth == 0) continue;
    for (const Measurement& s : file) {
      if (s.config.threads == m.config.threads && s.config.io_depth == 0) {
        worst_file_ratio = std::min(worst_file_ratio, s.cold_ms / m.cold_ms);
      }
    }
  }
  std::printf("\ncold 4-thread async speedup: %.2fx (target >= %.1fx) %s\n",
              best4, kTargetSpeedup, best4 >= kTargetSpeedup ? "PASS" : "FAIL");
  std::printf("file async vs sync, worst point: %.2fx (floor >= %.1fx) %s\n",
              worst_file_ratio, kFileAsyncFloor,
              worst_file_ratio >= kFileAsyncFloor ? "PASS" : "FAIL");
  std::printf("counted pages identical across io-depths: %s\n",
              pages_identical ? "PASS" : "FAIL");
  std::printf("theorem-bound violations: %llu %s\n",
              static_cast<unsigned long long>(violations),
              violations == 0 ? "PASS" : "FAIL");

  FILE* f = std::fopen("BENCH_io.json", "w");
  if (f != nullptr) {
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"experiment\": \"bench_io\",\n");
    std::fprintf(f, "  \"entries\": %zu,\n", inst.size());
    std::fprintf(f, "  \"page_latency_us\": %u,\n", kLatencyMicros);
    AppendSweepJson(f, "sim", sim);
    std::fprintf(f, ",\n");
    AppendSweepJson(f, "file", file);
    std::fprintf(f, ",\n");
    std::fprintf(f, "  \"cold_4t_async_speedup\": %.2f,\n", best4);
    std::fprintf(f, "  \"target_speedup\": %.1f,\n", kTargetSpeedup);
    std::fprintf(f, "  \"file_async_vs_sync_worst\": %.2f,\n",
                 worst_file_ratio);
    std::fprintf(f, "  \"file_async_vs_sync_floor\": %.1f,\n",
                 kFileAsyncFloor);
    std::fprintf(f, "  \"pages_identical\": %s,\n",
                 pages_identical ? "true" : "false");
    std::fprintf(f, "  \"theorem_violations\": %llu\n",
                 static_cast<unsigned long long>(violations));
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote BENCH_io.json\n");
  }
  return (best4 >= kTargetSpeedup && worst_file_ratio >= kFileAsyncFloor &&
          pages_identical && violations == 0)
             ? 0
             : 1;
}
