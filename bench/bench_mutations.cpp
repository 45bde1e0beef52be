// E22 — online mutations through the engine (bench_mutations).
// Claim: the snapshot-pinned write path makes the directory ONLINE — point
// mutations land through Session::Apply at memtable speed while queries
// keep evaluating against pinned snapshots, and durability (WAL +
// fsync-on-commit) costs a bounded constant factor on the write path, not
// a redesign of the read path. An update batch is one state transition
// (one copy of the store state, one publish), so a bulk load in 64-op
// batches runs at least 10x the steady-state rate of one- and two-op
// batches.
//
// Measures: bulk load and steady-state mutation throughput through
// Session::Apply, and what the steady state costs in compaction (records
// rewritten per acknowledged op, the segment count); query throughput with
// and without a concurrent writer; the durable-vs-volatile write
// amplification; and crash-recovery wall time. Emits BENCH_mutations.json
// for EXPERIMENTS.md. Exits nonzero unless queries and writes overlapped
// and the load/steady gate holds.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/dn.h"
#include "gen/random_forest.h"
#include "store/directory_store.h"

using namespace ndq;
using namespace ndq::bench;

namespace {

constexpr size_t kEntries = 2000;
constexpr size_t kBatchSize = 64;
constexpr int kSteadyOps = 4000;
constexpr int kDurableOps = 600;
// Gate: batched bulk load vs steady-state batches, in ops per second.
constexpr double kMinLoadOverSteady = 10.0;

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

double OpsPerSec(double ops, double ms) {
  return ms > 0 ? 1000.0 * ops / ms : 0.0;
}

// RandomForest generates schema-less instances; declare what it emits
// (rdn attrs, x, tag, ref, two classes per entry) plus the bench's own
// revision counter so the engine-owned store can validate.
Schema BenchSchema(int num_classes) {
  Schema schema;
  auto must = [](Status s) {
    if (!s.ok()) {
      std::fprintf(stderr, "schema: %s\n", s.ToString().c_str());
      std::exit(1);
    }
  };
  must(schema.AddAttribute("dc", TypeKind::kString));
  must(schema.AddAttribute("ou", TypeKind::kString));
  must(schema.AddAttribute("cn", TypeKind::kString));
  must(schema.AddAttribute("tag", TypeKind::kString));
  must(schema.AddAttribute("x", TypeKind::kInt));
  must(schema.AddAttribute("ref", TypeKind::kDn));
  must(schema.AddAttribute("benchrev", TypeKind::kInt));
  const std::vector<std::string> attrs = {"dc", "ou",  "cn",      "tag",
                                          "x",  "ref", "benchrev"};
  for (int i = 0; i < num_classes; ++i) {
    must(schema.AddClass("class" + std::to_string(i), attrs));
  }
  return schema;
}

// Entries with no descendants: safe to Remove and re-Add.
std::vector<Entry> Leaves(const DirectoryInstance& inst) {
  std::vector<Entry> leaves;
  for (auto it = inst.begin(); it != inst.end(); ++it) {
    auto next = std::next(it);
    if (next == inst.end() || !KeyIsAncestor(it->first, next->first)) {
      leaves.push_back(it->second);
    }
  }
  return leaves;
}

}  // namespace

int main() {
  PrintHeader("E22: online mutations (bench_mutations)",
              "mutations land at memtable speed while queries read pinned "
              "snapshots; WAL durability is a constant-factor write cost; "
              "a batch is one state transition");

  gen::RandomForestOptions fopt;
  fopt.seed = 11;
  fopt.num_entries = kEntries;
  DirectoryInstance inst = gen::RandomForest(fopt);
  std::vector<Entry> leaves = Leaves(inst);
  std::printf("directory: %zu entries (%zu leaves)\n", inst.size(),
              leaves.size());

  EngineOptions eopt;
  eopt.exec.parallelism = 3;
  Engine engine(BenchSchema(3), eopt);
  Session session = engine.OpenSession();

  // --- 1. Bulk load through Session::Apply --------------------------------
  double load_ms;
  {
    auto start = std::chrono::steady_clock::now();
    UpdateBatch batch;
    size_t applied = 0;
    for (const auto& [key, entry] : inst) {
      (void)key;
      batch.Put(entry);
      if (batch.size() == kBatchSize) {
        UpdateResult res = session.Apply(batch);
        if (!res.ok()) {
          std::fprintf(stderr, "load failed: %s\n",
                       res.status.ToString().c_str());
          return 1;
        }
        applied += res.applied;
        batch.ops.clear();
      }
    }
    if (!batch.empty()) {
      UpdateResult res = session.Apply(batch);
      if (!res.ok()) {
        std::fprintf(stderr, "load failed: %s\n",
                     res.status.ToString().c_str());
        return 1;
      }
      applied += res.applied;
    }
    load_ms = MillisSince(start);
    if (applied != inst.size()) {
      std::fprintf(stderr, "load applied %zu != %zu\n", applied, inst.size());
      return 1;
    }
  }
  const double load_ops = OpsPerSec(static_cast<double>(inst.size()), load_ms);
  std::printf("bulk load: %zu puts in %.1f ms (%.0f ops/s)\n", inst.size(),
              load_ms, load_ops);

  // --- 2. Steady-state point mutations ------------------------------------
  DirectoryStore* store = engine.mutable_store();
  const MaintenanceCounters before = store->maintenance_counters();
  double steady_ms;
  size_t steady_acked = 0;
  {
    auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kSteadyOps; ++i) {
      const Entry& leaf = leaves[i % leaves.size()];
      UpdateBatch batch;
      if (i % 3 == 2) {
        batch.Remove(leaf.dn());
        batch.ops.push_back(UpdateOp::Add(leaf));
      } else {
        Entry e = leaf;
        e.AddInt("benchrev", i);
        batch.Put(e);
      }
      UpdateResult res = session.Apply(batch);
      if (!res.ok()) {
        std::fprintf(stderr, "mutation %d failed: %s\n", i,
                     res.status.ToString().c_str());
        return 1;
      }
      steady_acked += res.applied;
    }
    steady_ms = MillisSince(start);
  }
  double steady_ops = OpsPerSec(kSteadyOps, steady_ms);
  std::printf("steady-state: %d mutation batches in %.1f ms (%.0f ops/s)\n",
              kSteadyOps, steady_ms, steady_ops);
  // Write cost beside read cost: the records compaction rewrote per
  // acknowledged op, and the segment stack a range scan reads across.
  store->WaitForMaintenance();
  const MaintenanceCounters after = store->maintenance_counters();
  const double write_amp =
      static_cast<double>(after.records_rewritten - before.records_rewritten) /
      static_cast<double>(steady_acked);
  const size_t segments = store->num_segments();
  std::printf("steady-state compaction: %llu flushes, %llu compactions, "
              "%.2f records rewritten per op; %zu segments\n",
              static_cast<unsigned long long>(after.flushes - before.flushes),
              static_cast<unsigned long long>(after.compactions -
                                              before.compactions),
              write_amp, segments);
  const double load_factor = steady_ops > 0 ? load_ops / steady_ops : 0.0;
  const bool batch_gate = load_factor >= kMinLoadOverSteady;

  // --- 3. Query throughput, idle vs concurrent writer ---------------------
  const std::string query = "(dc=n0 ? sub ? objectClass=class0)";
  auto measure_queries = [&](int n) -> double {
    Session reader = engine.OpenSession();
    auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < n; ++i) {
      QueryOutcome out = reader.Run(query);
      if (!out.ok()) {
        std::fprintf(stderr, "query failed: %s\n",
                     out.status.ToString().c_str());
        std::exit(1);
      }
    }
    return MillisSince(start);
  };
  constexpr int kQueries = 200;
  double idle_ms = measure_queries(kQueries);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> writer_ops{0};
  std::thread writer([&] {
    Session wsession = engine.OpenSession();
    uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const Entry& leaf = leaves[i++ % leaves.size()];
      Entry e = leaf;
      e.AddInt("benchrev", static_cast<int64_t>(i));
      UpdateBatch batch;
      batch.Put(e);
      if (wsession.Apply(batch).ok()) {
        writer_ops.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  double busy_ms = measure_queries(kQueries);
  stop = true;
  writer.join();
  double q_idle = OpsPerSec(kQueries, idle_ms);
  double q_busy = OpsPerSec(kQueries, busy_ms);
  double w_busy = OpsPerSec(static_cast<double>(writer_ops.load()), busy_ms);
  std::printf("queries idle: %.0f q/s; with concurrent writer: %.0f q/s "
              "(writer sustained %.0f ops/s)\n",
              q_idle, q_busy, w_busy);

  // --- 4. Durable vs volatile write path ----------------------------------
  // Instance iteration is HierKey order, so parents always precede
  // children: valid on a fresh store.
  auto preload = [&](DirectoryStore* store) {
    for (const auto& [key, entry] : inst) {
      (void)key;
      Status s = store->Put(entry);
      if (!s.ok()) {
        std::fprintf(stderr, "preload failed: %s\n", s.ToString().c_str());
        std::exit(1);
      }
    }
  };
  auto time_puts = [&](DirectoryStore* store) -> double {
    auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kDurableOps; ++i) {
      Entry e = leaves[i % leaves.size()];
      e.AddInt("benchrev", i);
      Status s = store->Put(e);
      if (!s.ok()) {
        std::fprintf(stderr, "put failed: %s\n", s.ToString().c_str());
        std::exit(1);
      }
    }
    return MillisSince(start);
  };
  double volatile_ms, durable_ms, recover_ms;
  uint64_t recovered_entries;
  {
    SimDisk vdisk(1024);
    DirectoryStore vstore(&vdisk, BenchSchema(3));
    preload(&vstore);
    volatile_ms = time_puts(&vstore);
  }
  SimDisk ddisk(1024);
  {
    auto dstore =
        DirectoryStore::CreateDurable(&ddisk, BenchSchema(3)).TakeValue();
    preload(dstore.get());
    durable_ms = time_puts(dstore.get());
    // Abandon without teardown: recovery must rebuild from the disk.
  }
  {
    auto start = std::chrono::steady_clock::now();
    auto recovered =
        DirectoryStore::Recover(&ddisk, BenchSchema(3)).TakeValue();
    recover_ms = MillisSince(start);
    recovered_entries = recovered->num_entries();
  }
  double volatile_ops = OpsPerSec(kDurableOps, volatile_ms);
  double durable_ops = OpsPerSec(kDurableOps, durable_ms);
  double wal_factor = durable_ops > 0 ? volatile_ops / durable_ops : 0.0;
  std::printf("write path: volatile %.0f ops/s, durable (WAL+sync) %.0f "
              "ops/s (%.1fx overhead)\n",
              volatile_ops, durable_ops, wal_factor);
  std::printf("recovery: %llu entries in %.1f ms\n",
              static_cast<unsigned long long>(recovered_entries), recover_ms);

  bool online = q_busy > 0 && writer_ops.load() > 0;
  std::printf("\nonline (queries and writes overlapped): %s\n",
              online ? "PASS" : "FAIL");
  std::printf("batched load >= %.0fx steady-state ops/s (%.1fx): %s\n",
              kMinLoadOverSteady, load_factor, batch_gate ? "PASS" : "FAIL");

  FILE* f = std::fopen("BENCH_mutations.json", "w");
  if (f != nullptr) {
    std::fprintf(f, "{\n");
    std::fprintf(f, "  \"experiment\": \"bench_mutations\",\n");
    std::fprintf(f, "  \"entries\": %zu,\n", inst.size());
    std::fprintf(f, "  \"load_ops_per_sec\": %.0f,\n", load_ops);
    std::fprintf(f, "  \"steady_mutation_ops_per_sec\": %.0f,\n", steady_ops);
    std::fprintf(f, "  \"load_over_steady\": %.1f,\n", load_factor);
    std::fprintf(f, "  \"steady_flushes\": %llu,\n",
                 static_cast<unsigned long long>(after.flushes -
                                                 before.flushes));
    std::fprintf(f, "  \"steady_compactions\": %llu,\n",
                 static_cast<unsigned long long>(after.compactions -
                                                 before.compactions));
    std::fprintf(f, "  \"steady_records_rewritten_per_op\": %.2f,\n",
                 write_amp);
    std::fprintf(f, "  \"segments_after_steady\": %zu,\n", segments);
    std::fprintf(f, "  \"queries_per_sec_idle\": %.0f,\n", q_idle);
    std::fprintf(f, "  \"queries_per_sec_concurrent_writer\": %.0f,\n",
                 q_busy);
    std::fprintf(f, "  \"writer_ops_per_sec_concurrent\": %.0f,\n", w_busy);
    std::fprintf(f, "  \"volatile_put_ops_per_sec\": %.0f,\n", volatile_ops);
    std::fprintf(f, "  \"durable_put_ops_per_sec\": %.0f,\n", durable_ops);
    std::fprintf(f, "  \"wal_overhead_factor\": %.2f,\n", wal_factor);
    std::fprintf(f, "  \"recover_ms\": %.1f,\n", recover_ms);
    std::fprintf(f, "  \"recovered_entries\": %llu,\n",
                 static_cast<unsigned long long>(recovered_entries));
    std::fprintf(f, "  \"online_pass\": %s,\n", online ? "true" : "false");
    std::fprintf(f, "  \"batch_gate_pass\": %s\n",
                 batch_gate ? "true" : "false");
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote BENCH_mutations.json\n");
  }
  return online && batch_gate ? 0 : 1;
}
