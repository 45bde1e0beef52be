// Wall-clock microbenchmarks (google-benchmark) for the core operators and
// application paths. The I/O-complexity validation lives in the dedicated
// experiment harnesses (E1-E14); this binary tracks CPU-side throughput so
// regressions in the hot loops (merges, stack passes, serde) are visible.
// The per-stage benchmarks at the end split a scan's record cost into its
// stages (name decode, whole-entry decode), report the directory's
// resident bytes per entry, time and size the statistics a bulk load
// folds, and time the copy of them an update batch makes.

#include <benchmark/benchmark.h>
#include <malloc.h>

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "apps/tops.h"
#include "bench_util.h"
#include "exec/boolean.h"
#include "exec/embedded_ref.h"
#include "exec/hierarchy.h"
#include "gen/dif_gen.h"
#include "gen/paper_data.h"
#include "query/parser.h"
#include "storage/serde.h"
#include "store/stats.h"

using namespace ndq;
using namespace ndq::bench;

namespace {

void BM_BooleanAnd(benchmark::State& state) {
  OperandLists lists(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    EntryList out =
        EvalBoolean(&lists.disk, QueryOp::kAnd, lists.l1, lists.l2)
            .TakeValue();
    benchmark::DoNotOptimize(out.num_records);
    FreeRun(&lists.disk, &out).ok();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(lists.InputRecords()));
}
BENCHMARK(BM_BooleanAnd)->Arg(4000)->Arg(16000);

void BM_HierarchyAncestors(benchmark::State& state) {
  OperandLists lists(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    EntryList out = EvalHierarchy(&lists.disk, QueryOp::kAncestors,
                                  lists.l1, lists.l2, nullptr, std::nullopt)
                        .TakeValue();
    benchmark::DoNotOptimize(out.num_records);
    FreeRun(&lists.disk, &out).ok();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(lists.InputRecords()));
}
BENCHMARK(BM_HierarchyAncestors)->Arg(4000)->Arg(16000);

void BM_HierarchyDescendantsAgg(benchmark::State& state) {
  OperandLists lists(static_cast<size_t>(state.range(0)));
  AggSelFilter f = ParseAggSelFilter("count($2)=max(count($2))").TakeValue();
  for (auto _ : state) {
    EntryList out = EvalHierarchy(&lists.disk, QueryOp::kDescendants,
                                  lists.l1, lists.l2, nullptr, f)
                        .TakeValue();
    benchmark::DoNotOptimize(out.num_records);
    FreeRun(&lists.disk, &out).ok();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(lists.InputRecords()));
}
BENCHMARK(BM_HierarchyDescendantsAgg)->Arg(4000)->Arg(16000);

void BM_EmbeddedRefValueDn(benchmark::State& state) {
  OperandLists lists(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    EntryList out = EvalEmbeddedRef(&lists.disk, QueryOp::kValueDn,
                                    lists.l1, lists.l2, "ref", std::nullopt)
                        .TakeValue();
    benchmark::DoNotOptimize(out.num_records);
    FreeRun(&lists.disk, &out).ok();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(lists.InputRecords()));
}
BENCHMARK(BM_EmbeddedRefValueDn)->Arg(4000)->Arg(16000);

struct DifFixture {
  SimDisk disk, scratch;
  DirectoryInstance inst;
  EntryStore store;
  DifFixture() : inst(Schema(), false) {
    gen::DifOptions opt;
    opt.num_orgs = 4;
    inst = gen::GenerateDif(opt);
    store = EntryStore::BulkLoad(&disk, inst).TakeValue();
  }
};

void BM_FlagshipL3Query(benchmark::State& state) {
  DifFixture f;
  bench::EngineHarness h(&f.scratch, &f.store);
  QueryPtr q = ParseQuery(
                   "(dv (dc=com ? sub ? objectClass=SLADSAction)"
                   "    (g (vd (dc=com ? sub ? objectClass=SLAPolicyRules)"
                   "           (& (dc=com ? sub ? sourcePort=25)"
                   "              (dc=com ? sub ? "
                   "objectClass=trafficProfile))"
                   "           SLATPRef)"
                   "       min(SLARulePriority)=min(min(SLARulePriority)))"
                   "    SLADSActRef)")
                   .TakeValue();
  for (auto _ : state) {
    std::vector<Entry> r = h.Entries(q);
    benchmark::DoNotOptimize(r.size());
  }
}
BENCHMARK(BM_FlagshipL3Query);

void BM_TopsResolve(benchmark::State& state) {
  DifFixture f;
  EngineOptions uncached;
  uncached.cache_capacity_pages = 0;
  Engine engine(&f.scratch, &f.store, uncached);
  apps::TopsResolver resolver(&engine,
                              gen::MustDn("dc=sub0, dc=org0, dc=com"));
  int i = 0;
  for (auto _ : state) {
    apps::CallContext ctx{"", 900 + (i % 10) * 100, 1 + i % 7};
    auto r = resolver.Resolve("user" + std::to_string(i % 10), ctx);
    benchmark::DoNotOptimize(r.ok());
    ++i;
  }
}
BENCHMARK(BM_TopsResolve);

// ---------------------------------------------------------------------------
// Per-stage record costs over the 64k-entry DIF (4 orgs x 4 subdomains x
// 400 subscribers, the local_mix directory of perfbench/).
// ---------------------------------------------------------------------------

gen::DifOptions Dif64k() {
  gen::DifOptions opt;
  opt.num_orgs = 4;
  opt.subdomains_per_org = 4;
  opt.subscribers_per_domain = 400;
  return opt;
}

// The DIF's entries as serialized records, built once per process.
const std::vector<std::string>& Dif64kRecords() {
  static const std::vector<std::string> records = [] {
    std::vector<std::string> out;
    for (const auto& [key, entry] : gen::GenerateDif(Dif64k())) {
      (void)key;
      out.emplace_back();
      SerializeEntry(entry, &out.back());
    }
    return out;
  }();
  return records;
}

// Reports the time per record as "per_rec" (printed as e.g. 358ns): an
// inverted rate counter over the records processed.
void SetTimePerRecord(benchmark::State& state, size_t records) {
  state.counters["per_rec"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * records,
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

// The name stage of a scan: a record's HierKey to a Dn.
void BM_DnFromHierKey(benchmark::State& state) {
  std::vector<std::string_view> keys;
  for (const std::string& r : Dif64kRecords()) {
    keys.push_back(PeekEntryKey(r).ValueOrDie());
  }
  for (auto _ : state) {
    for (std::string_view key : keys) {
      Result<Dn> dn = Dn::FromHierKey(key);
      benchmark::DoNotOptimize(dn);
    }
  }
  SetTimePerRecord(state, keys.size());
}
BENCHMARK(BM_DnFromHierKey)->Unit(benchmark::kMillisecond);

// The whole-record stage: what ScanScope pays per in-scope record.
void BM_DeserializeEntry(benchmark::State& state) {
  const std::vector<std::string>& records = Dif64kRecords();
  for (auto _ : state) {
    for (const std::string& r : records) {
      Result<Entry> entry = DeserializeEntry(r);
      benchmark::DoNotOptimize(entry);
    }
  }
  SetTimePerRecord(state, records.size());
}
BENCHMARK(BM_DeserializeEntry)->Unit(benchmark::kMillisecond);

// The record stage of a scan as ScanScope runs it over the whole forest:
// each record's key tested against the scope, the record checked and
// viewed in place, and a leaf filter matched on the view, with no Entry
// built (compare BM_DeserializeEntry).
void BM_ScanMatchView(benchmark::State& state) {
  const std::vector<std::string>& records = Dif64kRecords();
  const std::string base = gen::MustDn("dc=com").HierKey();
  const AtomicFilter filter = AtomicFilter::Parse("surName=sn7").TakeValue();
  Entry slow;
  for (auto _ : state) {
    size_t matched = 0;
    for (const std::string& r : records) {
      if (!KeyInSubtree(base, PeekEntryKey(r).ValueOrDie())) continue;
      Result<EntryView> view = EntryView::Parse(r, &slow);
      if (view.ok() && filter.Matches(*view)) ++matched;
    }
    benchmark::DoNotOptimize(matched);
  }
  SetTimePerRecord(state, records.size());
}
BENCHMARK(BM_ScanMatchView)->Unit(benchmark::kMillisecond);

// Heap bytes in use, per mallinfo2().
double HeapInUse() {
  struct mallinfo2 m = mallinfo2();
  return static_cast<double>(m.uordblks + m.hblkhd);
}

// Heap bytes per entry that the generated DirectoryInstance keeps, as the
// growth of mallinfo2()'s in-use bytes across its construction.
void BM_InstanceFootprint(benchmark::State& state) {
  double bytes = 0, entries = 0;
  for (auto _ : state) {
    double before = HeapInUse();
    DirectoryInstance inst = gen::GenerateDif(Dif64k());
    bytes = HeapInUse() - before;
    entries = static_cast<double>(inst.size());
    benchmark::DoNotOptimize(inst);
  }
  state.counters["entries"] = entries;
  state.counters["bytes_per_entry"] = bytes / entries;
}
BENCHMARK(BM_InstanceFootprint)->Iterations(1)->Unit(benchmark::kMillisecond);

// The statistics stage of a bulk load: StoreStats::AddEntry over every
// entry of the DIF, what EntryStore::BulkLoad pays per entry beside
// serializing it. With arg 1 the same walk also folds the page synopses,
// each entry into the page the bulk load starts it in, and finishes them:
// the difference is the synopses' share of BM_BulkLoad. Freeing the
// folded stats and synopses is not timed.
void BM_StatsFold(benchmark::State& state) {
  const DirectoryInstance inst = gen::GenerateDif(Dif64k());
  const bool synopses = state.range(0) != 0;
  // The page each entry starts in, from the bulk-loaded segment.
  SimDisk disk;
  const EntryStore store = EntryStore::BulkLoad(&disk, inst).TakeValue();
  std::vector<uint64_t> pages;
  for (size_t r = 0, c = 0; r < inst.size(); ++r) {
    const std::vector<RunRestart>& restarts = store.run().restarts;
    while (c + 1 < restarts.size() && restarts[c + 1].record <= r) ++c;
    pages.push_back(restarts[c].offset / disk.page_size());
  }
  for (auto _ : state) {
    std::optional<StoreStats> stats(std::in_place);
    std::optional<PageSynopses> built;
    if (synopses) {
      PageSynopses::Builder builder;
      size_t r = 0;
      for (const auto& [key, entry] : inst) {
        builder.StartRecord(pages[r++]);
        stats->AddEntry(entry, &builder);
      }
      built.emplace(builder.Finish(store.num_pages()));
    } else {
      for (const auto& [key, entry] : inst) stats->AddEntry(entry);
    }
    benchmark::DoNotOptimize(*stats);
    state.PauseTiming();
    stats.reset();
    built.reset();
    state.ResumeTiming();
  }
  SetTimePerRecord(state, inst.size());
}
BENCHMARK(BM_StatsFold)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// A whole bulk load of the DIF, EntryStore::BulkLoad: every entry
// serialized into the segment, with the statistics and page-synopsis fold
// beside it. Reports the segment's pages and the synopses' heap bytes per
// page. Freeing the segment is not timed.
void BM_BulkLoad(benchmark::State& state) {
  const DirectoryInstance inst = gen::GenerateDif(Dif64k());
  SimDisk disk;
  double pages = 0, synopsis_bytes = 0;
  for (auto _ : state) {
    EntryStore store = EntryStore::BulkLoad(&disk, inst).TakeValue();
    pages = static_cast<double>(store.num_pages());
    synopsis_bytes = static_cast<double>(store.synopses()->bytes());
    state.PauseTiming();
    benchmark::DoNotOptimize(store.Destroy());
    state.ResumeTiming();
  }
  SetTimePerRecord(state, inst.size());
  state.counters["pages"] = pages;
  state.counters["synopsis_bytes"] = synopsis_bytes;
  state.counters["synopsis_bytes_per_page"] = synopsis_bytes / pages;
}
BENCHMARK(BM_BulkLoad)->Unit(benchmark::kMillisecond);

// Heap bytes per entry of the statistics a bulk load of the DIF keeps, as
// the growth of mallinfo2()'s in-use bytes across the fold.
void BM_StatsFootprint(benchmark::State& state) {
  const DirectoryInstance inst = gen::GenerateDif(Dif64k());
  double bytes = 0, nodes = 0;
  for (auto _ : state) {
    double before = HeapInUse();
    StoreStats stats;
    for (const auto& [key, entry] : inst) stats.AddEntry(entry);
    bytes = HeapInUse() - before;
    nodes = static_cast<double>(stats.num_sketch_nodes());
    benchmark::DoNotOptimize(stats);
  }
  state.counters["entries"] = static_cast<double>(inst.size());
  state.counters["bytes_per_entry"] = bytes / static_cast<double>(inst.size());
  state.counters["sketch_nodes"] = nodes;
}
BENCHMARK(BM_StatsFootprint)->Iterations(1)->Unit(benchmark::kMillisecond);

// What DirectoryStore::Apply pays for the statistics per update batch: one
// copy of the store's StoreStats (its destruction included), here folded
// over a DIF of (orgs, subdomains per org) = (1, 2), 8k entries, or
// (4, 4), 64k entries.
void BM_StatsCopy(benchmark::State& state) {
  gen::DifOptions opt = Dif64k();
  opt.num_orgs = static_cast<int>(state.range(0));
  opt.subdomains_per_org = static_cast<int>(state.range(1));
  StoreStats stats;
  for (const auto& [key, entry] : gen::GenerateDif(opt)) {
    stats.AddEntry(entry);
  }
  for (auto _ : state) {
    StoreStats copy(stats);
    benchmark::DoNotOptimize(copy);
  }
  state.counters["entries"] = static_cast<double>(stats.num_entries());
}
BENCHMARK(BM_StatsCopy)->Args({1, 2})->Args({4, 4})->Unit(
    benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
