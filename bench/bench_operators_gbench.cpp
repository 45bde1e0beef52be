// Wall-clock microbenchmarks (google-benchmark) for the core operators and
// application paths. The I/O-complexity validation lives in the dedicated
// experiment harnesses (E1-E14); this binary tracks CPU-side throughput so
// regressions in the hot loops (merges, stack passes, serde) are visible.

#include <benchmark/benchmark.h>

#include "apps/tops.h"
#include "bench_util.h"
#include "exec/boolean.h"
#include "exec/embedded_ref.h"
#include "exec/hierarchy.h"
#include "gen/dif_gen.h"
#include "gen/paper_data.h"
#include "query/parser.h"

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

}  // namespace

BENCHMARK_MAIN();
