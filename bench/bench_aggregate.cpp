// E5/E6 — aggregate selection (Theorems 6.1 and 6.2; Fig. 6).
// Claims: simple aggregate selection "(g L AS)" needs at most two scans of
// the input; structural aggregate selection (ComputeHSAgg*) keeps the
// linear I/O of the plain hierarchy operators for every distributive /
// algebraic aggregate, including the two-phase entry-set aggregates like
// count($2)=max(count($2)).

#include "bench_util.h"
#include "exec/common.h"
#include "exec/hierarchy.h"

using namespace ndq;
using namespace ndq::bench;

namespace {

uint64_t MeasureSimple(OperandLists* lists, const char* filter_text) {
  AggSelFilter f = ParseAggSelFilter(filter_text).TakeValue();
  uint64_t before = lists->disk.stats().TotalTransfers();
  EntryList out = EvalSimpleAgg(&lists->disk, lists->l1, f).TakeValue();
  uint64_t io = lists->disk.stats().TotalTransfers() - before;
  FreeRun(&lists->disk, &out).ok();
  return io;
}

uint64_t MeasureStructural(OperandLists* lists, QueryOp op,
                           const char* filter_text) {
  AggSelFilter f = ParseAggSelFilter(filter_text).TakeValue();
  uint64_t before = lists->disk.stats().TotalTransfers();
  EntryList out = EvalHierarchy(&lists->disk, op, lists->l1, lists->l2,
                                nullptr, f)
                      .TakeValue();
  uint64_t io = lists->disk.stats().TotalTransfers() - before;
  FreeRun(&lists->disk, &out).ok();
  return io;
}

}  // namespace

int main() {
  PrintHeader("E5: simple aggregate selection (bench_aggregate)",
              "Theorem 6.1 — <= 2 scans of L + output, linear I/O");
  std::printf("%10s %9s | %12s %18s | %s\n", "entries", "l1_pages",
              "io(count>1)", "io(min=min(min))", "io/l1_pages");
  {
    std::vector<uint64_t> xs, ys;
    for (size_t n : {4000, 8000, 16000, 32000, 64000}) {
      OperandLists lists(n);
      uint64_t io1 = MeasureSimple(&lists, "count(x)>1");
      uint64_t io2 = MeasureSimple(&lists, "min(x)=min(min(x))");
      std::printf("%10zu %9llu | %12llu %18llu | %.2f\n", n,
                  (unsigned long long)lists.l1.pages.size(),
                  (unsigned long long)io1, (unsigned long long)io2,
                  static_cast<double>(io2) / lists.l1.pages.size());
      xs.push_back(lists.l1.pages.size());
      ys.push_back(io2);
    }
    PrintGrowth(xs, ys, "io(entry-set agg)");
  }

  PrintHeader("E6: structural aggregate selection (bench_aggregate)",
              "Theorem 6.2 / Fig. 6 — ComputeHSAgg linear for all "
              "aggregates");
  const struct {
    const char* label;
    QueryOp op;
    const char* filter;
  } cases[] = {
      {"d + count($2)>3", QueryOp::kDescendants, "count($2)>3"},
      {"a + min($2.x)<5", QueryOp::kAncestors, "min($2.x)<5"},
      {"c + sum($2.x)>=10", QueryOp::kChildren, "sum($2.x)>=10"},
      {"p + average($2.x)<=9", QueryOp::kParents, "average($2.x)<=9"},
      {"d + count($2)=max(count($2))", QueryOp::kDescendants,
       "count($2)=max(count($2))"},
      {"a + min($2.x)=min(min($2.x))", QueryOp::kAncestors,
       "min($2.x)=min(min($2.x))"},
  };
  for (const auto& c : cases) {
    std::printf("\n%s\n", c.label);
    std::printf("%10s %9s | %10s %12s\n", "entries", "in_pages", "io",
                "io/in_pages");
    std::vector<uint64_t> xs, ys;
    for (size_t n : {4000, 8000, 16000, 32000}) {
      OperandLists lists(n);
      uint64_t io = MeasureStructural(&lists, c.op, c.filter);
      uint64_t in_pages =
          lists.l1.pages.size() + lists.l2.pages.size();
      std::printf("%10zu %9llu | %10llu %12.2f\n", n,
                  (unsigned long long)in_pages, (unsigned long long)io,
                  static_cast<double>(io) / in_pages);
      xs.push_back(in_pages);
      ys.push_back(io);
    }
    PrintGrowth(xs, ys, "io");
  }
  std::printf("\nexpected: ~2x io per 2x input everywhere (linear); the\n"
              "entry-set variants add one extra linear scan, not a sort.\n");
  return 0;
}
