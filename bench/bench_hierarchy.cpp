// E2/E3/E4 — stack-based hierarchical selection (Figs. 2, 4, 5;
// Theorem 5.1).
// Claims: ComputeHSPC / ComputeHSAD / ComputeHSADc run in O((|L1|+|L2|
// [+|L3|])/B) page I/Os; the straightforward per-entry witness test is
// quadratic; the stack algorithms win by orders of magnitude past small
// inputs.

#include "bench_util.h"
#include "exec/hierarchy.h"
#include "exec/naive.h"

using namespace ndq;
using namespace ndq::bench;

namespace {

uint64_t MeasureStack(OperandLists* lists, QueryOp op, bool constrained) {
  uint64_t before = lists->disk.stats().TotalTransfers();
  EntryList out =
      EvalHierarchy(&lists->disk, op, lists->l1, lists->l2,
                    constrained ? &lists->l3 : nullptr, std::nullopt)
          .TakeValue();
  uint64_t io = lists->disk.stats().TotalTransfers() - before;
  FreeRun(&lists->disk, &out).ok();
  return io;
}

uint64_t MeasureNaive(OperandLists* lists, QueryOp op, bool constrained) {
  uint64_t before = lists->disk.stats().TotalTransfers();
  EntryList out = NaiveHierarchy(&lists->disk, op, lists->l1, lists->l2,
                                 constrained ? &lists->l3 : nullptr)
                      .TakeValue();
  uint64_t io = lists->disk.stats().TotalTransfers() - before;
  FreeRun(&lists->disk, &out).ok();
  return io;
}

void Sweep(QueryOp op, bool constrained, bool with_naive) {
  std::printf("\noperator %s (%s)\n", QueryOpToString(op),
              constrained ? "Fig. 5 / ComputeHSADc"
                          : "Figs. 2+4 / ComputeHSPC+HSAD");
  std::printf("%10s %9s | %10s %14s | %10s %10s\n", "entries", "in_pages",
              "io(stack)", "io/in_pages", "io(naive)", "naive/stack");
  std::vector<uint64_t> xs, ys, yn;
  for (size_t n : {2000, 4000, 8000, 16000, 32000}) {
    OperandLists lists(n);
    uint64_t io = MeasureStack(&lists, op, constrained);
    uint64_t naive_io = 0;
    if (with_naive && n <= 8000) {
      naive_io = MeasureNaive(&lists, op, constrained);
    }
    uint64_t in_pages = lists.InputPages();
    std::printf("%10zu %9llu | %10llu %14.2f |", n,
                (unsigned long long)in_pages, (unsigned long long)io,
                static_cast<double>(io) / in_pages);
    if (naive_io > 0) {
      std::printf(" %10llu %10.1fx\n", (unsigned long long)naive_io,
                  static_cast<double>(naive_io) / io);
    } else {
      std::printf("%10s %10s\n", "-", "-");
    }
    xs.push_back(in_pages);
    ys.push_back(io);
    if (naive_io > 0) yn.push_back(naive_io);
  }
  PrintGrowth(xs, ys, "io(stack)");
  if (yn.size() > 1) {
    std::vector<uint64_t> xn(xs.begin(), xs.begin() + yn.size());
    PrintGrowth(xn, yn, "io(naive)");
  }
}

}  // namespace

int main() {
  PrintHeader("E2/E3/E4: hierarchical selection I/O (bench_hierarchy)",
              "stack algorithms linear; naive witness test quadratic");
  Sweep(QueryOp::kParents, false, true);
  Sweep(QueryOp::kChildren, false, true);
  Sweep(QueryOp::kAncestors, false, true);
  Sweep(QueryOp::kDescendants, false, true);
  Sweep(QueryOp::kCoAncestors, true, true);
  Sweep(QueryOp::kCoDescendants, true, true);
  std::printf(
      "\nexpected: io(stack) ~2x per 2x input (linear; descendant-direction"
      "\nops read their runs backwards at the ancestor direction's cost);"
      "\nio(naive) ~4x per 2x input (quadratic).\n");
  return 0;
}
