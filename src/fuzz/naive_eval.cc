#include "fuzz/naive_eval.h"

#include <vector>

#include "exec/atomic.h"
#include "exec/naive.h"

namespace ndq {
namespace fuzz {

namespace {

// In-memory boolean set operation on two sorted entry vectors. Keys are
// unique within each list (entries of an instance), so a two-pointer walk
// suffices and the output stays in key order.
std::vector<const Entry*> BooleanMerge(QueryOp op,
                                       const std::vector<Entry>& a,
                                       const std::vector<Entry>& b) {
  std::vector<const Entry*> out;
  size_t i = 0, j = 0;
  while (i < a.size() || j < b.size()) {
    if (j >= b.size() ||
        (i < a.size() && a[i].HierKey() < b[j].HierKey())) {
      if (op != QueryOp::kAnd) out.push_back(&a[i]);
      ++i;
    } else if (i >= a.size() || b[j].HierKey() < a[i].HierKey()) {
      if (op == QueryOp::kOr) out.push_back(&b[j]);
      ++j;
    } else {
      if (op != QueryOp::kDiff) out.push_back(&a[i]);
      ++i;
      ++j;
    }
  }
  return out;
}

}  // namespace

Result<EntryList> NaiveEvaluate(Disk* disk, const EntrySource& store,
                                const Query& query) {
  switch (query.op()) {
    case QueryOp::kAtomic:
      return EvalAtomic(disk, store, query.base(), query.scope(),
                        query.filter());
    case QueryOp::kLdap:
      return EvalLdap(disk, store, query.base(), query.scope(),
                      *query.ldap_filter());
    case QueryOp::kAnd:
    case QueryOp::kOr:
    case QueryOp::kDiff: {
      NDQ_ASSIGN_OR_RETURN(EntryList r1,
                           NaiveEvaluate(disk, store, *query.q1()));
      ScopedRun l1(disk, std::move(r1));
      NDQ_ASSIGN_OR_RETURN(EntryList r2,
                           NaiveEvaluate(disk, store, *query.q2()));
      ScopedRun l2(disk, std::move(r2));
      NDQ_ASSIGN_OR_RETURN(std::vector<Entry> a,
                           ReadEntryList(disk, l1.get()));
      NDQ_ASSIGN_OR_RETURN(std::vector<Entry> b,
                           ReadEntryList(disk, l2.get()));
      std::vector<const Entry*> merged = BooleanMerge(query.op(), a, b);
      Result<EntryList> out = MakeEntryList(disk, merged);
      if (!out.ok()) return out;
      ScopedRun out_guard(disk, out.TakeValue());
      NDQ_RETURN_IF_ERROR(l1.Free());
      NDQ_RETURN_IF_ERROR(l2.Free());
      return out_guard.Release();
    }
    case QueryOp::kSimpleAgg: {
      NDQ_ASSIGN_OR_RETURN(EntryList r1,
                           NaiveEvaluate(disk, store, *query.q1()));
      ScopedRun l1(disk, std::move(r1));
      Result<EntryList> out = EvalSimpleAgg(disk, l1.get(), *query.agg());
      if (!out.ok()) return out;
      ScopedRun out_guard(disk, out.TakeValue());
      NDQ_RETURN_IF_ERROR(l1.Free());
      return out_guard.Release();
    }
    case QueryOp::kParents:
    case QueryOp::kChildren:
    case QueryOp::kAncestors:
    case QueryOp::kDescendants:
    case QueryOp::kCoAncestors:
    case QueryOp::kCoDescendants: {
      const bool constrained = query.q3() != nullptr;
      NDQ_ASSIGN_OR_RETURN(EntryList r1,
                           NaiveEvaluate(disk, store, *query.q1()));
      ScopedRun l1(disk, std::move(r1));
      NDQ_ASSIGN_OR_RETURN(EntryList r2,
                           NaiveEvaluate(disk, store, *query.q2()));
      ScopedRun l2(disk, std::move(r2));
      ScopedRun l3;
      if (constrained) {
        NDQ_ASSIGN_OR_RETURN(EntryList r3,
                             NaiveEvaluate(disk, store, *query.q3()));
        l3 = ScopedRun(disk, std::move(r3));
      }
      Result<EntryList> out =
          NaiveHierarchy(disk, query.op(), l1.get(), l2.get(),
                         constrained ? &l3.get() : nullptr, query.agg());
      if (!out.ok()) return out;
      ScopedRun out_guard(disk, out.TakeValue());
      NDQ_RETURN_IF_ERROR(l1.Free());
      NDQ_RETURN_IF_ERROR(l2.Free());
      NDQ_RETURN_IF_ERROR(l3.Free());
      return out_guard.Release();
    }
    case QueryOp::kValueDn:
    case QueryOp::kDnValue: {
      NDQ_ASSIGN_OR_RETURN(EntryList r1,
                           NaiveEvaluate(disk, store, *query.q1()));
      ScopedRun l1(disk, std::move(r1));
      NDQ_ASSIGN_OR_RETURN(EntryList r2,
                           NaiveEvaluate(disk, store, *query.q2()));
      ScopedRun l2(disk, std::move(r2));
      Result<EntryList> out =
          NaiveEmbeddedRef(disk, query.op(), l1.get(), l2.get(),
                           query.ref_attr(), query.agg());
      if (!out.ok()) return out;
      ScopedRun out_guard(disk, out.TakeValue());
      NDQ_RETURN_IF_ERROR(l1.Free());
      NDQ_RETURN_IF_ERROR(l2.Free());
      return out_guard.Release();
    }
  }
  return Status::Internal("unreachable query op in NaiveEvaluate");
}

}  // namespace fuzz
}  // namespace ndq
