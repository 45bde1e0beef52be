#include "query/reference.h"

#include <algorithm>

namespace ndq {

namespace {

using EntryVec = std::vector<const Entry*>;

bool KeyLess(const Entry* a, const Entry* b) {
  return a->HierKey() < b->HierKey();
}

EntryVec SetAnd(const EntryVec& a, const EntryVec& b) {
  EntryVec out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out), KeyLess);
  return out;
}

EntryVec SetOr(const EntryVec& a, const EntryVec& b) {
  EntryVec out;
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out), KeyLess);
  return out;
}

EntryVec SetDiff(const EntryVec& a, const EntryVec& b) {
  EntryVec out;
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(out), KeyLess);
  return out;
}

// True iff r2 stands in the op-relation to r1 (r1 from Q1's result).
bool Related(QueryOp op, const Entry& r1, const Entry& r2) {
  switch (op) {
    case QueryOp::kParents:
      return r2.dn().IsParentOf(r1.dn());
    case QueryOp::kChildren:
      return r2.dn().IsChildOf(r1.dn());
    case QueryOp::kAncestors:
    case QueryOp::kCoAncestors:
      return r2.dn().IsAncestorOf(r1.dn());
    case QueryOp::kDescendants:
    case QueryOp::kCoDescendants:
      return r2.dn().IsDescendantOf(r1.dn());
    default:
      return false;
  }
}

}  // namespace

std::vector<const Entry*> WitnessSet(QueryOp op, const Entry& r1,
                                     const std::vector<const Entry*>& m2,
                                     const std::vector<const Entry*>& m3,
                                     const std::string& ref_attr) {
  EntryVec ws;
  switch (op) {
    case QueryOp::kParents:
    case QueryOp::kChildren:
    case QueryOp::kAncestors:
    case QueryOp::kDescendants:
      for (const Entry* r2 : m2) {
        if (Related(op, r1, *r2)) ws.push_back(r2);
      }
      break;
    case QueryOp::kCoAncestors:
      // r2 is an ancestor of r1 with no intervening r3 in M3: no r3 != r1,
      // r3 != r2 with r3 ancestor of r1 and r2 ancestor of r3.
      for (const Entry* r2 : m2) {
        if (!r2->dn().IsAncestorOf(r1.dn())) continue;
        bool blocked = false;
        for (const Entry* r3 : m3) {
          if (r3 == &r1 || r3 == r2) continue;
          if (r3->dn().IsAncestorOf(r1.dn()) &&
              r2->dn().IsAncestorOf(r3->dn())) {
            blocked = true;
            break;
          }
        }
        if (!blocked) ws.push_back(r2);
      }
      break;
    case QueryOp::kCoDescendants:
      for (const Entry* r2 : m2) {
        if (!r2->dn().IsDescendantOf(r1.dn())) continue;
        bool blocked = false;
        for (const Entry* r3 : m3) {
          if (r3 == &r1 || r3 == r2) continue;
          if (r3->dn().IsDescendantOf(r1.dn()) &&
              r2->dn().IsDescendantOf(r3->dn())) {
            blocked = true;
            break;
          }
        }
        if (!blocked) ws.push_back(r2);
      }
      break;
    case QueryOp::kValueDn:
      // r1 references r2: (a, dn(r2)) in val(r1).
      for (const Entry* r2 : m2) {
        if (r1.HasPair(ref_attr, Value::DnRef(r2->dn().ToString()))) {
          ws.push_back(r2);
        }
      }
      break;
    case QueryOp::kDnValue:
      // r2 references r1: (a, dn(r1)) in val(r2).
      for (const Entry* r2 : m2) {
        if (r2->HasPair(ref_attr, Value::DnRef(r1.dn().ToString()))) {
          ws.push_back(r2);
        }
      }
      break;
    default:
      break;
  }
  return ws;
}

namespace {

// Evaluates an entry aggregate ea[r, ws] (Def. 6.2; Def. 6.1 is the
// special case with kSelfAttr targets).
std::optional<int64_t> EvalEntryAgg(const EntryAgg& ea, const Entry& r,
                                    const EntryVec& ws) {
  AggAccumulator acc(ea.fn);
  switch (ea.target) {
    case AggTarget::kSelfAttr:
      for (const Value& v : r.Values(ea.attr)) acc.AddValue(v);
      break;
    case AggTarget::kWitnessAttr:
      for (const Entry* w : ws) {
        for (const Value& v : w->Values(ea.attr)) acc.AddValue(v);
      }
      break;
    case AggTarget::kWitnessCount:
      for (size_t i = 0; i < ws.size(); ++i) acc.AddUnit();
      break;
  }
  return acc.Finish();
}

struct AggContext {
  const EntryVec& m1;
  // Witness set per entry of m1 (parallel vector); empty vectors for
  // simple aggregate selection.
  const std::vector<EntryVec>& witness_sets;
  bool structural;  // whether $2 references are meaningful
};

Result<std::optional<int64_t>> EvalAggAttr(const AggAttr& aa, size_t idx,
                                           const AggContext& ctx) {
  switch (aa.kind) {
    case AggAttr::Kind::kConst:
      return std::optional<int64_t>(aa.constant);
    case AggAttr::Kind::kEntry: {
      if (!ctx.structural && aa.entry.target != AggTarget::kSelfAttr) {
        return Status::InvalidArgument(
            "$2 reference in simple aggregate selection");
      }
      return EvalEntryAgg(aa.entry, *ctx.m1[idx], ctx.witness_sets[idx]);
    }
    case AggAttr::Kind::kEntrySet: {
      if (aa.set_form == AggAttr::SetForm::kCountSet) {
        return std::optional<int64_t>(static_cast<int64_t>(ctx.m1.size()));
      }
      if (!ctx.structural && aa.entry.target != AggTarget::kSelfAttr) {
        return Status::InvalidArgument(
            "$2 reference in simple aggregate selection");
      }
      AggAccumulator acc(aa.outer_fn);
      for (size_t i = 0; i < ctx.m1.size(); ++i) {
        std::optional<int64_t> v =
            EvalEntryAgg(aa.entry, *ctx.m1[i], ctx.witness_sets[i]);
        if (v.has_value()) acc.AddInt(*v);
      }
      return acc.Finish();
    }
  }
  return Status::Internal("unreachable AggAttr kind");
}

// Applies an aggregate selection filter over m1 (+ witness sets), keeping
// the entries whose comparison holds.
Result<EntryVec> ApplyAggSelection(const AggSelFilter& agg,
                                   const AggContext& ctx) {
  EntryVec out;
  for (size_t i = 0; i < ctx.m1.size(); ++i) {
    NDQ_ASSIGN_OR_RETURN(std::optional<int64_t> lhs,
                         EvalAggAttr(agg.lhs, i, ctx));
    NDQ_ASSIGN_OR_RETURN(std::optional<int64_t> rhs,
                         EvalAggAttr(agg.rhs, i, ctx));
    if (CompareAgg(lhs, agg.op, rhs)) out.push_back(ctx.m1[i]);
  }
  return out;
}

}  // namespace

Result<std::vector<const Entry*>> EvaluateReference(
    const Query& query, const DirectoryInstance& instance) {
  switch (query.op()) {
    case QueryOp::kAtomic: {
      EntryVec out;
      for (const Entry* e :
           instance.EntriesInScope(query.base(), query.scope())) {
        if (query.filter().Matches(*e)) out.push_back(e);
      }
      return out;
    }
    case QueryOp::kLdap: {
      EntryVec out;
      for (const Entry* e :
           instance.EntriesInScope(query.base(), query.scope())) {
        if (query.ldap_filter()->Matches(*e)) out.push_back(e);
      }
      return out;
    }
    case QueryOp::kAnd:
    case QueryOp::kOr:
    case QueryOp::kDiff: {
      NDQ_ASSIGN_OR_RETURN(EntryVec a,
                           EvaluateReference(*query.q1(), instance));
      NDQ_ASSIGN_OR_RETURN(EntryVec b,
                           EvaluateReference(*query.q2(), instance));
      if (query.op() == QueryOp::kAnd) return SetAnd(a, b);
      if (query.op() == QueryOp::kOr) return SetOr(a, b);
      return SetDiff(a, b);
    }
    case QueryOp::kSimpleAgg: {
      NDQ_ASSIGN_OR_RETURN(EntryVec m1,
                           EvaluateReference(*query.q1(), instance));
      std::vector<EntryVec> empty_ws(m1.size());
      AggContext ctx{m1, empty_ws, /*structural=*/false};
      return ApplyAggSelection(*query.agg(), ctx);
    }
    case QueryOp::kParents:
    case QueryOp::kChildren:
    case QueryOp::kAncestors:
    case QueryOp::kDescendants:
    case QueryOp::kCoAncestors:
    case QueryOp::kCoDescendants:
    case QueryOp::kValueDn:
    case QueryOp::kDnValue: {
      NDQ_ASSIGN_OR_RETURN(EntryVec m1,
                           EvaluateReference(*query.q1(), instance));
      NDQ_ASSIGN_OR_RETURN(EntryVec m2,
                           EvaluateReference(*query.q2(), instance));
      EntryVec m3;
      if (query.q3() != nullptr) {
        NDQ_ASSIGN_OR_RETURN(m3, EvaluateReference(*query.q3(), instance));
      }
      std::vector<EntryVec> witness_sets;
      witness_sets.reserve(m1.size());
      for (const Entry* r1 : m1) {
        witness_sets.push_back(
            WitnessSet(query.op(), *r1, m2, m3, query.ref_attr()));
      }
      if (query.agg().has_value()) {
        AggContext ctx{m1, witness_sets, /*structural=*/true};
        return ApplyAggSelection(*query.agg(), ctx);
      }
      // Pure existential semantics (Defs. 5.1, 7.1): keep entries with a
      // non-empty witness set. (Equivalently count($2) > 0, Sec. 6.2.)
      EntryVec out;
      for (size_t i = 0; i < m1.size(); ++i) {
        if (!witness_sets[i].empty()) out.push_back(m1[i]);
      }
      return out;
    }
  }
  return Status::Internal("unreachable query op");
}

}  // namespace ndq
