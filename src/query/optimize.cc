#include "query/optimize.h"

#include <algorithm>
#include <tuple>
#include <vector>

#include "exec/cost.h"
#include "filter/ldap_filter.h"
#include "query/fingerprint.h"
#include "store/stats.h"

namespace ndq {

namespace {

bool IsLeafOp(QueryOp op) {
  return op == QueryOp::kAtomic || op == QueryOp::kLdap;
}

bool IsHierarchySelection(QueryOp op) {
  switch (op) {
    case QueryOp::kParents:
    case QueryOp::kChildren:
    case QueryOp::kAncestors:
    case QueryOp::kDescendants:
    case QueryOp::kCoAncestors:
    case QueryOp::kCoDescendants:
      return true;
    default:
      return false;
  }
}

// The cheapest equivalent of a proven-empty subtree. For a leaf, the
// same never-matching filter at base scope (M(base-scoped) is a subset
// of the empty M(original), and the scan touches ~1 page instead of the
// whole range). Operator nodes were already minimized bottom-up, so they
// pass through unchanged.
QueryPtr EmptyWitness(const QueryPtr& q) {
  if (q->op() == QueryOp::kAtomic && q->scope() != Scope::kBase) {
    return Query::Atomic(q->base(), Scope::kBase, q->filter());
  }
  if (q->op() == QueryOp::kLdap && q->scope() != Scope::kBase) {
    return Query::Ldap(q->base(), Scope::kBase, q->ldap_filter());
  }
  return q;
}

// Rebuilds `q`'s node kind over new operands.
QueryPtr Rebuild(const Query& q, QueryPtr q1, QueryPtr q2, QueryPtr q3) {
  switch (q.op()) {
    case QueryOp::kAtomic:
    case QueryOp::kLdap:
      return nullptr;  // leaves are never rebuilt
    case QueryOp::kAnd:
      return Query::And(std::move(q1), std::move(q2));
    case QueryOp::kOr:
      return Query::Or(std::move(q1), std::move(q2));
    case QueryOp::kDiff:
      return Query::Diff(std::move(q1), std::move(q2));
    case QueryOp::kSimpleAgg:
      return Query::SimpleAgg(std::move(q1), *q.agg());
    case QueryOp::kValueDn:
    case QueryOp::kDnValue:
      return Query::EmbeddedRef(q.op(), std::move(q1), std::move(q2),
                                q.ref_attr(), q.agg());
    default:
      if (q3 != nullptr) {
        return Query::HierarchyConstrained(q.op(), std::move(q1),
                                           std::move(q2), std::move(q3),
                                           q.agg());
      }
      return Query::Hierarchy(q.op(), std::move(q1), std::move(q2),
                              q.agg());
  }
}

struct Ctx {
  const EntrySource& store;
  OptimizeStats stats;
  // Every estimate of the pass prices its leaves' scans once.
  ScanEstimates scans;

  CostEstimate Estimate(const Query& q) {
    return EstimateCost(store, q, &scans);
  }
  // The cost model's cardinalities are upper bounds, so an estimate of 0
  // PROVES the subtree selects nothing on this store snapshot.
  bool ProvablyEmpty(const Query& q) {
    return Estimate(q).output_records <= 0.0;
  }
};

QueryPtr OptimizeNode(Ctx* ctx, const QueryPtr& q);

// Flattens a same-op &/| chain into its operand list (left to right).
void Flatten(QueryOp op, const QueryPtr& q, std::vector<QueryPtr>* out) {
  if (q->op() == op) {
    Flatten(op, q->q1(), out);
    Flatten(op, q->q2(), out);
  } else {
    out->push_back(q);
  }
}

// Orders &/| operands most-selective/cheapest first, with the
// fingerprint as a deterministic tiebreak so permutations of the same
// operand set rebuild into one canonical left-deep chain (which batch
// sub-plan sharing then recognizes).
QueryPtr ReorderChain(Ctx* ctx, const QueryPtr& node) {
  std::vector<QueryPtr> operands;
  Flatten(node->op(), node, &operands);
  if (operands.size() < 2) return node;
  struct Keyed {
    QueryPtr q;
    double records;
    double pages;
    std::string fp;
  };
  std::vector<Keyed> keyed;
  keyed.reserve(operands.size());
  for (const QueryPtr& op : operands) {
    CostEstimate est = ctx->Estimate(*op);
    keyed.push_back(
        {op, est.output_records, est.TotalPages(), QueryFingerprint(*op)});
  }
  std::vector<size_t> order(keyed.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return std::tie(keyed[a].records, keyed[a].pages, keyed[a].fp) <
           std::tie(keyed[b].records, keyed[b].pages, keyed[b].fp);
  });
  size_t moved = 0;
  for (size_t i = 0; i < order.size(); ++i) {
    if (order[i] != i) ++moved;
  }
  if (moved == 0) return node;
  ctx->stats.reordered_operands += moved;
  QueryPtr chain = keyed[order[0]].q;
  for (size_t i = 1; i < order.size(); ++i) {
    chain = node->op() == QueryOp::kAnd
                ? Query::And(chain, keyed[order[i]].q)
                : Query::Or(chain, keyed[order[i]].q);
  }
  return chain;
}

// Flattens same-op &/| nesting inside an LDAP filter (associativity).
void FlattenLdap(LdapFilter::Op op, const LdapFilterPtr& f,
                 std::vector<LdapFilterPtr>* out) {
  if (f->op() == op) {
    for (const LdapFilterPtr& c : f->children()) FlattenLdap(op, c, out);
  } else {
    out->push_back(f);
  }
}

// Canonicalizes an LDAP filter bottom-up: flattens same-op nesting,
// drops provably-empty `|` disjuncts (a short-circuit: the histogram
// proves they select nothing on this snapshot), and orders &/| operand
// lists cheapest-first with the filter text as a deterministic tiebreak.
// Every permutation of one operand set therefore renders identically —
// which makes merged-leaf fingerprints canonical for batch sharing — and
// the per-entry evaluator tests selective terms first.
LdapFilterPtr CanonicalizeLdap(Ctx* ctx, const StoreStats& stats,
                               const LdapFilterPtr& f, bool* changed) {
  switch (f->op()) {
    case LdapFilter::Op::kAtomic:
      return f;
    case LdapFilter::Op::kNot: {
      bool child_changed = false;
      LdapFilterPtr child =
          CanonicalizeLdap(ctx, stats, f->children()[0], &child_changed);
      if (!child_changed) return f;
      *changed = true;
      return LdapFilter::Not(std::move(child));
    }
    case LdapFilter::Op::kAnd:
    case LdapFilter::Op::kOr: {
      std::vector<LdapFilterPtr> flat;
      FlattenLdap(f->op(), f, &flat);
      bool structural = flat.size() != f->children().size();
      std::vector<LdapFilterPtr> kids;
      kids.reserve(flat.size());
      for (const LdapFilterPtr& c : flat) {
        bool cc = false;
        LdapFilterPtr canon = CanonicalizeLdap(ctx, stats, c, &cc);
        structural |= cc;
        // A canonicalized child may have collapsed into this node's own
        // op (e.g. an | reduced to its one surviving &): splice it.
        if (canon->op() == f->op()) {
          for (const LdapFilterPtr& gc : canon->children())
            kids.push_back(gc);
        } else {
          kids.push_back(std::move(canon));
        }
      }
      if (f->op() == LdapFilter::Op::kOr && kids.size() > 1) {
        std::vector<LdapFilterPtr> kept;
        for (const LdapFilterPtr& c : kids) {
          if (stats.EstimateLdapMatches(*c) == 0) continue;
          kept.push_back(c);
        }
        if (kept.size() < kids.size()) {
          // Keep one witness disjunct when everything proved empty.
          if (kept.empty()) kept.push_back(kids[0]);
          ctx->stats.short_circuits += kids.size() - kept.size();
          kids = std::move(kept);
          structural = true;
        }
      }
      if (kids.size() == 1) {
        *changed = true;
        return kids[0];
      }
      struct Keyed {
        uint64_t est;
        std::string text;
      };
      std::vector<Keyed> keyed;
      keyed.reserve(kids.size());
      for (const LdapFilterPtr& c : kids) {
        keyed.push_back({stats.EstimateLdapMatches(*c), c->ToString()});
      }
      std::vector<size_t> order(kids.size());
      for (size_t i = 0; i < order.size(); ++i) order[i] = i;
      std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return std::tie(keyed[a].est, keyed[a].text) <
               std::tie(keyed[b].est, keyed[b].text);
      });
      size_t moved = 0;
      for (size_t i = 0; i < order.size(); ++i) {
        if (order[i] != i) ++moved;
      }
      if (moved != 0) {
        ctx->stats.reordered_operands += moved;
        structural = true;
      }
      if (!structural) return f;
      *changed = true;
      std::vector<LdapFilterPtr> sorted;
      sorted.reserve(kids.size());
      for (size_t i : order) sorted.push_back(kids[i]);
      return f->op() == LdapFilter::Op::kAnd
                 ? LdapFilter::And(std::move(sorted))
                 : LdapFilter::Or(std::move(sorted));
    }
  }
  return f;
}

// (& F (h Q1 Q2 [agg])) -> (h (& F Q1) Q2 [agg]) for a leaf F. Legal iff
// the node's aggregate filter (if any) uses no entry-set aggregates:
// those read all of M(Q1) (count($1), agg($1), ...) and shrinking M(Q1)
// would change them; per-entry decisions otherwise depend only on the
// entry and its witnesses in M(Q2). Kept only when the cost model says
// the pushed form is strictly cheaper.
QueryPtr TryPushdown(Ctx* ctx, const QueryPtr& node) {
  for (int flip = 0; flip < 2; ++flip) {
    const QueryPtr& f = flip == 0 ? node->q1() : node->q2();
    const QueryPtr& h = flip == 0 ? node->q2() : node->q1();
    if (!IsLeafOp(f->op())) continue;
    bool pushable = false;
    if (IsHierarchySelection(h->op())) {
      pushable = !h->agg().has_value() || !h->agg()->NeedsSetAggregates();
    } else if (h->op() == QueryOp::kSimpleAgg) {
      pushable = !h->agg()->NeedsSetAggregates();
    }
    if (!pushable) continue;
    // The new inner conjunction may itself short-circuit or reorder.
    OptimizeStats saved = ctx->stats;
    QueryPtr inner = OptimizeNode(ctx, Query::And(f, h->q1()));
    QueryPtr candidate = Rebuild(*h, inner, h->q2(), h->q3());
    if (ctx->Estimate(*candidate).TotalPages() <
        ctx->Estimate(*node).TotalPages()) {
      ++ctx->stats.pushed_filters;
      return candidate;
    }
    ctx->stats = saved;  // rejected: discard the trial's counts
  }
  return nullptr;
}

QueryPtr OptimizeNode(Ctx* ctx, const QueryPtr& q) {
  if (IsLeafOp(q->op())) {
    // A provably-empty scan shrinks to its base-scoped witness.
    if (q->scope() != Scope::kBase && ctx->ProvablyEmpty(*q)) {
      ++ctx->stats.short_circuits;
      return EmptyWitness(q);
    }
    // Canonicalize the boolean structure of a merged LDAP leaf — the
    // rewrite pass folds same-base conjunctions/disjunctions into one
    // such leaf, so operand ordering lives inside its filter here.
    if (q->op() == QueryOp::kLdap) {
      const StoreStats* stats = ctx->store.stats();
      if (stats != nullptr) {
        bool changed = false;
        LdapFilterPtr f =
            CanonicalizeLdap(ctx, *stats, q->ldap_filter(), &changed);
        if (changed) return Query::Ldap(q->base(), q->scope(), std::move(f));
      }
    }
    return q;
  }
  QueryPtr q1 = q->q1() == nullptr ? nullptr : OptimizeNode(ctx, q->q1());
  QueryPtr q2 = q->q2() == nullptr ? nullptr : OptimizeNode(ctx, q->q2());
  QueryPtr q3 = q->q3() == nullptr ? nullptr : OptimizeNode(ctx, q->q3());
  QueryPtr node = Rebuild(*q, q1, q2, q3);

  switch (node->op()) {
    case QueryOp::kAnd:
    case QueryOp::kOr: {
      bool e1 = ctx->ProvablyEmpty(*node->q1());
      bool e2 = ctx->ProvablyEmpty(*node->q2());
      if (node->op() == QueryOp::kAnd && (e1 || e2)) {
        ++ctx->stats.short_circuits;
        return EmptyWitness(e1 ? node->q1() : node->q2());
      }
      if (node->op() == QueryOp::kOr && (e1 || e2)) {
        ++ctx->stats.short_circuits;
        if (e1 && e2) return EmptyWitness(node->q1());
        return e1 ? node->q2() : node->q1();
      }
      if (node->op() == QueryOp::kAnd) {
        QueryPtr pushed = TryPushdown(ctx, node);
        if (pushed != nullptr) return pushed;
      }
      return ReorderChain(ctx, node);
    }
    case QueryOp::kDiff: {
      if (ctx->ProvablyEmpty(*node->q1())) {
        // M(-) is a subset of M(Q1) = {}.
        ++ctx->stats.short_circuits;
        return EmptyWitness(node->q1());
      }
      if (ctx->ProvablyEmpty(*node->q2())) {
        // Subtracting nothing: M(-) = M(Q1).
        ++ctx->stats.short_circuits;
        return node->q1();
      }
      return node;
    }
    case QueryOp::kSimpleAgg:
    case QueryOp::kValueDn:
    case QueryOp::kDnValue: {
      // Output is a subset of M(Q1) unconditionally.
      if (ctx->ProvablyEmpty(*node->q1())) {
        ++ctx->stats.short_circuits;
        return EmptyWitness(node->q1());
      }
      return node;
    }
    default: {  // hierarchy selections
      if (ctx->ProvablyEmpty(*node->q1())) {
        ++ctx->stats.short_circuits;
        return EmptyWitness(node->q1());
      }
      // Without an aggregate filter the semantics are purely existential
      // (Sec. 6.2): no witnesses in M(Q2) means no entry qualifies. An
      // aggregate like count($2)=0 can match entries with zero witnesses,
      // so it disables the rule.
      if (!node->agg().has_value() &&
          ctx->ProvablyEmpty(*node->q2())) {
        ++ctx->stats.short_circuits;
        return EmptyWitness(node->q2());
      }
      return node;
    }
  }
}

}  // namespace

std::string OptimizeStats::ToString() const {
  std::string out;
  auto append = [&](const char* key, size_t n) {
    if (n == 0) return;
    if (!out.empty()) out += ' ';
    out += key;
    out += '=';
    out += std::to_string(n);
  };
  append("short_circuit", short_circuits);
  append("reorder", reordered_operands);
  append("pushdown", pushed_filters);
  return out.empty() ? "none" : out;
}

OptimizedPlan OptimizeQuery(const EntrySource& store, const QueryPtr& query) {
  OptimizedPlan out;
  Ctx ctx{store, {}, {}};
  out.est_pages_before = ctx.Estimate(*query).TotalPages();
  out.plan = OptimizeNode(&ctx, query);
  out.stats = ctx.stats;
  out.est_pages_after = ctx.Estimate(*out.plan).TotalPages();
  // Never ship a plan the model itself thinks is worse.
  if (out.est_pages_after > out.est_pages_before) {
    out.plan = query;
    out.stats = OptimizeStats{};
    out.est_pages_after = out.est_pages_before;
  }
  return out;
}

}  // namespace ndq
