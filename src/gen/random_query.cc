#include "gen/random_query.h"

#include <vector>

namespace ndq {
namespace gen {

namespace {

class QueryGen {
 public:
  QueryGen(std::mt19937* rng, const DirectoryInstance& inst,
           const RandomQueryOptions& options)
      : rng_(*rng), options_(options) {
    for (const auto& [key, entry] : inst) {
      (void)entry;
      Result<Dn> dn = Dn::FromHierKey(key);
      if (dn.ok()) dns_.push_back(dn.TakeValue());
    }
  }

  // `sibling_base` is the base of the leaf generated just before this
  // node under the same operator, if there was one.
  QueryPtr Gen(int depth, const Dn* sibling_base = nullptr) {
    int lang = static_cast<int>(options_.max_language);
    // Weighted choice of node kind, bounded by depth and language.
    if (depth <= 0 || Chance(options_.leaf_probability)) {
      return GenAtomic(sibling_base);
    }
    std::vector<int> choices;  // 0=bool 1=hier 2=hierc 3=g 4=er
    auto add = [&](int kind, int weight) {
      for (int w = 0; w < weight; ++w) choices.push_back(kind);
    };
    if (lang >= 1) add(0, options_.bool_weight);
    if (lang >= 2) {
      add(1, options_.hierarchy_weight);
      add(2, options_.constrained_weight);
    }
    if (lang >= 3) add(3, options_.agg_weight);
    if (lang >= 4) add(4, options_.embedded_ref_weight);
    if (choices.empty()) return GenAtomic(sibling_base);
    switch (choices[rng_() % choices.size()]) {
      case 0: {
        QueryOp ops[] = {QueryOp::kAnd, QueryOp::kOr, QueryOp::kDiff};
        QueryOp op = ops[rng_() % 3];
        QueryPtr a = Gen(depth - 1);
        QueryPtr b = Gen(depth - 1, LeafBase(a));
        if (op == QueryOp::kAnd) return Query::And(a, b);
        if (op == QueryOp::kOr) return Query::Or(a, b);
        return Query::Diff(a, b);
      }
      case 1: {
        QueryOp ops[] = {QueryOp::kParents, QueryOp::kChildren,
                         QueryOp::kAncestors, QueryOp::kDescendants};
        QueryOp op = ops[rng_() % 4];
        QueryPtr a = Gen(depth - 1);
        QueryPtr b = Gen(depth - 1, LeafBase(a));
        return Query::Hierarchy(op, a, b, MaybeAgg(lang));
      }
      case 2: {
        QueryOp op = (rng_() % 2 == 0) ? QueryOp::kCoAncestors
                                       : QueryOp::kCoDescendants;
        QueryPtr a = Gen(depth - 1);
        QueryPtr b = Gen(depth - 1, LeafBase(a));
        const Dn* last = LeafBase(b) != nullptr ? LeafBase(b) : LeafBase(a);
        QueryPtr c = Gen(depth - 1, last);
        return Query::HierarchyConstrained(op, a, b, c, MaybeAgg(lang));
      }
      case 3:
        return Query::SimpleAgg(Gen(depth - 1), RandomAggFilter(false));
      default: {
        QueryOp op =
            (rng_() % 2 == 0) ? QueryOp::kValueDn : QueryOp::kDnValue;
        QueryPtr a = Gen(depth - 1);
        QueryPtr b = Gen(depth - 1, LeafBase(a));
        return Query::EmbeddedRef(op, a, b, "ref", MaybeAgg(lang));
      }
    }
  }

 private:
  bool Chance(double p) {
    return std::uniform_real_distribution<double>(0, 1)(rng_) < p;
  }

  static const Dn* LeafBase(const QueryPtr& q) {
    return q->op() == QueryOp::kAtomic ? &q->base() : nullptr;
  }

  QueryPtr GenAtomic(const Dn* sibling_base) {
    Dn base;
    // A third of the time a leaf reuses its sibling leaf's base, with a
    // scope of its own: the evaluator scans such siblings together. Else
    // mostly broad bases so operands overlap; sometimes a specific one.
    if (sibling_base != nullptr && Chance(1.0 / 3.0)) {
      base = *sibling_base;
    } else if (!dns_.empty() && Chance(0.5)) {
      const Dn& dn = dns_[rng_() % dns_.size()];
      // Walk up to a shallow ancestor most of the time.
      base = dn;
      while (base.depth() > 1 && Chance(0.6)) base = base.Parent();
    }
    Scope scopes[] = {Scope::kBase, Scope::kOne, Scope::kSub, Scope::kSub,
                      Scope::kSub};
    Scope scope = scopes[rng_() % 5];
    if (base.IsNull()) scope = Scope::kSub;
    return Query::Atomic(base, scope, RandomFilter());
  }

  AtomicFilter RandomFilter() {
    switch (rng_() % 7) {
      case 0:
        return AtomicFilter::True();
      case 1:
        return AtomicFilter::Presence("ref");
      case 2:
        return AtomicFilter::Equals(
            "objectClass", Value::String("class" + std::to_string(rng_() % 3)));
      case 3: {
        CompareOp ops[] = {CompareOp::kLt, CompareOp::kLe, CompareOp::kGt,
                           CompareOp::kGe, CompareOp::kEq, CompareOp::kNe};
        return AtomicFilter::IntCompare("x", ops[rng_() % 6],
                                        static_cast<int64_t>(rng_() % 20));
      }
      case 4: {
        // "tagshare<N>" tags share their first 8 bytes.
        const std::string stem = Chance(0.5) ? "tag" : "tagshare";
        return AtomicFilter::Equals(
            "tag", Value::String(stem + std::to_string(rng_() % 8)));
      }
      case 5:
        // String equality whose rhs looks like an int: serializes with
        // the quoted syntax (x="5") and must stay distinct from the
        // int-typed x=5 everywhere (typed cache keys, rewrites, ...).
        return AtomicFilter::Equals(
            "x", Value::String(std::to_string(rng_() % 20)));
      default: {
        // A leading literal as long as the shared prefix, longer, or
        // none.
        const char* leads[] = {"", "tagshare", "tagshare1", "tag"};
        const std::string lead = leads[rng_() % 4];
        return AtomicFilter::Substring(
            "tag", lead + "*" + std::to_string(rng_() % 10) + "*");
      }
    }
  }

  std::optional<AggSelFilter> MaybeAgg(int lang) {
    if (lang < 3 || !Chance(options_.agg_probability)) return std::nullopt;
    return RandomAggFilter(true);
  }

  AggSelFilter RandomAggFilter(bool structural) {
    AggSelFilter f;
    f.lhs = RandomAggAttr(structural, /*allow_const=*/false);
    CompareOp ops[] = {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                       CompareOp::kLe, CompareOp::kGt, CompareOp::kGe};
    f.op = ops[rng_() % 6];
    f.rhs = RandomAggAttr(structural, /*allow_const=*/true);
    return f;
  }

  EntryAgg RandomEntryAgg(bool structural) {
    EntryAgg ea;
    AggFn fns[] = {AggFn::kMin, AggFn::kMax, AggFn::kSum, AggFn::kCount,
                   AggFn::kAvg};
    ea.fn = fns[rng_() % 5];
    if (structural && rng_() % 2 == 0) {
      if (rng_() % 3 == 0) {
        ea.fn = AggFn::kCount;
        ea.target = AggTarget::kWitnessCount;
      } else {
        ea.target = AggTarget::kWitnessAttr;
        ea.attr = "x";
      }
    } else {
      ea.target = AggTarget::kSelfAttr;
      ea.attr = (rng_() % 4 == 0) ? "ref" : "x";
    }
    return ea;
  }

  AggAttr RandomAggAttr(bool structural, bool allow_const) {
    int pick = rng_() % (allow_const ? 3 : 2);
    if (allow_const && pick == 2) {
      return AggAttr::Const(static_cast<int64_t>(rng_() % 25));
    }
    if (pick == 1 && rng_() % 2 == 0) {
      if (rng_() % 3 == 0) return AggAttr::CountSet(!structural);
      return AggAttr::EntrySet(
          (rng_() % 2 == 0) ? AggFn::kMin : AggFn::kMax,
          RandomEntryAgg(structural));
    }
    return AggAttr::Entry(RandomEntryAgg(structural));
  }

  std::mt19937& rng_;
  RandomQueryOptions options_;
  std::vector<Dn> dns_;
};

}  // namespace

QueryPtr RandomQuery(std::mt19937* rng, const DirectoryInstance& instance,
                     const RandomQueryOptions& options) {
  QueryGen gen(rng, instance, options);
  return gen.Gen(options.max_depth);
}

}  // namespace gen
}  // namespace ndq
