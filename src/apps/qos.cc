#include "apps/qos.h"

#include <algorithm>
#include <map>
#include <set>

#include "filter/atomic_filter.h"

namespace ndq {
namespace apps {

namespace {

Rdn MustRdn(const std::string& attr, const std::string& value) {
  return Rdn::Single(attr, value).TakeValue();
}

/// A query selecting exactly the given entries: the union of base-scoped
/// atomic queries over their dns (empty set -> a query with no matches).
QueryPtr UnionOfBases(const std::vector<Entry>& entries, const Dn& domain) {
  QueryPtr q;
  for (const Entry& e : entries) {
    QueryPtr leaf =
        Query::Atomic(e.dn(), Scope::kBase, AtomicFilter::True());
    q = (q == nullptr) ? leaf : Query::Or(std::move(q), std::move(leaf));
  }
  if (q == nullptr) {
    // An unsatisfiable atomic query under the domain.
    q = Query::Atomic(domain, Scope::kBase,
                      AtomicFilter::Presence("SLAPolicyName"));
  }
  return q;
}

}  // namespace

bool AddressMatches(const std::string& pattern, const std::string& address) {
  // Split both into dotted components; '*' matches one component.
  auto split = [](const std::string& s) {
    std::vector<std::string> parts;
    std::string cur;
    for (char c : s) {
      if (c == '.') {
        parts.push_back(cur);
        cur.clear();
      } else {
        cur += c;
      }
    }
    parts.push_back(cur);
    return parts;
  };
  std::vector<std::string> p = split(pattern);
  std::vector<std::string> a = split(address);
  if (p.size() != a.size()) return false;
  for (size_t i = 0; i < p.size(); ++i) {
    if (p[i] != "*" && p[i] != a[i]) return false;
  }
  return true;
}

QosPolicyEngine::QosPolicyEngine(Engine* engine, Dn domain)
    : policies_base_(domain.Child(MustRdn("ou", "networkPolicies"))),
      session_(engine->OpenSession()) {}

Result<std::vector<Entry>> QosPolicyEngine::Eval(const QueryPtr& query) {
  QueryOutcome outcome = session_.Run(query);
  if (!outcome.ok()) return outcome.status;
  return std::move(outcome.entries);
}

Result<std::vector<Entry>> QosPolicyEngine::MatchingProfiles(
    const PacketProfile& packet) {
  // Narrow by port in the query where known; the address wildcard match
  // runs application-side (the *pattern* lives in the data).
  QueryPtr q = Query::Atomic(
      policies_base_, Scope::kSub,
      AtomicFilter::Equals(kObjectClassAttr,
                           Value::String("trafficProfile")));
  NDQ_ASSIGN_OR_RETURN(std::vector<Entry> profiles, Eval(q));
  std::vector<Entry> out;
  for (Entry& tp : profiles) {
    // Port constraints: a profile with a sourcePort only matches packets
    // with that port (heterogeneity: many profiles omit it).
    const std::vector<Value> sp = tp.Values("sourcePort");
    if (!sp.empty()) {
      bool ok = packet.source_port >= 0 &&
                std::any_of(sp.begin(), sp.end(), [&](const Value& v) {
                  return v.is_int() && v.AsInt() == packet.source_port;
                });
      if (!ok) continue;
    }
    const std::vector<Value> dp = tp.Values("destPort");
    if (!dp.empty()) {
      bool ok = packet.dest_port >= 0 &&
                std::any_of(dp.begin(), dp.end(), [&](const Value& v) {
                  return v.is_int() && v.AsInt() == packet.dest_port;
                });
      if (!ok) continue;
    }
    const std::vector<Value> sa = tp.Values("SourceAddress");
    if (!sa.empty() && !packet.source_address.empty()) {
      bool ok = std::any_of(sa.begin(), sa.end(), [&](const Value& v) {
        return !v.is_int() &&
               AddressMatches(v.AsString(), packet.source_address);
      });
      if (!ok) continue;
    }
    const std::vector<Value> da = tp.Values("DestAddress");
    if (!da.empty() && !packet.dest_address.empty()) {
      bool ok = std::any_of(da.begin(), da.end(), [&](const Value& v) {
        return !v.is_int() &&
               AddressMatches(v.AsString(), packet.dest_address);
      });
      if (!ok) continue;
    }
    out.push_back(std::move(tp));
  }
  return out;
}

Result<std::vector<Entry>> QosPolicyEngine::MatchingPeriods(
    const PacketProfile& packet) {
  // Time-window filtering pushes into the query; day-of-week set
  // membership is checked application-side.
  QueryPtr in_window = Query::And(
      Query::Atomic(policies_base_, Scope::kSub,
                    AtomicFilter::IntCompare("PVStartTime", CompareOp::kLe,
                                             packet.timestamp)),
      Query::Atomic(policies_base_, Scope::kSub,
                    AtomicFilter::IntCompare("PVEndTime", CompareOp::kGe,
                                             packet.timestamp)));
  QueryPtr q = Query::And(
      Query::Atomic(policies_base_, Scope::kSub,
                    AtomicFilter::Equals(
                        kObjectClassAttr,
                        Value::String("policyValidityPeriod"))),
      std::move(in_window));
  NDQ_ASSIGN_OR_RETURN(std::vector<Entry> periods, Eval(q));
  std::vector<Entry> out;
  for (Entry& pvp : periods) {
    const std::vector<Value> days = pvp.Values("PVDayOfWeek");
    if (!days.empty()) {
      bool ok = std::any_of(days.begin(), days.end(), [&](const Value& v) {
        return v.is_int() && v.AsInt() == packet.day_of_week;
      });
      if (!ok) continue;
    }
    out.push_back(std::move(pvp));
  }
  return out;
}

Result<PolicyDecision> QosPolicyEngine::Match(const PacketProfile& packet) {
  NDQ_ASSIGN_OR_RETURN(std::vector<Entry> profiles,
                       MatchingProfiles(packet));
  NDQ_ASSIGN_OR_RETURN(std::vector<Entry> periods, MatchingPeriods(packet));

  PolicyDecision decision;
  if (profiles.empty()) return decision;

  // Applicable policies: reference >= 1 matching traffic profile, and
  // either reference >= 1 matching validity period or specify none.
  QueryPtr policies_q = Query::Atomic(
      policies_base_, Scope::kSub,
      AtomicFilter::Equals(kObjectClassAttr,
                           Value::String("SLAPolicyRules")));
  QueryPtr via_tp =
      Query::EmbeddedRef(QueryOp::kValueDn, policies_q,
                         UnionOfBases(profiles, policies_base_), "SLATPRef");
  // Policies with a matching period.
  QueryPtr via_pvp = Query::EmbeddedRef(
      QueryOp::kValueDn, via_tp, UnionOfBases(periods, policies_base_),
      "SLAPVPRef");
  // Policies with no period constraint at all: count(SLAPVPRef) = 0.
  NDQ_ASSIGN_OR_RETURN(AggSelFilter no_pvp,
                       ParseAggSelFilter("count(SLAPVPRef)=0"));
  QueryPtr unconstrained = Query::SimpleAgg(via_tp, no_pvp);
  QueryPtr applicable_q =
      Query::Or(std::move(via_pvp), std::move(unconstrained));

  NDQ_ASSIGN_OR_RETURN(std::vector<Entry> applicable, Eval(applicable_q));
  decision.applicable_policies = applicable.size();
  if (applicable.empty()) return decision;

  // Highest priority = smallest SLARulePriority among the applicable set
  // (the Sec. 7 aggregate idiom).
  NDQ_ASSIGN_OR_RETURN(
      AggSelFilter top,
      ParseAggSelFilter(
          "min(SLARulePriority)=min(min(SLARulePriority))"));
  QueryPtr winners_q = Query::SimpleAgg(
      UnionOfBases(applicable, policies_base_), top);
  NDQ_ASSIGN_OR_RETURN(std::vector<Entry> winners, Eval(winners_q));

  // Exception resolution: drop a winner if one of its exceptions is
  // itself applicable at the same priority.
  std::set<std::string> applicable_keys;
  for (const Entry& e : applicable) applicable_keys.insert(e.HierKey());
  auto priority_of = [](const Entry& e) -> int64_t {
    const std::vector<Value> v = e.Values("SLARulePriority");
    return (!v.empty() && v[0].is_int()) ? v[0].AsInt() : INT64_MAX;
  };
  std::map<std::string, int64_t> applicable_priority;
  for (const Entry& e : applicable) {
    applicable_priority[e.dn().ToString()] = priority_of(e);
  }
  std::vector<Entry> surviving;
  for (Entry& w : winners) {
    bool vetoed = false;
    for (const Value& exc : w.Values("SLAExceptionRef")) {
      auto it = applicable_priority.find(exc.AsString());
      if (it != applicable_priority.end() && it->second == priority_of(w)) {
        vetoed = true;
        break;
      }
    }
    if (!vetoed) surviving.push_back(std::move(w));
  }

  // Dereference the actions of the surviving policies (dv join).
  QueryPtr actions_q = Query::EmbeddedRef(
      QueryOp::kDnValue,
      Query::Atomic(policies_base_, Scope::kSub,
                    AtomicFilter::Equals(kObjectClassAttr,
                                         Value::String("SLADSAction"))),
      UnionOfBases(surviving, policies_base_), "SLADSActRef");
  NDQ_ASSIGN_OR_RETURN(decision.actions, Eval(actions_q));
  decision.policies = std::move(surviving);
  return decision;
}

}  // namespace apps
}  // namespace ndq
