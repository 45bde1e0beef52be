#include "apps/tops.h"

#include <algorithm>

namespace ndq {
namespace apps {

namespace {

Rdn MustRdn(const std::string& attr, const std::string& value) {
  return Rdn::Single(attr, value).TakeValue();
}

int64_t PriorityOf(const Entry& e) {
  const std::vector<Value> v = e.Values("priority");
  return (!v.empty() && v[0].is_int()) ? v[0].AsInt() : INT64_MAX;
}

}  // namespace

bool QhpMatches(const Entry& qhp, const CallContext& ctx) {
  const std::vector<Value> start = qhp.Values("startTime");
  const std::vector<Value> end = qhp.Values("endTime");
  if (!start.empty() && start[0].is_int() &&
      ctx.time_of_day < start[0].AsInt()) {
    return false;
  }
  if (!end.empty() && end[0].is_int() && ctx.time_of_day > end[0].AsInt()) {
    return false;
  }
  const std::vector<Value> days = qhp.Values("daysOfWeek");
  if (!days.empty()) {
    bool ok = std::any_of(days.begin(), days.end(), [&](const Value& v) {
      return v.is_int() && v.AsInt() == ctx.day_of_week;
    });
    if (!ok) return false;
  }
  const std::vector<Value> callers = qhp.Values("callerUid");
  if (!callers.empty()) {
    bool ok = std::any_of(callers.begin(), callers.end(), [&](const Value& v) {
      return !v.is_int() && v.AsString() == ctx.caller_uid;
    });
    if (!ok) return false;
  }
  return true;
}

TopsResolver::TopsResolver(Engine* engine, Dn domain)
    : profiles_base_(domain.Child(MustRdn("ou", "userProfiles"))),
      session_(engine->OpenSession()) {}

Result<std::vector<Entry>> TopsResolver::Eval(const QueryPtr& query) {
  QueryOutcome outcome = session_.Run(query);
  if (!outcome.ok()) return outcome.status;
  return std::move(outcome.entries);
}

Result<std::vector<Entry>> TopsResolver::MatchingQhps(
    const Dn& subscriber, const CallContext& ctx) {
  // The subscriber's QHPs are the class-QHP entries whose parent is the
  // subscriber: (p <QHPs under subscriber> <subscriber>).
  QueryPtr q = Query::Hierarchy(
      QueryOp::kParents,
      Query::Atomic(subscriber, Scope::kSub,
                    AtomicFilter::Equals(kObjectClassAttr,
                                         Value::String("QHP"))),
      Query::Atomic(subscriber, Scope::kBase, AtomicFilter::True()));
  NDQ_ASSIGN_OR_RETURN(std::vector<Entry> qhps, Eval(q));
  std::vector<Entry> matching;
  for (Entry& qhp : qhps) {
    if (QhpMatches(qhp, ctx)) matching.push_back(std::move(qhp));
  }
  std::stable_sort(matching.begin(), matching.end(),
                   [](const Entry& a, const Entry& b) {
                     return PriorityOf(a) < PriorityOf(b);
                   });
  return matching;
}

Result<CallResolution> TopsResolver::Resolve(const std::string& callee_uid,
                                             const CallContext& ctx) {
  CallResolution res;
  // Locate the subscriber entry by uid.
  QueryPtr find = Query::And(
      Query::Atomic(profiles_base_, Scope::kSub,
                    AtomicFilter::Equals("uid", Value::String(callee_uid))),
      Query::Atomic(profiles_base_, Scope::kSub,
                    AtomicFilter::Equals(kObjectClassAttr,
                                         Value::String("TOPSSubscriber"))));
  NDQ_ASSIGN_OR_RETURN(std::vector<Entry> subs, Eval(find));
  if (subs.empty()) return res;
  res.subscriber_found = true;
  const Dn& subscriber = subs[0].dn();

  NDQ_ASSIGN_OR_RETURN(std::vector<Entry> qhps,
                       MatchingQhps(subscriber, ctx));
  if (qhps.empty()) return res;
  res.winning_qhp = qhps[0];

  // Call appearances = children of the winning QHP, by priority.
  QueryPtr ca_q = Query::Atomic(
      res.winning_qhp->dn(), Scope::kSub,
      AtomicFilter::Equals(kObjectClassAttr,
                           Value::String("callAppearance")));
  NDQ_ASSIGN_OR_RETURN(res.appearances, Eval(ca_q));
  std::stable_sort(res.appearances.begin(), res.appearances.end(),
                   [](const Entry& a, const Entry& b) {
                     return PriorityOf(a) < PriorityOf(b);
                   });
  return res;
}

}  // namespace apps
}  // namespace ndq
