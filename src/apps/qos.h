// The QoS / Service Level Agreement application of Example 2.1.
//
// Policy enforcement entities (hosts, routers, firewalls) present a packet
// profile and the current time; the directory answers with the actions of
// the policies that match, such that (a) no higher-priority policy applies
// and (b) the matching policies have no applicable exception of the same
// priority. Policies reference their traffic profiles, validity periods,
// exceptions and action through DN-valued attributes (Fig. 12), so the
// resolution pipeline is L3 work: matched profile/period sets are inserted
// into the query tree as unions of base-scoped atomic queries (the closure
// property of Sec. 4.1 in action), combined with vd/dv joins and a
// min-priority aggregate selection.

#ifndef NDQ_APPS_QOS_H_
#define NDQ_APPS_QOS_H_

#include <string>
#include <vector>

#include "engine/engine.h"

namespace ndq {
namespace apps {

/// The packet profile + time an enforcement entity submits (Sec. 2.1).
struct PacketProfile {
  std::string source_address;  ///< dotted quad, e.g. "204.178.16.5"
  std::string dest_address;
  int64_t source_port = -1;  ///< -1 = unknown
  int64_t dest_port = -1;
  std::string protocol;       ///< e.g. "TCP"; empty = unknown
  int64_t timestamp = 0;      ///< yyyymmddhhmmss
  int64_t day_of_week = 0;    ///< 1..7
};

/// The outcome of a policy lookup.
struct PolicyDecision {
  /// The policies that won (same, highest priority, exceptions resolved).
  std::vector<Entry> policies;
  /// Their actions, deduplicated, in directory order.
  std::vector<Entry> actions;
  /// Diagnostics: how many policies matched before priority/exception
  /// resolution.
  size_t applicable_policies = 0;
};

/// \brief Answers packet-profile queries against one administrative
/// domain's networkPolicies subtree.
class QosPolicyEngine {
 public:
  /// `domain` is the domain entry above the "ou=networkPolicies" subtree
  /// (e.g. "dc=research, dc=att, dc=com"). Opens its own Session on
  /// `engine` (which must outlive it) and shares the engine's pool and
  /// operand cache — the caller is responsible for
  /// Engine::InvalidateCaches() after store mutations.
  QosPolicyEngine(Engine* engine, Dn domain);

  /// Full resolution per Sec. 2.1.
  Result<PolicyDecision> Match(const PacketProfile& packet);

  /// The matching traffic profiles for a packet (exposed for tests).
  Result<std::vector<Entry>> MatchingProfiles(const PacketProfile& packet);
  /// The matching validity periods for a time (exposed for tests).
  Result<std::vector<Entry>> MatchingPeriods(const PacketProfile& packet);

 private:
  Result<std::vector<Entry>> Eval(const QueryPtr& query);

  Dn policies_base_;  // ou=networkPolicies, <domain>
  Session session_;
};

/// True iff a concrete dotted address matches a profile pattern such as
/// "204.178.16.*" or "207.140.*.*".
bool AddressMatches(const std::string& pattern, const std::string& address);

}  // namespace apps
}  // namespace ndq

#endif  // NDQ_APPS_QOS_H_
