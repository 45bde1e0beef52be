// The TOPS dial-by-name application of Example 2.2.
//
// A caller supplies the callee's logical name, their own identity and the
// time of day; the directory answers with the call appearances of the
// HIGHEST-priority query handling profile (QHP) whose constraints the call
// context satisfies — giving subscribers location/device independence and
// control over who can reach them when (Fig. 11).

#ifndef NDQ_APPS_TOPS_H_
#define NDQ_APPS_TOPS_H_

#include <optional>
#include <string>
#include <vector>

#include "engine/engine.h"

namespace ndq {
namespace apps {

/// Caller-provided context for a dial-by-name lookup.
struct CallContext {
  std::string caller_uid;     ///< optional (empty = anonymous)
  int64_t time_of_day = 0;    ///< hhmm, e.g. 1430
  int64_t day_of_week = 1;    ///< 1..7
};

/// A resolved dial-by-name answer.
struct CallResolution {
  bool subscriber_found = false;
  std::optional<Entry> winning_qhp;
  /// Call appearances of the winning QHP, by ascending priority value.
  std::vector<Entry> appearances;
};

/// \brief Resolves subscribers within one domain's userProfiles subtree.
class TopsResolver {
 public:
  /// `domain` is the domain entry above "ou=userProfiles" (e.g.
  /// "dc=research, dc=att, dc=com"). The resolver opens its own Session
  /// on `engine` (which must outlive it) and shares the engine's pool and
  /// operand cache — the caller is responsible for
  /// Engine::InvalidateCaches() after store mutations.
  TopsResolver(Engine* engine, Dn domain);

  /// Dial-by-name: resolve `callee_uid` under the configured domain.
  Result<CallResolution> Resolve(const std::string& callee_uid,
                                 const CallContext& ctx);

  /// All QHPs of a subscriber that match the context, best priority first
  /// (exposed for tests).
  Result<std::vector<Entry>> MatchingQhps(const Dn& subscriber,
                                          const CallContext& ctx);

 private:
  Result<std::vector<Entry>> Eval(const QueryPtr& query);

  Dn profiles_base_;  // ou=userProfiles, <domain>
  Session session_;
};

/// Whether one QHP entry admits the context (time window, days-of-week,
/// caller allowlist — absent attributes don't constrain; Sec. 3.5's
/// heterogeneity).
bool QhpMatches(const Entry& qhp, const CallContext& ctx);

}  // namespace apps
}  // namespace ndq

#endif  // NDQ_APPS_TOPS_H_
