// LDAP filter expressions: boolean combinations of atomic filters.
//
// This is the filter language of the *baseline* (Sec. 4.2): "in LDAP, only
// atomic filters (but not queries) can be combined using the boolean
// operators and (&), or (|), not (!)". An LDAP query is a single base DN +
// scope + one LdapFilter; the L0-L3 languages instead combine whole
// queries. Syntax follows RFC 2254: (&(objectClass=QHP)(priority<=2)).

#ifndef NDQ_FILTER_LDAP_FILTER_H_
#define NDQ_FILTER_LDAP_FILTER_H_

#include <memory>
#include <string>
#include <vector>

#include "filter/atomic_filter.h"

namespace ndq {

class LdapFilter;
using LdapFilterPtr = std::shared_ptr<const LdapFilter>;

/// \brief A boolean tree over atomic filters.
class LdapFilter {
 public:
  enum class Op { kAtomic, kAnd, kOr, kNot };

  static LdapFilterPtr Atomic(AtomicFilter f);
  static LdapFilterPtr And(std::vector<LdapFilterPtr> children);
  static LdapFilterPtr Or(std::vector<LdapFilterPtr> children);
  static LdapFilterPtr Not(LdapFilterPtr child);

  /// Parses RFC 2254-style text, e.g. "(&(objectClass=QHP)(!(priority<=1)))".
  /// A bare atomic filter without parentheses is also accepted.
  static Result<LdapFilterPtr> Parse(std::string_view text);

  Op op() const { return op_; }
  const AtomicFilter& atomic() const { return atomic_; }
  const std::vector<LdapFilterPtr>& children() const { return children_; }

  bool Matches(const EntryView& entry) const;
  bool Matches(const Entry& entry) const { return Matches(entry.view()); }

  std::string ToString() const;

 private:
  LdapFilter() = default;

  Op op_ = Op::kAtomic;
  AtomicFilter atomic_ = AtomicFilter::True();
  std::vector<LdapFilterPtr> children_;
};

}  // namespace ndq

#endif  // NDQ_FILTER_LDAP_FILTER_H_
