// Atomic filters (Sec. 4.1).
//
// An entry r satisfies an atomic filter F (written r |= F) iff at least one
// (attribute, value) pair of r satisfies it. The concrete filters cover the
// paper's examples for the base types: presence (telephoneNumber=*),
// integer comparison (SLARulePriority < 3), equality, and wildcard
// substring comparison on strings (commonName=*jag*).

#ifndef NDQ_FILTER_ATOMIC_FILTER_H_
#define NDQ_FILTER_ATOMIC_FILTER_H_

#include <string>
#include <vector>

#include "core/entry.h"
#include "core/status.h"

namespace ndq {

/// Comparison operators usable in atomic filters.
enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };

const char* CompareOpToString(CompareOp op);

/// \brief One atomic filter.
class AtomicFilter {
 public:
  enum class Kind {
    kTrue,      ///< objectClass=* — satisfied by every entry.
    kPresence,  ///< a=*
    kIntCmp,    ///< a OP n, satisfied by an int value v with v OP n
    kEquals,    ///< a = value (typed equality; no wildcards)
    kSubstring, ///< a = pat with '*' wildcards, on string-ish values
  };

  /// Matches every entry (used for "objectClass=*" style selections).
  static AtomicFilter True();
  static AtomicFilter Presence(std::string attr);
  static AtomicFilter IntCompare(std::string attr, CompareOp op, int64_t rhs);
  static AtomicFilter Equals(std::string attr, Value rhs);
  /// `pattern` contains at least one '*'; matches string and dn values.
  static AtomicFilter Substring(std::string attr, std::string pattern);

  /// Parses the paper's textual forms:
  ///   "attr=*"        presence        "attr=value"   equality
  ///   "attr=*jag*"    substring       "attr<3" "attr<=3" ">" ">=" "!="
  /// Integer literals on the right of = yield int equality; anything else
  /// string equality. "objectClass=*" parses to True (matches everything,
  /// as every entry has an objectClass). A quoted rhs (attr="text", with
  /// \" and \\ escapes) is ALWAYS string equality — the form ToString
  /// emits when the bare rendering would re-parse as something else
  /// (attr="5" is string equality on "5", distinct from attr=5).
  static Result<AtomicFilter> Parse(std::string_view text);

  Kind kind() const { return kind_; }
  const std::string& attr() const { return attr_; }
  /// kIntCmp accessors.
  CompareOp cmp_op() const { return op_; }
  int64_t int_rhs() const { return int_rhs_; }
  /// kEquals accessor.
  const Value& equals_rhs() const { return value_rhs_; }
  /// kSubstring accessors.
  const std::string& pattern() const { return pattern_; }
  const std::vector<std::string>& pattern_parts() const {
    return pattern_parts_;
  }

  /// r |= F : some (attribute, value) pair of `entry` satisfies the filter.
  bool Matches(const EntryView& entry) const;
  bool Matches(const Entry& entry) const { return Matches(entry.view()); }

  /// Whether one value (of attribute attr()) satisfies the filter.
  bool MatchesValue(ValueView v) const;

  /// Canonical textual form (parseable by Parse).
  std::string ToString() const;

  bool operator==(const AtomicFilter& other) const;

 private:
  AtomicFilter() = default;

  Kind kind_ = Kind::kTrue;
  std::string attr_;
  CompareOp op_ = CompareOp::kEq;
  int64_t int_rhs_ = 0;
  Value value_rhs_;
  // Substring pattern split at '*': [first, mid..., last]; empty strings
  // at the ends mean leading/trailing '*'.
  std::vector<std::string> pattern_parts_;
  std::string pattern_;
};

/// True iff `text` matches `pattern_parts` (as produced by splitting a
/// wildcard pattern at '*'). Exposed for the substring index.
bool WildcardMatch(const std::vector<std::string>& pattern_parts,
                   std::string_view text);

}  // namespace ndq

#endif  // NDQ_FILTER_ATOMIC_FILTER_H_
