// Distinguished names (Def. 3.2(d)) and the reverse-DN hierarchical key.
//
// A DN is a sequence s1,...,sn of *sets* of (attribute, value) pairs; s1 is
// the entry's relative distinguished name (RDN) and sn is the root-most
// component. The paper's single physical design decision is to sort every
// entry list by "the lexicographic ordering on the reverse of the string
// representation of the distinguished names" [Sec 4.2, RFC 2253]: under
// that order a parent's key is a prefix of every descendant's key, which is
// what makes the merge- and stack-based operators of Sections 4-7 work.
//
// ndq materializes that order as Dn::HierKey(): the RDN components
// serialized root -> leaf, joined with the separator byte 0x1F (which is
// forbidden inside attribute names and values). Plain lexicographic
// comparison of HierKeys is exactly the paper's sort order, and ancestry
// tests become prefix tests on keys (see KeyIsAncestor / KeyIsParent).

#ifndef NDQ_CORE_DN_H_
#define NDQ_CORE_DN_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/head64.h"
#include "core/status.h"

namespace ndq {

/// Separator between RDN components inside a HierKey.
inline constexpr char kHierKeySep = '\x1f';
/// Separator between (attribute, value) pairs inside one RDN of a HierKey.
inline constexpr char kHierPairSep = '\x1e';

/// \brief One relative distinguished name: a non-empty set of
/// (attribute, value) pairs, e.g. {(uid, jag)} or {(cn, x), (sn, y)}.
///
/// Pairs are kept sorted and de-duplicated, so two Rdns denoting the same
/// set compare equal byte-for-byte in serialized form.
class Rdn {
 public:
  Rdn() = default;

  /// Builds an RDN from pairs; normalizes (sorts, dedups) and validates
  /// each pair: a well-formed attribute name and a non-empty value with no
  /// control bytes (Dn::FromHierKey applies the same test).
  static Result<Rdn> Make(
      std::vector<std::pair<std::string, std::string>> pairs);

  /// Convenience for the common single-pair case.
  static Result<Rdn> Single(std::string attr, std::string value);

  const std::vector<std::pair<std::string, std::string>>& pairs() const {
    return pairs_;
  }
  bool empty() const { return pairs_.empty(); }

  /// Serializes for HierKey use: "a=v" pairs joined with kHierPairSep.
  std::string ToKeyComponent() const;
  /// Serializes for display: "a=v" pairs joined with '+', values escaped.
  std::string ToString() const;

  bool operator==(const Rdn& other) const { return pairs_ == other.pairs_; }
  bool operator!=(const Rdn& other) const { return !(*this == other); }

 private:
  friend class Dn;  // Dn::rdn() fills pairs_ from an already canonical key

  std::vector<std::pair<std::string, std::string>> pairs_;
};

/// \brief A distinguished name: a sequence of RDNs, leaf-most first.
///
/// A Dn is its HierKey: the key string is the only data member, so the
/// paper's sort key is also the one representation of a name. Every other
/// view (depth, parent, the leaf RDN, the LDAP text) is read off the key.
/// Keys are always canonical: each component lists its pairs sorted and
/// de-duplicated, as Rdn::Make leaves them.
///
/// The empty Dn (zero components) is the "null dn": it is not a legal entry
/// name but is accepted as a query base meaning "the whole forest"
/// (Sec. 8.1 uses null-dn exactly this way).
class Dn {
 public:
  /// Constructs the null dn.
  Dn() = default;

  /// Builds a DN from components, leaf-most first.
  static Result<Dn> Make(const std::vector<Rdn>& rdns);

  /// Parses the LDAP textual form, e.g.
  /// "uid=jag, ou=userProfiles, dc=research, dc=att, dc=com".
  /// Backslash escapes ',', '+', '=', '\\' inside values; '+' joins pairs
  /// of a multi-valued RDN. Whitespace around separators is ignored.
  static Result<Dn> Parse(std::string_view text);

  /// Reconstructs a Dn from a HierKey. A canonical key is checked in one
  /// pass and copied; a component whose pairs are out of order or repeated
  /// is normalized the way Rdn::Make would. A pair or component with no
  /// '=' is Corruption; a bad attribute name or value is InvalidArgument.
  static Result<Dn> FromHierKey(std::string_view key);

  /// The check of FromHierKey without the copy: OK iff FromHierKey(key)
  /// succeeds, and its error otherwise. Sets *canonical to whether
  /// FromHierKey would return `key` unchanged.
  static Status CheckHierKey(std::string_view key, bool* canonical);

  bool IsNull() const { return key_.empty(); }
  size_t depth() const;

  /// The entry's relative distinguished name (leaf-most component), parsed
  /// from the key. Requires !IsNull(). Returned by value: hold it in a
  /// local before iterating its pairs().
  Rdn rdn() const;

  /// The parent DN (one component shorter); the null dn if depth() <= 1.
  Dn Parent() const;

  /// Appends `child_rdn` below this DN and returns the child DN.
  Dn Child(const Rdn& child_rdn) const;

  /// The hierarchical sort key (root -> leaf). Lexicographic order on these
  /// keys is the paper's reverse-DN order; the null dn's key is "".
  const std::string& HierKey() const { return key_; }

  /// LDAP textual form, leaf-most first. The null dn renders as "".
  std::string ToString() const;

  bool IsAncestorOf(const Dn& other) const;  ///< Proper ancestor.
  bool IsParentOf(const Dn& other) const;
  bool IsDescendantOf(const Dn& other) const { return other.IsAncestorOf(*this); }
  bool IsChildOf(const Dn& other) const { return other.IsParentOf(*this); }

  bool operator==(const Dn& other) const { return key_ == other.key_; }
  bool operator!=(const Dn& other) const { return !(*this == other); }
  /// Orders by HierKey: the global sort order of the whole system. Uses
  /// the head-of-key word compare — most DN pairs differ inside the first
  /// eight bytes of their root components.
  bool operator<(const Dn& other) const {
    return CompareKeysHead64(key_, other.key_) < 0;
  }

 private:
  friend class Entry;  // copies the key of a checked, canonical record
  explicit Dn(std::string key) : key_(std::move(key)) {}

  std::string key_;  // root first
};

// Key-level relatives of the Dn predicates. Operators in exec/ work on raw
// HierKeys pulled from serialized runs and never rebuild Dn objects; these
// free functions are the hot-path forms.

/// True iff `anc` is a proper ancestor key of `desc`. The null key ""
/// is an ancestor of every non-null key (the forest has a virtual root).
bool KeyIsAncestor(std::string_view anc, std::string_view desc);

/// True iff `parent` is the parent key of `child`.
bool KeyIsParent(std::string_view parent, std::string_view child);

/// Number of RDN components in a key (0 for the null key).
size_t KeyDepth(std::string_view key);

/// The parent key of `key` ("" if key has a single component).
std::string_view KeyParent(std::string_view key);

/// The smallest key string strictly greater than every descendant key of
/// `key` — i.e. the exclusive upper bound of the subtree rooted at `key`.
/// Used for scoped range scans (scope=sub). Note the subtree *range*
/// [key, KeySubtreeEnd(key)) also contains sibling keys that extend the
/// last RDN with more pairs ("key" + kHierPairSep + ...); callers that
/// need exactly the subtree must post-filter with KeyInSubtree.
std::string KeySubtreeEnd(std::string_view key);

/// Exclusive upper bound of the range containing exactly `key`: the range
/// [key, KeyExactEnd(key)) holds `key` and no other legal key, because any
/// legal extension of a key begins with kHierPairSep or kHierKeySep and
/// values contain no control bytes below them. Derived from the separator
/// constants so point-lookup ranges can't diverge from the key grammar.
std::string KeyExactEnd(std::string_view key);

/// Inclusive start of the range of proper descendants of `key` (every
/// descendant key begins with `key` + kHierKeySep; "" for the null key,
/// whose descendants are the whole forest).
std::string KeyDescendantsBegin(std::string_view key);

/// True iff `key` lies in the subtree rooted at `root` (equal to `root` or
/// a proper descendant). This is the predicate the subtree *range* scan
/// over-approximates: [root, KeySubtreeEnd(root)) also yields sibling keys
/// like "root" + kHierPairSep + ... which fail this test.
bool KeyInSubtree(std::string_view root, std::string_view key);

}  // namespace ndq

#endif  // NDQ_CORE_DN_H_
