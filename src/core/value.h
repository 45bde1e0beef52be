// The directory type system of Section 3.1.
//
// The paper assumes a set T of type names, each with a domain; string and
// int are required base types, and distinguishedName is a required complex
// type whose values act as references to other entries. ndq represents all
// three with the Value variant below; a DN-typed value stores the
// *normalized string form* of the DN (see core/dn.h), which makes value
// comparison and serialization uniform.

#ifndef NDQ_CORE_VALUE_H_
#define NDQ_CORE_VALUE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "core/status.h"

namespace ndq {

/// The base types of the directory data model (Def. 3.1).
enum class TypeKind : uint8_t {
  kInt = 0,     ///< dom(int) = 64-bit signed integers.
  kString = 1,  ///< dom(string) = UTF-8 strings (control chars excluded).
  kDn = 2,      ///< dom(distinguishedName) = normalized DN strings.
};

/// Returns the name of a TypeKind ("int" / "string" / "dn").
const char* TypeKindToString(TypeKind kind);

/// Parses a type name; accepts "int", "string", "dn"/"distinguishedName".
Result<TypeKind> TypeKindFromString(const std::string& name);

/// \brief A typed attribute value.
///
/// Values are immutable after construction and totally ordered, first by
/// kind, then by domain order (numeric for kInt, lexicographic otherwise).
/// ValueView below is the one definition of that order.
class Value {
 public:
  /// Constructs the int value 0.
  Value() : kind_(TypeKind::kInt), int_(0) {}

  static Value Int(int64_t v) { return Value(v); }
  static Value String(std::string v) {
    return Value(TypeKind::kString, std::move(v));
  }
  /// `normalized_dn` must be a DN string already normalized via
  /// Dn::ToString(); Entry validation enforces this.
  static Value DnRef(std::string normalized_dn) {
    return Value(TypeKind::kDn, std::move(normalized_dn));
  }

  TypeKind kind() const { return kind_; }
  bool is_int() const { return kind_ == TypeKind::kInt; }
  bool is_string() const { return kind_ == TypeKind::kString; }
  bool is_dn() const { return kind_ == TypeKind::kDn; }

  /// Requires is_int().
  int64_t AsInt() const { return int_; }
  /// Requires is_string() or is_dn().
  const std::string& AsString() const { return str_; }

  /// Renders the value for display and for LDIF-style text output.
  std::string ToString() const;

  bool operator==(const Value& other) const;
  bool operator!=(const Value& other) const { return !(*this == other); }
  bool operator<(const Value& other) const;

 private:
  explicit Value(int64_t v) : kind_(TypeKind::kInt), int_(v) {}
  Value(TypeKind kind, std::string s)
      : kind_(kind), int_(0), str_(std::move(s)) {}

  TypeKind kind_;
  int64_t int_;
  std::string str_;
};

/// \brief A Value read in place: its kind plus the int, or a view of the
/// string. Entries hand these out from their wire bytes (core/entry.h); a
/// view is valid while the bytes it borrows are. Every Value converts to
/// one, and views order and compare exactly as Values do.
class ValueView {
 public:
  /// Constructs the int value 0.
  ValueView() = default;
  ValueView(const Value& v)  // NOLINT(runtime/explicit): views `v`
      : kind_(v.kind()), int_(v.AsInt()), str_(v.AsString()) {}

  static ValueView Int(int64_t v) {
    ValueView out;
    out.int_ = v;
    return out;
  }
  /// A string-kind (kString or kDn) view of `s`.
  static ValueView Str(TypeKind kind, std::string_view s) {
    ValueView out;
    out.kind_ = kind;
    out.str_ = s;
    return out;
  }

  TypeKind kind() const { return kind_; }
  bool is_int() const { return kind_ == TypeKind::kInt; }
  bool is_string() const { return kind_ == TypeKind::kString; }
  bool is_dn() const { return kind_ == TypeKind::kDn; }

  /// Requires is_int().
  int64_t AsInt() const { return int_; }
  /// Requires is_string() or is_dn().
  std::string_view AsString() const { return str_; }

  /// An owning copy.
  Value ToValue() const;
  /// As Value::ToString.
  std::string ToString() const;

  /// <0, 0 or >0 as `a` orders before, equal to or after `b`: by kind,
  /// then numerically for kInt and bytewise otherwise.
  static int Compare(ValueView a, ValueView b);

  friend bool operator==(ValueView a, ValueView b) {
    return Compare(a, b) == 0;
  }
  friend bool operator<(ValueView a, ValueView b) {
    return Compare(a, b) < 0;
  }

 private:
  TypeKind kind_ = TypeKind::kInt;
  int64_t int_ = 0;
  std::string_view str_;
};

}  // namespace ndq

#endif  // NDQ_CORE_VALUE_H_
