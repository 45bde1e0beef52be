#include "core/value.h"

namespace ndq {

const char* TypeKindToString(TypeKind kind) {
  switch (kind) {
    case TypeKind::kInt:
      return "int";
    case TypeKind::kString:
      return "string";
    case TypeKind::kDn:
      return "dn";
  }
  return "unknown";
}

Result<TypeKind> TypeKindFromString(const std::string& name) {
  if (name == "int") return TypeKind::kInt;
  if (name == "string") return TypeKind::kString;
  if (name == "dn" || name == "distinguishedName") return TypeKind::kDn;
  return Status::InvalidArgument("unknown type name: " + name);
}

std::string Value::ToString() const { return ValueView(*this).ToString(); }

bool Value::operator==(const Value& other) const {
  return ValueView(*this) == ValueView(other);
}

bool Value::operator<(const Value& other) const {
  return ValueView(*this) < ValueView(other);
}

Value ValueView::ToValue() const {
  if (is_int()) return Value::Int(int_);
  return is_dn() ? Value::DnRef(std::string(str_))
                 : Value::String(std::string(str_));
}

std::string ValueView::ToString() const {
  if (is_int()) return std::to_string(int_);
  return std::string(str_);
}

int ValueView::Compare(ValueView a, ValueView b) {
  if (a.kind_ != b.kind_) return a.kind_ < b.kind_ ? -1 : 1;
  if (a.is_int()) return a.int_ < b.int_ ? -1 : (a.int_ > b.int_ ? 1 : 0);
  return a.str_.compare(b.str_);
}

}  // namespace ndq
