#include "core/schema.h"

#include <cstdlib>

#include "core/dn.h"
#include "core/entry.h"

namespace ndq {

Schema::Schema() { attributes_[kObjectClassAttr] = TypeKind::kString; }

Status Schema::AddAttribute(const std::string& name, TypeKind type) {
  if (name.empty()) return Status::InvalidArgument("empty attribute name");
  auto it = attributes_.find(name);
  if (it != attributes_.end()) {
    if (it->second != type) {
      return Status::AlreadyExists("attribute " + name +
                                   " already declared with type " +
                                   TypeKindToString(it->second));
    }
    return Status::OK();
  }
  attributes_[name] = type;
  return Status::OK();
}

Status Schema::AddClass(const std::string& name,
                        const std::vector<std::string>& allowed_attrs) {
  if (name.empty()) return Status::InvalidArgument("empty class name");
  std::set<std::string> attrs;
  for (const std::string& a : allowed_attrs) {
    if (!HasAttribute(a)) {
      return Status::NotFound("class " + name +
                              " references undeclared attribute " + a);
    }
    attrs.insert(a);
  }
  attrs.insert(kObjectClassAttr);
  classes_[name] = std::move(attrs);
  return Status::OK();
}

bool Schema::HasAttribute(const std::string& name) const {
  return attributes_.find(name) != attributes_.end();
}

bool Schema::HasClass(const std::string& name) const {
  return classes_.find(name) != classes_.end();
}

Result<TypeKind> Schema::AttributeType(const std::string& name) const {
  auto it = attributes_.find(name);
  if (it == attributes_.end()) {
    return Status::NotFound("undeclared attribute: " + name);
  }
  return it->second;
}

Result<std::set<std::string>> Schema::AllowedAttributes(
    const std::string& name) const {
  auto it = classes_.find(name);
  if (it == classes_.end()) {
    return Status::NotFound("undeclared class: " + name);
  }
  return it->second;
}

bool Schema::AttributeAllowedForAny(
    const std::string& attr, const std::vector<std::string>& classes) const {
  if (attr == kObjectClassAttr) return true;
  for (const std::string& c : classes) {
    auto it = classes_.find(c);
    if (it != classes_.end() && it->second.count(attr) > 0) return true;
  }
  return false;
}

Status Schema::ValidateEntry(const Entry& entry) const {
  if (entry.dn().IsNull()) {
    return Status::InvalidArgument("entry has null dn");
  }
  // Def. 3.2(b): class(r) non-empty and drawn from C.
  std::vector<std::string> classes = entry.Classes();
  if (classes.empty()) {
    return Status::InvalidArgument("entry " + entry.dn().ToString() +
                                   " has no objectClass");
  }
  for (const std::string& c : classes) {
    if (!HasClass(c)) {
      return Status::NotFound("entry " + entry.dn().ToString() +
                              " has undeclared class " + c);
    }
  }
  // Def. 3.2(c)(1): every pair is allowed and correctly typed.
  for (const AttributeView& a : entry.view()) {
    const std::string attr(a.name);
    auto type_it = attributes_.find(attr);
    if (type_it == attributes_.end()) {
      return Status::NotFound("entry " + entry.dn().ToString() +
                              " has undeclared attribute " + attr);
    }
    if (!AttributeAllowedForAny(attr, classes)) {
      return Status::InvalidArgument("attribute " + attr +
                                     " not allowed for classes of entry " +
                                     entry.dn().ToString());
    }
    for (ValueView v : a.values) {
      if (v.kind() != type_it->second) {
        return Status::InvalidArgument(
            "value of wrong type for attribute " + attr + " in entry " +
            entry.dn().ToString());
      }
    }
  }
  // Def. 3.2(d)(ii): rdn(r) is a subset of val(r).
  const Rdn rdn = entry.dn().rdn();
  for (const auto& [attr, text] : rdn.pairs()) {
    auto type_it = attributes_.find(attr);
    if (type_it == attributes_.end()) {
      return Status::NotFound("rdn attribute " + attr + " undeclared");
    }
    Result<Value> v = ParseValueAs(type_it->second, text);
    if (!v.ok()) return v.status();
    if (!entry.HasPair(attr, *v)) {
      return Status::InvalidArgument(
          "rdn pair (" + attr + ", " + text + ") missing from val(r) of " +
          entry.dn().ToString());
    }
  }
  return Status::OK();
}

Result<Value> ParseValueAs(TypeKind type, const std::string& text) {
  switch (type) {
    case TypeKind::kInt: {
      if (text.empty()) return Status::InvalidArgument("empty int literal");
      char* end = nullptr;
      errno = 0;
      long long v = std::strtoll(text.c_str(), &end, 10);
      if (errno != 0 || end != text.c_str() + text.size()) {
        return Status::InvalidArgument("bad int literal: " + text);
      }
      return Value::Int(v);
    }
    case TypeKind::kString:
      return Value::String(text);
    case TypeKind::kDn: {
      NDQ_ASSIGN_OR_RETURN(Dn dn, Dn::Parse(text));
      return Value::DnRef(dn.ToString());
    }
  }
  return Status::InvalidArgument("unknown type kind");
}

}  // namespace ndq
