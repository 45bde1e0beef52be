#include "filter/atomic_filter.h"

#include <cctype>

#include "core/schema.h"

namespace ndq {

namespace {

// A string-equality rhs needs the quoted form when the bare rendering
// would re-parse as a different filter kind: integer literals ("5" would
// become int equality), '*' (presence/substring), or forms the filter
// grammar cannot represent bare (empty, edge spaces trimmed by Parse, a
// leading quote).
bool NeedsQuoting(const std::string& s) {
  if (s.empty()) return true;
  if (s.front() == ' ' || s.back() == ' ' || s.front() == '"') return true;
  if (s.find('*') != std::string::npos) return true;
  return ParseValueAs(TypeKind::kInt, s).ok();
}

std::string QuoteString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

const char* CompareOpToString(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "!=";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

AtomicFilter AtomicFilter::True() {
  AtomicFilter f;
  f.kind_ = Kind::kTrue;
  return f;
}

AtomicFilter AtomicFilter::Presence(std::string attr) {
  AtomicFilter f;
  f.kind_ = Kind::kPresence;
  f.attr_ = std::move(attr);
  return f;
}

AtomicFilter AtomicFilter::IntCompare(std::string attr, CompareOp op,
                                      int64_t rhs) {
  AtomicFilter f;
  f.kind_ = Kind::kIntCmp;
  f.attr_ = std::move(attr);
  f.op_ = op;
  f.int_rhs_ = rhs;
  return f;
}

AtomicFilter AtomicFilter::Equals(std::string attr, Value rhs) {
  AtomicFilter f;
  f.kind_ = Kind::kEquals;
  f.attr_ = std::move(attr);
  f.value_rhs_ = std::move(rhs);
  return f;
}

AtomicFilter AtomicFilter::Substring(std::string attr, std::string pattern) {
  AtomicFilter f;
  f.kind_ = Kind::kSubstring;
  f.attr_ = std::move(attr);
  f.pattern_ = pattern;
  // Split at '*'.
  std::string part;
  for (char c : pattern) {
    if (c == '*') {
      f.pattern_parts_.push_back(part);
      part.clear();
    } else {
      part += c;
    }
  }
  f.pattern_parts_.push_back(part);
  return f;
}

Result<AtomicFilter> AtomicFilter::Parse(std::string_view text) {
  // Find the operator: the first of <=, >=, !=, <, >, =.
  size_t pos = std::string_view::npos;
  CompareOp op = CompareOp::kEq;
  size_t op_len = 1;
  for (size_t i = 0; i < text.size(); ++i) {
    char c = text[i];
    if (c == '<' || c == '>') {
      pos = i;
      if (i + 1 < text.size() && text[i + 1] == '=') {
        op = (c == '<') ? CompareOp::kLe : CompareOp::kGe;
        op_len = 2;
      } else {
        op = (c == '<') ? CompareOp::kLt : CompareOp::kGt;
      }
      break;
    }
    if (c == '!' && i + 1 < text.size() && text[i + 1] == '=') {
      pos = i;
      op = CompareOp::kNe;
      op_len = 2;
      break;
    }
    if (c == '=') {
      pos = i;
      op = CompareOp::kEq;
      break;
    }
  }
  if (pos == std::string_view::npos) {
    return Status::InvalidArgument("atomic filter missing operator: " +
                                   std::string(text));
  }
  auto trim = [](std::string_view s) {
    size_t b = s.find_first_not_of(' ');
    if (b == std::string_view::npos) return std::string_view();
    size_t e = s.find_last_not_of(' ');
    return s.substr(b, e - b + 1);
  };
  std::string attr(trim(text.substr(0, pos)));
  std::string rhs(trim(text.substr(pos + op_len)));
  if (attr.empty()) {
    return Status::InvalidArgument("atomic filter missing attribute: " +
                                   std::string(text));
  }
  // Attribute names follow the DN attribute syntax (alphanumeric plus
  // '-', '_', '.', starting with a letter); anything else is a parse
  // error, not a never-matching filter.
  if (!std::isalpha(static_cast<unsigned char>(attr[0]))) {
    return Status::InvalidArgument("bad attribute name in filter: '" +
                                   attr + "'");
  }
  for (char c : attr) {
    unsigned char u = static_cast<unsigned char>(c);
    if (!std::isalnum(u) && c != '-' && c != '_' && c != '.') {
      return Status::InvalidArgument("bad attribute name in filter: '" +
                                     attr + "'");
    }
  }

  if (op == CompareOp::kEq) {
    if (!rhs.empty() && rhs.front() == '"') {
      // Quoted string equality: attr="text", with \" and \\ escapes.
      // Always string-typed, regardless of what the text spells.
      std::string value;
      bool closed = false;
      size_t i = 1;
      for (; i < rhs.size(); ++i) {
        char c = rhs[i];
        if (c == '\\') {
          if (i + 1 >= rhs.size()) break;
          value += rhs[++i];
        } else if (c == '"') {
          closed = true;
          ++i;
          break;
        } else {
          value += c;
        }
      }
      if (!closed || i != rhs.size()) {
        return Status::InvalidArgument("malformed quoted value in filter: " +
                                       std::string(text));
      }
      return Equals(std::move(attr), Value::String(std::move(value)));
    }
    if (rhs == "*") {
      if (attr == kObjectClassAttr) return True();
      return Presence(std::move(attr));
    }
    if (rhs.find('*') != std::string::npos) {
      return Substring(std::move(attr), std::move(rhs));
    }
    // Integer literal -> int equality, otherwise string equality.
    Result<Value> as_int = ParseValueAs(TypeKind::kInt, rhs);
    if (as_int.ok()) return Equals(std::move(attr), as_int.TakeValue());
    return Equals(std::move(attr), Value::String(std::move(rhs)));
  }

  // Ordered / negated comparisons demand an integer rhs.
  NDQ_ASSIGN_OR_RETURN(Value v, ParseValueAs(TypeKind::kInt, rhs));
  return IntCompare(std::move(attr), op, v.AsInt());
}

bool WildcardMatch(const std::vector<std::string>& parts,
                   std::string_view text) {
  if (parts.empty()) return false;
  if (parts.size() == 1) return text == parts[0];
  // First part anchors at the start, last at the end, middles in order.
  const std::string& first = parts.front();
  const std::string& last = parts.back();
  if (text.size() < first.size() + last.size()) return false;
  if (text.substr(0, first.size()) != first) return false;
  if (text.substr(text.size() - last.size()) != last) return false;
  size_t pos = first.size();
  size_t limit = text.size() - last.size();
  for (size_t i = 1; i + 1 < parts.size(); ++i) {
    const std::string& mid = parts[i];
    if (mid.empty()) continue;
    size_t found = text.substr(0, limit).find(mid, pos);
    if (found == std::string_view::npos) return false;
    pos = found + mid.size();
  }
  return true;
}

bool AtomicFilter::MatchesValue(ValueView v) const {
  switch (kind_) {
    case Kind::kTrue:
      return true;
    case Kind::kPresence:
      return true;  // any value of the attribute witnesses presence
    case Kind::kIntCmp: {
      if (!v.is_int()) return false;
      int64_t x = v.AsInt();
      switch (op_) {
        case CompareOp::kEq:
          return x == int_rhs_;
        case CompareOp::kNe:
          return x != int_rhs_;
        case CompareOp::kLt:
          return x < int_rhs_;
        case CompareOp::kLe:
          return x <= int_rhs_;
        case CompareOp::kGt:
          return x > int_rhs_;
        case CompareOp::kGe:
          return x >= int_rhs_;
      }
      return false;
    }
    case Kind::kEquals:
      if (value_rhs_.is_int()) {
        // The literal was numeric; also match its string spelling, since
        // attribute types are not known at parse time.
        return (v.is_int() && v.AsInt() == value_rhs_.AsInt()) ||
               (v.is_string() && v.AsString() == value_rhs_.ToString());
      }
      return (!v.is_int()) && v.AsString() == value_rhs_.AsString();
    case Kind::kSubstring:
      if (v.is_int()) return false;
      return WildcardMatch(pattern_parts_, v.AsString());
  }
  return false;
}

bool AtomicFilter::Matches(const EntryView& entry) const {
  if (kind_ == Kind::kTrue) return true;
  const ValueList vals = entry.Values(attr_);
  if (vals.empty()) return false;
  if (kind_ == Kind::kPresence) return true;
  for (ValueView v : vals) {
    if (MatchesValue(v)) return true;
  }
  return false;
}

std::string AtomicFilter::ToString() const {
  switch (kind_) {
    case Kind::kTrue:
      return "objectClass=*";
    case Kind::kPresence:
      return attr_ + "=*";
    case Kind::kIntCmp:
      return attr_ + CompareOpToString(op_) + std::to_string(int_rhs_);
    case Kind::kEquals:
      if (value_rhs_.is_string() && NeedsQuoting(value_rhs_.AsString())) {
        return attr_ + "=" + QuoteString(value_rhs_.AsString());
      }
      return attr_ + "=" + value_rhs_.ToString();
    case Kind::kSubstring:
      return attr_ + "=" + pattern_;
  }
  return "?";
}

bool AtomicFilter::operator==(const AtomicFilter& other) const {
  return kind_ == other.kind_ && attr_ == other.attr_ && op_ == other.op_ &&
         int_rhs_ == other.int_rhs_ && value_rhs_ == other.value_rhs_ &&
         pattern_ == other.pattern_;
}

}  // namespace ndq
