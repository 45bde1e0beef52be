#include "core/dn.h"

#include <algorithm>
#include <tuple>

namespace ndq {

static_assert(sizeof(Dn) == sizeof(std::string), "a Dn is its HierKey");

namespace {

bool IsAsciiAlpha(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}

// A letter, then letters, digits, '-', '_' or '.'; ASCII only, as
// std::isalpha/isalnum in the "C" locale, without a library call per byte.
bool IsValidAttrName(std::string_view name) {
  if (name.empty() || !IsAsciiAlpha(name[0])) return false;
  for (char c : name) {
    bool ok = IsAsciiAlpha(c) || (c >= '0' && c <= '9') || c == '-' ||
              c == '_' || c == '.';
    if (!ok) return false;
  }
  return true;
}

bool HasControlBytes(std::string_view s) {
  for (char c : s) {
    if (static_cast<unsigned char>(c) < 0x20) return true;
  }
  return false;
}

// What is wrong with an (attribute, value) pair, if anything.
enum class PairFault { kNone, kAttrName, kEmptyValue, kControlBytes };

// The one test of an (attribute, value) pair, for Rdn::Make and
// Dn::FromHierKey alike: a well-formed attribute name and a non-empty
// value with no control bytes (which would collide with the key's
// separators). Returns a plain enum, not a Status: FromHierKey runs it on
// every pair of every record a scan decodes.
PairFault CheckPair(std::string_view attr, std::string_view value) {
  if (!IsValidAttrName(attr)) return PairFault::kAttrName;
  if (value.empty()) return PairFault::kEmptyValue;
  if (HasControlBytes(value)) return PairFault::kControlBytes;
  return PairFault::kNone;
}

// The InvalidArgument a CheckPair fault reports.
Status PairError(PairFault fault, std::string_view attr) {
  switch (fault) {
    case PairFault::kNone:
      break;
    case PairFault::kAttrName:
      return Status::InvalidArgument("invalid attribute name in RDN: '" +
                                     std::string(attr) + "'");
    case PairFault::kEmptyValue:
      return Status::InvalidArgument("empty value for RDN attribute " +
                                     std::string(attr));
    case PairFault::kControlBytes:
      return Status::InvalidArgument("control bytes in RDN value for " +
                                     std::string(attr));
  }
  return Status::OK();
}

// Calls f(attr, value) for each "attr=value" pair of one HierKey component,
// splitting each at its first '=' (attribute names contain none). Returns
// false, having stopped there, at the first pair with no '='.
template <typename F>
bool ForEachPair(std::string_view comp, F&& f) {
  for (size_t begin = 0;;) {
    size_t end = std::min(comp.find(kHierPairSep, begin), comp.size());
    std::string_view pair = comp.substr(begin, end - begin);
    size_t eq = pair.find('=');
    if (eq == std::string_view::npos) return false;
    f(pair.substr(0, eq), pair.substr(eq + 1));
    if (end == comp.size()) return true;
    begin = end + 1;
  }
}

// Calls f(component) for each component of a non-empty HierKey, root first.
// Stops at, and returns, the first error f returns.
template <typename F>
Status ForEachComponent(std::string_view key, F&& f) {
  for (size_t begin = 0;;) {
    size_t end = std::min(key.find(kHierKeySep, begin), key.size());
    NDQ_RETURN_IF_ERROR(f(key.substr(begin, end - begin)));
    if (end == key.size()) return Status::OK();
    begin = end + 1;
  }
}

// The leaf-most component of a key (all of it for a one-component key).
std::string_view LeafComponent(std::string_view key) {
  size_t sep = key.rfind(kHierKeySep);
  return sep == std::string_view::npos ? key : key.substr(sep + 1);
}

// Validates one HierKey component without allocating: every pair has an
// '=' (Corruption) and passes CheckPair (InvalidArgument, reported only if
// no pair of the component lacks its '='). Sets *sorted to whether the
// pairs strictly increase, i.e. are as Rdn::Make leaves them.
Status CheckKeyComponent(std::string_view comp, bool* sorted) {
  PairFault fault = PairFault::kNone;
  std::string_view fault_attr, prev_attr, prev_value;
  bool first = true;
  *sorted = true;
  bool well_formed =
      ForEachPair(comp, [&](std::string_view attr, std::string_view value) {
        if (fault == PairFault::kNone) {
          fault = CheckPair(attr, value);
          fault_attr = attr;
        }
        if (!first &&
            !(std::tie(prev_attr, prev_value) < std::tie(attr, value))) {
          *sorted = false;
        }
        first = false;
        prev_attr = attr;
        prev_value = value;
      });
  if (!well_formed) return Status::Corruption("malformed HierKey component");
  return PairError(fault, fault_attr);
}

// Splits `text` on unescaped occurrences of `delim`, preserving escape
// sequences in the returned segments.
std::vector<std::string> SplitUnescaped(std::string_view text, char delim) {
  std::vector<std::string> out;
  std::string cur;
  bool escaped = false;
  for (char c : text) {
    if (escaped) {
      cur += c;
      escaped = false;
      continue;
    }
    if (c == '\\') {
      cur += c;
      escaped = true;
      continue;
    }
    if (c == delim) {
      out.push_back(std::move(cur));
      cur.clear();
      continue;
    }
    cur += c;
  }
  out.push_back(std::move(cur));
  return out;
}

// Removes one level of backslash escaping; rejects trailing lone backslash.
Result<std::string> Unescape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  bool escaped = false;
  for (char c : text) {
    if (escaped) {
      out += c;
      escaped = false;
    } else if (c == '\\') {
      escaped = true;
    } else {
      out += c;
    }
  }
  if (escaped) {
    return Status::InvalidArgument("dangling backslash in DN component");
  }
  return out;
}

// Trims unescaped ASCII spaces from both ends (escape sequences are still
// present in `text`, so a trailing "\\ " survives). A trailing space is
// escaped iff it is preceded by an odd-length run of backslashes: in
// "a\\\\ " the backslash before the space is itself escaped, so the space
// is unescaped and must be trimmed.
std::string_view TrimSpaces(std::string_view text) {
  size_t begin = 0;
  while (begin < text.size() && text[begin] == ' ') ++begin;
  size_t end = text.size();
  while (end > begin && text[end - 1] == ' ') {
    size_t backslashes = 0;
    while (end - 1 - backslashes > begin &&
           text[end - 2 - backslashes] == '\\') {
      ++backslashes;
    }
    if (backslashes % 2 == 1) break;  // the space is escaped
    --end;
  }
  return text.substr(begin, end - begin);
}

// Appends "attr=value" in display form, the value escaped.
void AppendPairText(std::string_view attr, std::string_view value,
                    std::string* out) {
  out->append(attr);
  *out += '=';
  for (size_t i = 0; i < value.size(); ++i) {
    char c = value[i];
    // Leading/trailing spaces must be escaped or Parse's trimming would
    // drop them and the printed form would not round-trip.
    bool edge_space = c == ' ' && (i == 0 || i + 1 == value.size());
    if (c == ',' || c == '+' || c == '=' || c == '\\' || edge_space) {
      *out += '\\';
    }
    *out += c;
  }
}

}  // namespace

Result<Rdn> Rdn::Make(
    std::vector<std::pair<std::string, std::string>> pairs) {
  if (pairs.empty()) {
    return Status::InvalidArgument("RDN must contain at least one pair");
  }
  for (const auto& [attr, value] : pairs) {
    PairFault fault = CheckPair(attr, value);
    if (fault != PairFault::kNone) return PairError(fault, attr);
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
  Rdn rdn;
  rdn.pairs_ = std::move(pairs);
  return rdn;
}

Result<Rdn> Rdn::Single(std::string attr, std::string value) {
  return Make({{std::move(attr), std::move(value)}});
}

std::string Rdn::ToKeyComponent() const {
  std::string out;
  for (size_t i = 0; i < pairs_.size(); ++i) {
    if (i > 0) out += kHierPairSep;
    out += pairs_[i].first;
    out += '=';
    out += pairs_[i].second;
  }
  return out;
}

std::string Rdn::ToString() const {
  std::string out;
  for (size_t i = 0; i < pairs_.size(); ++i) {
    if (i > 0) out += '+';
    AppendPairText(pairs_[i].first, pairs_[i].second, &out);
  }
  return out;
}

Result<Dn> Dn::Make(const std::vector<Rdn>& rdns) {
  std::string key;
  for (auto it = rdns.rbegin(); it != rdns.rend(); ++it) {
    if (it->empty()) {
      return Status::InvalidArgument("DN contains an empty RDN component");
    }
    if (it != rdns.rbegin()) key += kHierKeySep;
    key += it->ToKeyComponent();
  }
  return Dn(std::move(key));
}

Result<Dn> Dn::Parse(std::string_view text) {
  std::string_view trimmed = TrimSpaces(text);
  if (trimmed.empty()) return Dn();  // the null dn
  std::vector<Rdn> rdns;
  for (const std::string& comp : SplitUnescaped(trimmed, ',')) {
    std::vector<std::pair<std::string, std::string>> pairs;
    for (const std::string& pair_text : SplitUnescaped(comp, '+')) {
      std::string_view pt = TrimSpaces(pair_text);
      // Split at the first unescaped '='.
      size_t eq = std::string::npos;
      bool escaped = false;
      for (size_t i = 0; i < pt.size(); ++i) {
        if (escaped) {
          escaped = false;
        } else if (pt[i] == '\\') {
          escaped = true;
        } else if (pt[i] == '=') {
          eq = i;
          break;
        }
      }
      if (eq == std::string::npos) {
        return Status::InvalidArgument(
            "DN component missing '=': '" + std::string(pt) + "'");
      }
      NDQ_ASSIGN_OR_RETURN(std::string attr,
                           Unescape(TrimSpaces(pt.substr(0, eq))));
      NDQ_ASSIGN_OR_RETURN(std::string value,
                           Unescape(TrimSpaces(pt.substr(eq + 1))));
      pairs.emplace_back(std::move(attr), std::move(value));
    }
    NDQ_ASSIGN_OR_RETURN(Rdn rdn, Rdn::Make(std::move(pairs)));
    rdns.push_back(std::move(rdn));
  }
  return Make(rdns);
}

Status Dn::CheckHierKey(std::string_view key, bool* canonical) {
  *canonical = true;
  if (key.empty()) return Status::OK();
  return ForEachComponent(key, [&](std::string_view comp) {
    bool sorted = true;
    NDQ_RETURN_IF_ERROR(CheckKeyComponent(comp, &sorted));
    *canonical = *canonical && sorted;
    return Status::OK();
  });
}

Result<Dn> Dn::FromHierKey(std::string_view key) {
  bool canonical = true;
  NDQ_RETURN_IF_ERROR(CheckHierKey(key, &canonical));
  if (canonical) return Dn(std::string(key));
  // Some component lists its pairs out of order or twice: sort and dedupe
  // just those through Rdn::Make. Every component is already valid.
  std::string normal;
  normal.reserve(key.size());
  NDQ_RETURN_IF_ERROR(ForEachComponent(key, [&](std::string_view comp) {
    if (!normal.empty()) normal += kHierKeySep;
    bool sorted = true;
    NDQ_RETURN_IF_ERROR(CheckKeyComponent(comp, &sorted));
    if (sorted) {
      normal.append(comp);
      return Status::OK();
    }
    std::vector<std::pair<std::string, std::string>> pairs;
    ForEachPair(comp, [&](std::string_view attr, std::string_view value) {
      pairs.emplace_back(attr, value);
    });
    NDQ_ASSIGN_OR_RETURN(Rdn rdn, Rdn::Make(std::move(pairs)));
    normal += rdn.ToKeyComponent();
    return Status::OK();
  }));
  return Dn(std::move(normal));
}

size_t Dn::depth() const { return KeyDepth(key_); }

Rdn Dn::rdn() const {
  Rdn out;
  ForEachPair(LeafComponent(key_),
              [&](std::string_view attr, std::string_view value) {
                out.pairs_.emplace_back(attr, value);
              });
  return out;
}

Dn Dn::Parent() const { return Dn(std::string(KeyParent(key_))); }

Dn Dn::Child(const Rdn& child_rdn) const {
  std::string key = key_;
  if (!key.empty()) key += kHierKeySep;
  key += child_rdn.ToKeyComponent();
  return Dn(std::move(key));
}

std::string Dn::ToString() const {
  std::string out;
  for (std::string_view rest = key_; !rest.empty(); rest = KeyParent(rest)) {
    if (!out.empty()) out += ", ";
    bool first = true;
    ForEachPair(LeafComponent(rest),
                [&](std::string_view attr, std::string_view value) {
                  if (!first) out += '+';
                  first = false;
                  AppendPairText(attr, value, &out);
                });
  }
  return out;
}

bool Dn::IsAncestorOf(const Dn& other) const {
  return KeyIsAncestor(key_, other.key_);
}

bool Dn::IsParentOf(const Dn& other) const {
  return KeyIsParent(key_, other.key_);
}

bool KeyIsAncestor(std::string_view anc, std::string_view desc) {
  if (desc.empty()) return false;
  if (anc.empty()) return true;  // virtual forest root
  return desc.size() > anc.size() && desc.substr(0, anc.size()) == anc &&
         desc[anc.size()] == kHierKeySep;
}

bool KeyIsParent(std::string_view parent, std::string_view child) {
  if (!KeyIsAncestor(parent, child)) return false;
  std::string_view rest =
      parent.empty() ? child : child.substr(parent.size() + 1);
  return rest.find(kHierKeySep) == std::string_view::npos;
}

size_t KeyDepth(std::string_view key) {
  if (key.empty()) return 0;
  return static_cast<size_t>(
             std::count(key.begin(), key.end(), kHierKeySep)) +
         1;
}

std::string_view KeyParent(std::string_view key) {
  size_t pos = key.rfind(kHierKeySep);
  if (pos == std::string_view::npos) return std::string_view();
  return key.substr(0, pos);
}

std::string KeySubtreeEnd(std::string_view key) {
  if (key.empty()) return std::string();  // unbounded: whole forest
  std::string end(key);
  end += static_cast<char>(kHierKeySep + 1);
  return end;
}

std::string KeyExactEnd(std::string_view key) {
  // The smallest legal key extending `key` appends kHierPairSep (more
  // pairs in the last RDN) or kHierKeySep (a child); both sort at or
  // after key + kHierPairSep, so that string bounds the point range.
  std::string end(key);
  end += kHierPairSep;
  return end;
}

std::string KeyDescendantsBegin(std::string_view key) {
  if (key.empty()) return std::string();  // every key descends from ""
  std::string begin(key);
  begin += kHierKeySep;
  return begin;
}

bool KeyInSubtree(std::string_view root, std::string_view key) {
  return key == root || KeyIsAncestor(root, key);
}

}  // namespace ndq
