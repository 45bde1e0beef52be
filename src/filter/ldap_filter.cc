#include "filter/ldap_filter.h"

#include <algorithm>

namespace ndq {

LdapFilterPtr LdapFilter::Atomic(AtomicFilter f) {
  auto node = std::shared_ptr<LdapFilter>(new LdapFilter());
  node->op_ = Op::kAtomic;
  node->atomic_ = std::move(f);
  return node;
}

LdapFilterPtr LdapFilter::And(std::vector<LdapFilterPtr> children) {
  auto node = std::shared_ptr<LdapFilter>(new LdapFilter());
  node->op_ = Op::kAnd;
  node->children_ = std::move(children);
  return node;
}

LdapFilterPtr LdapFilter::Or(std::vector<LdapFilterPtr> children) {
  auto node = std::shared_ptr<LdapFilter>(new LdapFilter());
  node->op_ = Op::kOr;
  node->children_ = std::move(children);
  return node;
}

LdapFilterPtr LdapFilter::Not(LdapFilterPtr child) {
  auto node = std::shared_ptr<LdapFilter>(new LdapFilter());
  node->op_ = Op::kNot;
  node->children_.push_back(std::move(child));
  return node;
}

namespace {

class FilterParser {
 public:
  explicit FilterParser(std::string_view text) : text_(text) {}

  Result<LdapFilterPtr> Parse() {
    SkipSpace();
    NDQ_ASSIGN_OR_RETURN(LdapFilterPtr f, ParseFilter());
    SkipSpace();
    if (pos_ != text_.size()) {
      return Status::InvalidArgument("trailing characters in filter: " +
                                     std::string(text_.substr(pos_)));
    }
    return f;
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() && text_[pos_] == ' ') ++pos_;
  }

  bool Peek(char c) const { return pos_ < text_.size() && text_[pos_] == c; }

  Result<LdapFilterPtr> ParseFilter() {
    SkipSpace();
    if (!Peek('(')) {
      // Bare atomic filter: read to end.
      NDQ_ASSIGN_OR_RETURN(AtomicFilter a,
                           AtomicFilter::Parse(text_.substr(pos_)));
      pos_ = text_.size();
      return LdapFilter::Atomic(std::move(a));
    }
    ++pos_;  // consume '('
    SkipSpace();
    if (Peek('&') || Peek('|')) {
      char op = text_[pos_++];
      std::vector<LdapFilterPtr> children;
      SkipSpace();
      while (Peek('(')) {
        NDQ_ASSIGN_OR_RETURN(LdapFilterPtr child, ParseFilter());
        children.push_back(std::move(child));
        SkipSpace();
      }
      if (children.empty()) {
        return Status::InvalidArgument("boolean filter with no operands");
      }
      if (!Peek(')')) return Status::InvalidArgument("filter missing ')'");
      ++pos_;
      return op == '&' ? LdapFilter::And(std::move(children))
                       : LdapFilter::Or(std::move(children));
    }
    if (Peek('!')) {
      ++pos_;
      NDQ_ASSIGN_OR_RETURN(LdapFilterPtr child, ParseFilter());
      SkipSpace();
      if (!Peek(')')) return Status::InvalidArgument("filter missing ')'");
      ++pos_;
      return LdapFilter::Not(std::move(child));
    }
    // Atomic: read to matching ')'.
    size_t close = text_.find(')', pos_);
    if (close == std::string_view::npos) {
      return Status::InvalidArgument("filter missing ')'");
    }
    NDQ_ASSIGN_OR_RETURN(
        AtomicFilter a, AtomicFilter::Parse(text_.substr(pos_, close - pos_)));
    pos_ = close + 1;
    return LdapFilter::Atomic(std::move(a));
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

Result<LdapFilterPtr> LdapFilter::Parse(std::string_view text) {
  return FilterParser(text).Parse();
}

bool LdapFilter::Matches(const EntryView& entry) const {
  switch (op_) {
    case Op::kAtomic:
      return atomic_.Matches(entry);
    case Op::kAnd:
      return std::all_of(children_.begin(), children_.end(),
                         [&](const LdapFilterPtr& c) {
                           return c->Matches(entry);
                         });
    case Op::kOr:
      return std::any_of(children_.begin(), children_.end(),
                         [&](const LdapFilterPtr& c) {
                           return c->Matches(entry);
                         });
    case Op::kNot:
      return !children_[0]->Matches(entry);
  }
  return false;
}

std::string LdapFilter::ToString() const {
  switch (op_) {
    case Op::kAtomic:
      return "(" + atomic_.ToString() + ")";
    case Op::kAnd:
    case Op::kOr: {
      std::string out = op_ == Op::kAnd ? "(&" : "(|";
      for (const LdapFilterPtr& c : children_) out += c->ToString();
      out += ')';
      return out;
    }
    case Op::kNot:
      return "(!" + children_[0]->ToString() + ")";
  }
  return "?";
}

}  // namespace ndq
