#include "storage/fault_injector.h"

#include <cerrno>
#include <cstdint>
#include <cstdlib>

namespace ndq {

const char* FaultOpName(FaultOp op) {
  switch (op) {
    case FaultOp::kRead:
      return "read";
    case FaultOp::kWrite:
      return "write";
    case FaultOp::kAllocate:
      return "alloc";
    case FaultOp::kFree:
      return "free";
    case FaultOp::kSync:
      return "sync";
  }
  return "?";
}

Status FaultInjector::Check(FaultOp op, uint32_t page) {
  std::lock_guard<std::mutex> lock(mu_);
  bool fire = false;
  for (Rule& r : rules_) {
    if ((r.ops & FaultOpBit(op)) == 0) continue;
    if (r.has_page && r.page != page) continue;
    ++r.seen;
    bool hit = false;
    if (r.tripped && r.sticky) {
      hit = true;
    } else if (r.nth != 0 && r.seen == r.nth) {
      hit = true;
    } else if (r.every_kth != 0 && r.seen % r.every_kth == 0) {
      hit = true;
    } else if (r.probability > 0.0) {
      std::uniform_real_distribution<double> dist(0.0, 1.0);
      if (dist(rng_) < r.probability) hit = true;
    }
    if (hit) {
      r.tripped = true;
      fire = true;
    }
  }
  ++seen_;
  if (!fire) return Status::OK();
  ++fired_;
  return Status::Unavailable("injected fault: " + std::string(FaultOpName(op)) +
                             " page " + std::to_string(page) + " (op #" +
                             std::to_string(seen_) + ")");
}

Result<FaultInjector> FaultInjector::Parse(const std::string& spec) {
  auto split = [](const std::string& s, char sep) {
    std::vector<std::string> parts;
    size_t start = 0;
    while (start <= s.size()) {
      size_t end = s.find(sep, start);
      if (end == std::string::npos) end = s.size();
      parts.push_back(s.substr(start, end - start));
      start = end + 1;
    }
    return parts;
  };
  // Digits only: strtoull alone would negate a '-' and saturate on
  // overflow.
  auto parse_u64 = [](const std::string& s, uint64_t* out) {
    if (s.empty() || s[0] < '0' || s[0] > '9') return false;
    char* end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(s.c_str(), &end, 10);
    if (errno != 0 || end == nullptr || *end != '\0') return false;
    *out = v;
    return true;
  };

  std::vector<Rule> rules;
  uint64_t seed = 0;
  for (const std::string& rule_spec : split(spec, ';')) {
    if (rule_spec.empty()) continue;
    std::vector<std::string> fields = split(rule_spec, ':');
    Rule r;
    // First field: the op set.
    r.ops = 0;
    for (const std::string& op : split(fields[0], '|')) {
      if (op == "read") {
        r.ops |= FaultOpBit(FaultOp::kRead);
      } else if (op == "write") {
        r.ops |= FaultOpBit(FaultOp::kWrite);
      } else if (op == "alloc") {
        r.ops |= FaultOpBit(FaultOp::kAllocate);
      } else if (op == "free") {
        r.ops |= FaultOpBit(FaultOp::kFree);
      } else if (op == "sync") {
        r.ops |= FaultOpBit(FaultOp::kSync);
      } else if (op == "any") {
        r.ops |= kFaultAllOps;
      } else {
        return Status::InvalidArgument("fault spec: unknown op '" + op +
                                       "' in '" + rule_spec + "'");
      }
    }
    for (size_t i = 1; i < fields.size(); ++i) {
      const std::string& f = fields[i];
      uint64_t v = 0;
      if (f == "sticky") {
        r.sticky = true;
      } else if (f.rfind("n=", 0) == 0 && parse_u64(f.substr(2), &v) &&
                 v > 0) {
        r.nth = v;
      } else if (f.rfind("every=", 0) == 0 && parse_u64(f.substr(6), &v) &&
                 v > 0) {
        r.every_kth = v;
      } else if (f.rfind("page=", 0) == 0 && parse_u64(f.substr(5), &v) &&
                 v <= UINT32_MAX) {
        r.has_page = true;
        r.page = static_cast<uint32_t>(v);
      } else if (f.rfind("seed=", 0) == 0 && parse_u64(f.substr(5), &v)) {
        seed = v;
      } else if (f.rfind("p=", 0) == 0) {
        char* end = nullptr;
        double p = std::strtod(f.c_str() + 2, &end);
        // The comparisons are false for NaN, so NaN fails !(p >= 0).
        if (end == nullptr || *end != '\0' || !(p >= 0.0 && p <= 1.0)) {
          return Status::InvalidArgument("fault spec: bad probability '" + f +
                                         "'");
        }
        r.probability = p;
      } else {
        return Status::InvalidArgument("fault spec: unknown field '" + f +
                                       "' in '" + rule_spec + "'");
      }
    }
    if (r.nth == 0 && r.every_kth == 0 && r.probability == 0.0) {
      if (r.has_page) {
        r.every_kth = 1;  // "read:page=7" means every touch of page 7.
      } else {
        return Status::InvalidArgument(
            "fault spec: rule '" + rule_spec +
            "' needs a trigger (n=, every=, p= or page=)");
      }
    }
    rules.push_back(r);
  }
  if (rules.empty()) {
    return Status::InvalidArgument("fault spec: no rules in '" + spec + "'");
  }
  return FaultInjector(std::move(rules), seed);
}

}  // namespace ndq
