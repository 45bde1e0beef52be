#include "dist/topology.h"

#include <sstream>

namespace ndq {

namespace {

// First whitespace-delimited token of `line` starting at `pos`; advances
// `pos` past it. Empty when the line is exhausted.
std::string NextToken(const std::string& line, size_t* pos) {
  size_t b = line.find_first_not_of(" \t", *pos);
  if (b == std::string::npos) {
    *pos = line.size();
    return "";
  }
  size_t e = line.find_first_of(" \t", b);
  if (e == std::string::npos) e = line.size();
  *pos = e;
  return line.substr(b, e - b);
}

// A decimal count in [lo, hi]. Parsing stops as soon as the value passes
// `hi`, so no digit string can overflow.
Result<size_t> ParseCount(const std::string& tok, const char* what,
                          size_t lo, size_t hi) {
  auto out_of_range = [&] {
    return Status::InvalidArgument(std::string("topology: ") + what +
                                   " must be in [" + std::to_string(lo) +
                                   ", " + std::to_string(hi) + "]");
  };
  size_t n = 0;
  for (char c : tok) {
    if (c < '0' || c > '9') {
      return Status::InvalidArgument(std::string("topology: bad ") + what +
                                     " '" + tok + "'");
    }
    n = n * 10 + static_cast<size_t>(c - '0');
    if (n > hi) return out_of_range();
  }
  if (n < lo) return out_of_range();
  return n;
}

Result<size_t> ParseReplicas(const std::string& tok) {
  return ParseCount(tok, "replicas", 1, TopologyConfig::kMaxReplicas);
}

}  // namespace

Result<TopologyConfig> TopologyConfig::Parse(const std::string& text) {
  TopologyConfig config;
  std::istringstream in(text);
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    size_t pos = 0;
    std::string directive = NextToken(line, &pos);
    if (directive.empty() || directive[0] == '#') continue;
    if (directive == "replicas") {
      NDQ_ASSIGN_OR_RETURN(config.replicas,
                           ParseReplicas(NextToken(line, &pos)));
    } else if (directive == "page_size") {
      NDQ_ASSIGN_OR_RETURN(
          config.page_size,
          ParseCount(NextToken(line, &pos), "page_size",
                     kMinPageSize, kMaxPageSize));
    } else if (directive == "shard") {
      ShardSpec spec;
      spec.name = NextToken(line, &pos);
      if (spec.name.empty()) {
        return Status::InvalidArgument("topology: line " +
                                       std::to_string(lineno) +
                                       ": shard needs a name");
      }
      // Optional per-shard override, then the context dn (rest of line,
      // spaces and all).
      size_t mark = pos;
      std::string tok = NextToken(line, &pos);
      if (tok.rfind("replicas=", 0) == 0) {
        NDQ_ASSIGN_OR_RETURN(spec.replicas, ParseReplicas(tok.substr(9)));
      } else {
        pos = mark;
      }
      size_t b = line.find_first_not_of(" \t", pos);
      if (b == std::string::npos) {
        return Status::InvalidArgument("topology: line " +
                                       std::to_string(lineno) + ": shard '" +
                                       spec.name + "' needs a context dn");
      }
      // Trailing blanks are dropped, except a space the dn escapes (one
      // after an odd run of backslashes, as in "cn=x\ ").
      size_t e = line.find_last_not_of(" \t\r");
      size_t backslashes = 0;
      while (backslashes <= e - b && line[e - backslashes] == '\\') {
        ++backslashes;
      }
      if (backslashes % 2 == 1 && e + 1 < line.size() && line[e + 1] == ' ') {
        ++e;
      }
      spec.context = line.substr(b, e - b + 1);
      config.shards.push_back(std::move(spec));
    } else {
      return Status::InvalidArgument(
          "topology: line " + std::to_string(lineno) +
          ": unknown directive '" + directive + "'");
    }
  }
  if (config.shards.empty()) {
    return Status::InvalidArgument("topology: no shards declared");
  }
  return config;
}

std::string TopologyConfig::ToString() const {
  std::string out;
  out += "replicas " + std::to_string(replicas) + "\n";
  out += "page_size " + std::to_string(page_size) + "\n";
  for (const ShardSpec& s : shards) {
    out += "shard " + s.name;
    if (s.replicas > 0) out += " replicas=" + std::to_string(s.replicas);
    out += " " + s.context + "\n";
  }
  return out;
}

Result<RoutingTable> RoutingTable::Resolve(const TopologyConfig& config) {
  if (config.shards.empty()) {
    return Status::InvalidArgument("topology: no shards declared");
  }
  // The same bounds Parse enforces, for configs built in code.
  if (config.page_size < TopologyConfig::kMinPageSize ||
      config.page_size > TopologyConfig::kMaxPageSize) {
    return Status::InvalidArgument("topology: page_size out of range");
  }
  for (size_t i = 0; i < config.shards.size(); ++i) {
    if (config.ReplicasFor(i) > TopologyConfig::kMaxReplicas) {
      return Status::InvalidArgument("topology: replicas out of range");
    }
  }
  RoutingTable table;
  table.contexts_.reserve(config.shards.size());
  table.names_.reserve(config.shards.size());
  for (const ShardSpec& spec : config.shards) {
    if (spec.name.empty()) {
      return Status::InvalidArgument("topology: shard with empty name");
    }
    for (const std::string& seen : table.names_) {
      if (seen == spec.name) {
        return Status::InvalidArgument("topology: duplicate shard name '" +
                                       spec.name + "'");
      }
    }
    NDQ_ASSIGN_OR_RETURN(Dn context, Dn::Parse(spec.context));
    table.contexts_.push_back(std::move(context));
    table.names_.push_back(spec.name);
  }
  return table;
}

size_t RoutingTable::OwnerOf(const std::string& hier_key) const {
  size_t owner = kNone;
  for (size_t i = 0; i < contexts_.size(); ++i) {
    const std::string& ck = contexts_[i].HierKey();
    bool covers =
        ck == hier_key || KeyIsAncestor(ck, hier_key) || hier_key.empty();
    if (!covers) continue;
    if (owner == kNone ||
        contexts_[i].depth() > contexts_[owner].depth()) {
      owner = i;
    }
  }
  return owner;
}

std::vector<size_t> RoutingTable::OwnersFor(const Dn& base,
                                            Scope scope) const {
  const std::string& bk = base.HierKey();
  size_t owner = OwnerOf(bk);
  std::vector<size_t> out;
  if (owner != kNone) out.push_back(owner);
  if (scope == Scope::kBase) return out;
  // Subtree scopes may reach into delegated contexts below the base. kOne
  // can cross exactly one delegation boundary (a child held by a
  // delegate); include those too.
  for (size_t i = 0; i < contexts_.size(); ++i) {
    if (i == owner) continue;
    const std::string& ck = contexts_[i].HierKey();
    bool under = bk.empty() || ck == bk || KeyIsAncestor(bk, ck);
    if (!under) continue;
    if (scope == Scope::kOne) {
      // Only relevant if the delegated context is the base or its child.
      if (!(ck == bk || KeyIsParent(bk, ck))) continue;
    }
    out.push_back(i);
  }
  return out;
}

}  // namespace ndq
