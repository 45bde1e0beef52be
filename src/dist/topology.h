// Fleet topology: the declarative shard map and the coordinator's
// routing table.
//
// The namespace is partitioned DNS-style into naming contexts (Sec. 3.3 /
// 8.3): each SHARD owns the subtree rooted at its context dn, minus any
// subtree delegated to a deeper context, and is served by R identical
// REPLICAS (the partition is built once; the other replicas are page
// copies of that segment, each on its own disk).
// TopologyConfig is the declarative description, with a text form ndqsh
// can load and print (`.topology`). RoutingTable is the resolved,
// coordinator-side routing structure: given an atomic query's (base dn,
// scope) it names the shards whose data the query can touch, exactly as a
// DNS resolver chases delegations downward from the owning zone.

#ifndef NDQ_DIST_TOPOLOGY_H_
#define NDQ_DIST_TOPOLOGY_H_

#include <cstddef>
#include <string>
#include <vector>

#include "core/dn.h"
#include "core/scope.h"
#include "core/status.h"
#include "storage/disk.h"

namespace ndq {

/// One shard of the namespace: the naming context it owns plus how many
/// replicas serve it (0 = inherit the topology default).
struct ShardSpec {
  std::string name;
  std::string context;  ///< dn text, e.g. "dc=research, dc=att, dc=com"
  size_t replicas = 0;  ///< 0 = TopologyConfig::replicas
};

/// Declarative fleet description: shards, replication factor, page size.
/// The text form is line-based so it survives dn texts with spaces:
///
///   # comment (or blank)
///   replicas 2
///   page_size 4096
///   shard <name> <context dn...>
///   shard <name> replicas=3 <context dn...>
///
/// Everything after the name (and the optional replicas= override) is the
/// context dn, spaces included. ToString() round-trips through Parse().
struct TopologyConfig {
  /// Bounds on the text form's counts. Every replica is a full in-memory
  /// copy of its shard, and every page of every disk is page_size bytes.
  static constexpr size_t kMaxReplicas = 16;
  static constexpr size_t kMinPageSize = 128;
  static constexpr size_t kMaxPageSize = size_t{1} << 20;

  std::vector<ShardSpec> shards;
  size_t replicas = 1;  ///< default per-shard replication factor
  size_t page_size = kDefaultPageSize;

  /// Parses the text form above. Unknown directives, duplicate shard
  /// names, unparseable dns, replicas outside [1, kMaxReplicas] and
  /// page_size outside [kMinPageSize, kMaxPageSize] are InvalidArgument.
  static Result<TopologyConfig> Parse(const std::string& text);

  std::string ToString() const;

  /// Effective replication factor of shard `i`.
  size_t ReplicasFor(size_t i) const {
    size_t r = i < shards.size() ? shards[i].replicas : 0;
    return r > 0 ? r : (replicas > 0 ? replicas : 1);
  }
};

/// The coordinator's routing table, resolved once from the naming
/// contexts. Shard indices refer to TopologyConfig::shards order (which
/// is also DistributedDirectory::shards() order).
class RoutingTable {
 public:
  /// Validates the config (names unique and non-empty, contexts parse,
  /// page size and replica counts within TopologyConfig's bounds) and
  /// resolves it. The table keeps the parsed context dns.
  static Result<RoutingTable> Resolve(const TopologyConfig& config);

  /// The shard owning `key` (a HierKey): deepest context that is
  /// ancestor-or-self of it. kNone if no context covers the key — the
  /// entry/base lies outside the namespace the fleet serves.
  static constexpr size_t kNone = static_cast<size_t>(-1);
  size_t OwnerOf(const std::string& hier_key) const;

  /// Shards an atomic query at (base, scope) can touch: the owner of the
  /// base dn first, then — for subtree scopes — every delegate whose
  /// context lies under the base, in shard order. kOne crosses exactly
  /// one delegation boundary (a child held by a delegate).
  std::vector<size_t> OwnersFor(const Dn& base, Scope scope) const;

  size_t num_shards() const { return contexts_.size(); }
  const Dn& context(size_t shard) const { return contexts_[shard]; }
  const std::string& name(size_t shard) const { return names_[shard]; }

 private:
  std::vector<Dn> contexts_;  // parsed, in shard order
  std::vector<std::string> names_;
};

}  // namespace ndq

#endif  // NDQ_DIST_TOPOLOGY_H_
