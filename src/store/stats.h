// Cardinality statistics for cost-based optimization (docs/OPTIMIZER.md).
//
// A StoreStats holds two sketches over a directory instance:
//
//  * Per-attribute value histograms: for every attribute, the number of
//    entries carrying it plus most-common-value counts for int and
//    string/dn values (capped maps with an "other" overflow bucket), so
//    EstimateFilterMatches can bound how many entries an atomic filter
//    selects. Every estimate is an UPPER BOUND on the true count — an
//    estimate of 0 proves the filter matches nothing, which the optimizer
//    exploits to short-circuit set difference and prune union operands.
//
//  * A subtree-size sketch: exact {self, direct-children, subtree-size}
//    entry counts per hierarchy node, depth-capped and node-capped. All
//    *tracked* nodes stay exact under adds and removes (an entry deeper
//    than the cap still updates its tracked ancestors); untracked nodes
//    report "unknown" (nullptr). While the sketch is complete() — the
//    node cap was never hit — an absent node at depth <= kMaxSketchDepth
//    proves its subtree holds no entries.
//
// Only stores a planner reads carry one. EntryStore::BulkLoad folds each
// entry as it serializes it (AddEntry). DirectoryStore keeps one for the
// whole store: incrementally in Put/Remove, and refolded from the live
// records its compaction and recovery stream (AddRecord).
// Fleet shards and flushed segments carry none. The cost model
// (exec/cost.h) and planner (query/optimize.h) consume them through
// EntrySource::stats().

#ifndef NDQ_STORE_STATS_H_
#define NDQ_STORE_STATS_H_

#include <cstdint>
#include <map>
#include <string>

#include "core/entry.h"
#include "core/status.h"
#include "filter/atomic_filter.h"
#include "filter/ldap_filter.h"

namespace ndq {

/// Exact entry counts for one hierarchy node (HierKey prefix).
struct SubtreeStats {
  uint64_t self = 0;             ///< entries exactly at this key (0 or 1)
  uint64_t direct_children = 0;  ///< entries whose parent is this key
  uint64_t subtree_size = 0;     ///< entries at or below this key

  bool operator==(const SubtreeStats&) const = default;
};

/// \brief Cardinality statistics: attribute histograms + subtree sketch.
class StoreStats {
 public:
  /// Most-common-value cap per attribute per value domain. Values beyond
  /// the cap accumulate in an "other" bucket that every estimate includes,
  /// keeping estimates upper bounds regardless of insertion order.
  static constexpr size_t kMaxTrackedValues = 64;
  /// Hierarchy nodes deeper than this are not tracked (their ancestors
  /// within the cap still are, exactly).
  static constexpr size_t kMaxSketchDepth = 8;
  /// Total tracked-node cap; reaching it stops creating nodes (existing
  /// nodes stay exact) and clears complete().
  static constexpr size_t kMaxSketchNodes = size_t{1} << 17;

  /// Folds one entry in / out. Remove must only be called with an entry
  /// previously added (counts saturate at zero defensively).
  void AddEntry(const Entry& entry);
  void RemoveEntry(const Entry& entry);

  /// Folds a serialized entry record in, read through an EntryView.
  Status AddRecord(std::string_view record);

  /// Entries folded in.
  uint64_t num_entries() const { return num_entries_; }

  /// Upper bound on the number of entries satisfying `filter`. 0 proves
  /// no entry matches.
  uint64_t EstimateFilterMatches(const AtomicFilter& filter) const;

  /// Upper bound for a boolean LDAP filter: min over `&` children, sum
  /// over `|` children (clamped to num_entries()), no information for
  /// `!` (returns num_entries()). 0 still proves no entry matches.
  uint64_t EstimateLdapMatches(const LdapFilter& filter) const;

  /// The tracked node for `hier_key`, or nullptr if unknown (deeper than
  /// the depth cap, or evicted by the node cap).
  const SubtreeStats* Subtree(std::string_view hier_key) const;

  /// True while every hierarchy node at depth <= kMaxSketchDepth is
  /// tracked, making Subtree(k) == nullptr a proof of emptiness for such
  /// keys.
  bool complete() const { return !sketch_overflow_; }

  size_t num_sketch_nodes() const { return sketch_.size(); }
  size_t num_attributes() const { return attrs_.size(); }

  /// One-line debug summary.
  std::string ToString() const;

  /// Member-wise equality: two stats are equal when every histogram,
  /// sketch node and counter is (the build-time oracle of
  /// tests/store/entry_store_test.cc).
  bool operator==(const StoreStats&) const = default;

 private:
  struct AttrStats {
    uint64_t entries = 0;     // entries with the attribute present
    uint64_t int_values = 0;  // total int values (== sum(int_mcv)+int_other)
    uint64_t str_values = 0;  // total string/dn values
    std::map<int64_t, uint64_t> int_mcv;
    uint64_t int_other = 0;
    std::map<std::string, uint64_t, std::less<>> str_mcv;
    uint64_t str_other = 0;

    bool operator==(const AttrStats&) const = default;
  };

  void UpdateEntry(const EntryView& entry, bool add);
  void UpdateSketch(std::string_view key, bool add);
  const AttrStats* FindAttr(const std::string& attr) const;

  std::map<std::string, AttrStats, std::less<>> attrs_;
  std::map<std::string, SubtreeStats, std::less<>> sketch_;
  uint64_t num_entries_ = 0;
  bool sketch_overflow_ = false;
};

}  // namespace ndq

#endif  // NDQ_STORE_STATS_H_
