// Cardinality statistics for cost-based optimization (docs/OPTIMIZER.md).
//
// A StoreStats holds two sketches over a directory instance:
//
//  * Per-attribute value histograms: for every attribute, the number of
//    entries carrying it plus most-common-value counts for int and
//    string/dn values (capped tables with an "other" overflow bucket), so
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
// Layout: every table is a FlatTable, an open-addressed array of
// trivially copyable slots, so a copy of the statistics (which
// DirectoryStore::Apply makes once per update batch) is one memcpy per
// table. Sketch nodes are keyed by a 64-bit hash of their HierKey prefix,
// computed incrementally while the fold walks the key (one component at a
// time, eight bytes per hash step), with one probe per prefix. Attributes
// are keyed by a hash of their name, string MCVs by a hash of the value
// bytes, int MCVs by the value itself. Two strings whose hashes collide
// share one slot, which reports their summed count: still an upper bound
// for each. An existing key is always found, so an absent node or value
// still proves emptiness.
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

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/entry.h"
#include "core/status.h"
#include "filter/atomic_filter.h"
#include "filter/ldap_filter.h"
#include "store/page_synopsis.h"

namespace ndq {

/// Exact entry counts for one hierarchy node (HierKey prefix).
struct SubtreeStats {
  uint64_t self = 0;             ///< entries exactly at this key (0 or 1)
  uint64_t direct_children = 0;  ///< entries whose parent is this key
  uint64_t subtree_size = 0;     ///< entries at or below this key

  bool operator==(const SubtreeStats&) const = default;
};

/// \brief An open-addressed, linear-probing hash table of trivially
/// copyable slots. A Slot has a `uint64_t key` and says through `live()`
/// whether it holds one. With kFixedSlots == 0 the slots live in a vector
/// that doubles past half full; otherwise they are inline, and the caller
/// keeps the table at most half full. The capacity is a power of two.
template <typename Slot, size_t kFixedSlots = 0>
class FlatTable {
 public:
  static_assert(std::is_trivially_copyable_v<Slot>);
  static_assert((kFixedSlots & (kFixedSlots - 1)) == 0);

  size_t size() const { return size_; }

  /// The live slot keyed `key`, or nullptr.
  Slot* Find(uint64_t key) {
    return const_cast<Slot*>(std::as_const(*this).Find(key));
  }
  const Slot* Find(uint64_t key) const {
    if (slots_.empty()) return nullptr;
    const size_t mask = slots_.size() - 1;
    for (size_t i = Home(key, mask);; i = (i + 1) & mask) {
      if (!slots_[i].live()) return nullptr;
      if (slots_[i].key == key) return &slots_[i];
    }
  }

  /// Claims a slot for `key`, which must be absent. The caller makes the
  /// returned slot live before the next call.
  Slot* Insert(uint64_t key) {
    if constexpr (kFixedSlots == 0) {
      if (2 * (size_ + 1) > slots_.size()) Grow();
    }
    const size_t mask = slots_.size() - 1;
    size_t i = Home(key, mask);
    while (slots_[i].live()) i = (i + 1) & mask;
    slots_[i].key = key;
    ++size_;
    return &slots_[i];
  }

  /// Empties `slot` and shifts its probe chain back over the hole, so
  /// every remaining key stays reachable from its home slot.
  void Erase(Slot* slot) {
    const size_t mask = slots_.size() - 1;
    size_t hole = static_cast<size_t>(slot - slots_.data());
    for (size_t i = (hole + 1) & mask; slots_[i].live(); i = (i + 1) & mask) {
      // Slot i may fill the hole unless its home lies cyclically in
      // (hole, i].
      const size_t home = Home(slots_[i].key, mask);
      if (((i - home) & mask) >= ((i - hole) & mask)) {
        slots_[hole] = slots_[i];
        hole = i;
      }
    }
    slots_[hole] = Slot{};
    --size_;
  }

  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Slot& slot : slots_) {
      if (slot.live()) fn(slot);
    }
  }

  /// Same live slots, wherever they sit.
  bool operator==(const FlatTable& other) const {
    if (size_ != other.size_) return false;
    for (const Slot& slot : slots_) {
      if (!slot.live()) continue;
      const Slot* theirs = other.Find(slot.key);
      if (theirs == nullptr || !(*theirs == slot)) return false;
    }
    return true;
  }

 private:
  static size_t Home(uint64_t key, size_t mask) {
    const uint64_t h = key * 0x9E3779B97F4A7C15ull;
    return static_cast<size_t>(h ^ (h >> 32)) & mask;
  }

  void Grow() {
    FlatTable bigger;
    bigger.slots_.resize(slots_.empty() ? 16 : 2 * slots_.size());
    for (const Slot& slot : slots_) {
      if (slot.live()) *bigger.Insert(slot.key) = slot;
    }
    *this = std::move(bigger);
  }

  std::conditional_t<kFixedSlots == 0, std::vector<Slot>,
                     std::array<Slot, kFixedSlots>>
      slots_{};
  size_t size_ = 0;
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
  /// previously added (counts saturate at zero defensively). With
  /// `synopses`, the same walk over the entry's attributes feeds them its
  /// attributes, by the statistics' own attribute index, and its values,
  /// with the hashes the value tables key them by (EntryStore::BulkLoad).
  void AddEntry(const Entry& entry,
                PageSynopses::Builder* synopses = nullptr);
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
  /// the depth cap, or never created because of the node cap). Valid
  /// until the next fold into these statistics.
  const SubtreeStats* Subtree(std::string_view hier_key) const;

  /// True while every hierarchy node at depth <= kMaxSketchDepth is
  /// tracked, making Subtree(k) == nullptr a proof of emptiness for such
  /// keys.
  bool complete() const { return !sketch_overflow_; }

  size_t num_sketch_nodes() const { return sketch_.size(); }
  size_t num_attributes() const { return attrs_.size(); }

  /// One-line debug summary.
  std::string ToString() const;

  /// Equal when every counter, sketch node and tracked value is, wherever
  /// the tables hold them (the build-time oracle of
  /// tests/store/entry_store_test.cc).
  bool operator==(const StoreStats& other) const;

 private:
  // Count of one tracked value, keyed by the int value itself or by the
  // string's hash. Live while the count is nonzero.
  struct McvSlot {
    uint64_t key = 0;
    uint64_t count = 0;
    bool live() const { return count != 0; }
    bool operator==(const McvSlot&) const = default;
  };
  // At most kMaxTrackedValues live slots: never more than half full.
  using McvTable = FlatTable<McvSlot, 2 * kMaxTrackedValues>;

  struct AttrStats {
    uint64_t entries = 0;     // entries with the attribute present
    uint64_t int_values = 0;  // total int values (== sum(int_mcv)+int_other)
    uint64_t str_values = 0;  // total string/dn values
    McvTable int_mcv;
    uint64_t int_other = 0;
    McvTable str_mcv;
    uint64_t str_other = 0;

    bool operator==(const AttrStats&) const = default;
  };
  static_assert(std::is_trivially_copyable_v<AttrStats>,
                "copying the statistics copies flat arrays");

  // Attribute-name hash -> index into attrs_. Keys are nonzero.
  struct AttrSlot {
    uint64_t key = 0;
    size_t index = 0;
    bool live() const { return key != 0; }
  };

  // HierKey-prefix hash -> node counts. Keys are nonzero.
  struct NodeSlot {
    uint64_t key = 0;
    SubtreeStats node;
    bool live() const { return key != 0; }
    bool operator==(const NodeSlot&) const = default;
  };

  void UpdateEntry(const EntryView& entry, bool add,
                   PageSynopses::Builder* synopses);
  void UpdateSketch(std::string_view key, bool add);
  /// The index into attrs_ of the attribute keyed `name_key`
  /// (store_hash::NameKey), added if new.
  size_t AttrIndex(uint64_t name_key);
  const AttrStats* FindAttr(std::string_view name) const;

  std::vector<AttrStats> attrs_;  // in first-folded order
  FlatTable<AttrSlot> attr_index_;
  FlatTable<NodeSlot> sketch_;
  uint64_t num_entries_ = 0;
  bool sketch_overflow_ = false;
};

}  // namespace ndq

#endif  // NDQ_STORE_STATS_H_
