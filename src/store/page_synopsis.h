// Per-page synopses of a bulk-loaded segment: pages that cannot match
// are not read.
//
// A leaf is one range scan of its scope (Sec. 4.1), so a selective leaf
// reads every page of its range to return a handful of entries. A
// synopsis per page, kept in memory beside the sparse index, lets the
// scan seek past pages no record of which can match: the design of zone
// maps / Small Materialized Aggregates (Moerkotte, VLDB 1998) and of
// LevelDB's per-block filters.
//
// For each page a record starts in, the synopsis describes the records
// starting there (a record that spans pages belongs to the page it
// starts in):
//
//  * the attributes present;
//  * per attribute, the min and max of its int values, and of its string
//    and DN values as 8-byte big-endian prefixes (zero-padded);
//  * a Bloom filter over its (attribute, value) pairs, about
//    kBloomBitsPerKey bits per pair, each pair setting kBloomProbes bits of
//    one 64-bit word. String and DN values with the same bytes are one
//    key; an int is keyed apart from its decimal spelling.
//
// A Probe resolves a scan's filters against the synopses once; its
// MayMatch(page) is false only when no record starting in the page can
// satisfy any of them, by AtomicFilter::MatchesValue's own rules
// (docs/STORAGE_IO.md lists them). EntryStore::BulkLoad folds the
// synopses in the walk that folds its StoreStats, reusing that fold's
// attribute ids and value hashes; no other segment carries them.

#ifndef NDQ_STORE_PAGE_SYNOPSIS_H_
#define NDQ_STORE_PAGE_SYNOPSIS_H_

#include <cstdint>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "filter/atomic_filter.h"
#include "filter/ldap_filter.h"

namespace ndq {

/// One leaf filter a range scan serves: an atomic or an LDAP filter
/// (exactly one is set).
struct ScanFilter {
  const AtomicFilter* atomic = nullptr;
  const LdapFilter* ldap = nullptr;
};

/// The filters of the leaves one range scan serves: a record no filter
/// here may match is a record no leaf wants. Empty means every record is
/// wanted.
using ScanFilters = std::span<const ScanFilter>;

/// \brief The synopses of one segment's pages (immutable once built).
class PageSynopses {
 public:
  static constexpr int kBloomBitsPerKey = 10;
  static constexpr int kBloomProbes = 6;

  class Builder;
  class Probe;

  /// Pages described (the segment's page count).
  size_t num_pages() const {
    return bound_begin_.empty() ? 0 : bound_begin_.size() - 1;
  }

  /// Heap bytes the synopses hold.
  size_t bytes() const;

 private:
  // The bounds of one attribute's values of one kind in one page, in an
  // order-preserving unsigned encoding: ints with the sign bit flipped,
  // strings as their 8-byte big-endian prefix.
  struct Bound {
    uint64_t lo = 0;
    uint64_t hi = 0;
  };

  /// The page's bound of `key` (attribute id * 2 + kind), or nullptr.
  const Bound* FindBound(size_t page, uint32_t key) const;
  /// Whether the page's Bloom filter may hold `pair`, whose bits are
  /// `mask` (BloomMask).
  bool BloomMayHold(size_t page, uint64_t pair, uint64_t mask) const;
  /// The attribute id of `name`, or false when no record carries it.
  bool FindAttr(std::string_view name, uint32_t* id) const;

  // Attribute name key -> id, ascending by key.
  std::vector<std::pair<uint64_t, uint32_t>> attr_ids_;
  // Page p's bounds are keys_/bounds_[bound_begin_[p], bound_begin_[p+1]),
  // ascending by key; its Bloom words are bloom_[bloom_begin_[p],
  // bloom_begin_[p+1]).
  std::vector<uint32_t> bound_begin_;
  std::vector<uint32_t> keys_;
  std::vector<Bound> bounds_;
  std::vector<uint32_t> bloom_begin_;
  std::vector<uint64_t> bloom_;
};

/// \brief Folds records into synopses, page by page.
///
/// For each record: StartRecord(page), then per attribute Attribute(),
/// then its values. StoreStats::AddEntry drives the attribute and value
/// calls from its own fold.
class PageSynopses::Builder {
 public:
  /// The next record starts in `page`; pages never decrease.
  void StartRecord(uint64_t page);
  /// The record's next attribute: its dense id (ids are handed out in
  /// first-seen order from 0) and store_hash::NameKey of its name.
  void Attribute(uint32_t id, uint64_t name_key);
  /// One value of the current attribute; `hash` is store_hash::Hash of a
  /// string's bytes.
  void IntValue(int64_t v);
  void StringValue(std::string_view bytes, uint64_t hash);

  /// The synopses of a segment of `num_pages` pages.
  PageSynopses Finish(size_t num_pages);

 private:
  struct Open {
    uint32_t key = 0;
    PageSynopses::Bound bound;
  };

  void ClosePage();
  void Observe(uint32_t key, uint64_t v, uint64_t pair);

  PageSynopses out_;
  std::vector<uint64_t> names_;  // attribute id -> name key
  bool open_ = false;            // a page holds records not yet closed
  uint64_t page_ = 0;            // that page
  uint32_t attr_ = 0;            // the current attribute's id
  std::vector<int32_t> slot_;    // bound key -> index into bounds_open_
  std::vector<Open> bounds_open_;
  std::vector<uint64_t> pairs_;  // the open page's pair hashes
  uint64_t recent_[256] = {};    // drops repeats of recent pairs
};

/// \brief Filters resolved against one segment's synopses.
///
/// Each atomic filter's attribute id, bounds and Bloom keys are looked up
/// and hashed once, so testing a page costs a few comparisons. A probe
/// over no synopses or no filters, or with a filter that admits every
/// page (objectClass=*, a `!`), admits every page.
class PageSynopses::Probe {
 public:
  Probe() = default;
  Probe(const PageSynopses* synopses, ScanFilters filters);

  /// False only when no record starting in `page` can match any of the
  /// filters.
  bool MayMatch(size_t page) const;
  /// Whether the probe may reject a page: synopses given, and filters
  /// none of which admits every page.
  bool selective() const { return synopses_ != nullptr; }

 private:
  // One side of an atomic test: the page admits when its bound of `key`
  // overlaps [lo, hi] (or, for `ne`, is not exactly [lo, lo]) and, when
  // `bloom`, its Bloom filter may hold `pair` (whose bits are `mask`).
  struct Side {
    bool on = false;
    bool ne = false;
    bool bloom = false;
    uint32_t key = 0;
    uint64_t lo = 0, hi = 0, pair = 0, mask = 0;
  };
  struct Node {
    enum class Op { kTrue, kFalse, kTest, kAnd, kOr } op = Op::kTrue;
    uint32_t children = 0;  // kAnd / kOr
    uint32_t size = 1;      // nodes in this subtree, itself included
    Side sides[2];          // kTest: int side, string side
  };

  void Add(const LdapFilter& filter);
  void Add(const AtomicFilter& filter);
  bool Eval(size_t at, size_t page) const;
  bool Test(const Side& side, size_t page) const;

  const PageSynopses* synopses_ = nullptr;
  std::vector<size_t> roots_;  // one per filter
  std::vector<Node> nodes_;    // every filter's tree, prefix order
};

}  // namespace ndq

#endif  // NDQ_STORE_PAGE_SYNOPSIS_H_
