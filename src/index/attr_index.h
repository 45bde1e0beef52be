// Per-attribute secondary indexes and index-assisted atomic evaluation.
//
// Sec. 4.1 assumes atomic queries "can be evaluated efficiently" with the
// help of attribute indexes. AttributeIndexes keeps one index kind: a
// sorted run of bare keyed records, one per (indexed attribute, value,
// entry) triple, each record just its key
//
//   terminated(attr) | kind tag | value | HierKey
//
// where an int value is its AppendOrderedInt64 bytes and a string or DN
// value its escaped, terminated bytes. Every part before the HierKey is
// prefix-free, so key order is (attribute, kind, value, entry) order and
// the entries holding one value, or a range of int values, are one key
// range. Strings and DNs share a kind tag, because every filter that
// reads them compares their bytes alike; a string and a DN value with the
// same bytes on one entry are one record. The run is an EntryStore
// segment, so presence, the six int comparisons and int, string and DN
// equality are range scans through its sparse index. Substring filters
// use an in-memory suffix array per attribute (index/string_index.h).
// Filters on unindexed attributes fall back to the range scan of
// exec/atomic.h. Benchmark E12 quantifies the trade-off.

#ifndef NDQ_INDEX_ATTR_INDEX_H_
#define NDQ_INDEX_ATTR_INDEX_H_

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "filter/atomic_filter.h"
#include "index/string_index.h"
#include "store/entry_store.h"

namespace ndq {

/// Which attributes to index. Each value is indexed under its own kind,
/// so an attribute may hold ints, strings and DNs alike.
struct IndexSpec {
  std::vector<std::string> attributes;
};

class AttributeIndexes {
 public:
  AttributeIndexes() = default;
  /// Frees the index run.
  ~AttributeIndexes();
  AttributeIndexes(AttributeIndexes&& other) noexcept;
  /// Frees this index's run, then takes over `other`'s.
  AttributeIndexes& operator=(AttributeIndexes&& other) noexcept;
  AttributeIndexes(const AttributeIndexes&) = delete;
  AttributeIndexes& operator=(const AttributeIndexes&) = delete;

  /// Scans `store` once and writes the index run of the attributes `spec`
  /// names to `disk`, sorted by an ExternalSorter that spills there too.
  /// The index owns the run. A failed build leaves no page allocated.
  static Result<AttributeIndexes> Build(Disk* disk, const EntryStore& store,
                                        const IndexSpec& spec);

  /// Index-assisted evaluation of "(base ? scope ? filter)", written to
  /// `disk`. Returns nullopt when the filter's attribute is not indexed
  /// (or the filter is objectClass=*, which the scan answers best); the
  /// caller then falls back to a range scan. The result, when present, is
  /// byte-identical to EvalAtomic's. A failed probe frees what it wrote.
  Result<std::optional<Run>> EvalAtomic(Disk* disk, const EntryStore& store,
                                        const Dn& base, Scope scope,
                                        const AtomicFilter& filter) const;

  /// The index run: one record per indexed (attribute, value, entry).
  const EntryStore& run() const { return run_; }

 private:
  // HierKeys of the entries the filter may match, sorted and unique; or
  // nullopt if the filter is not answered from the index.
  Result<std::optional<std::vector<std::string>>> Candidates(
      const AtomicFilter& filter) const;
  // Appends the HierKeys of the index records in [start, end).
  Status CollectRange(std::string_view start, std::string_view end,
                      std::vector<std::string>* keys) const;

  EntryStore run_;
  // One suffix array per indexed attribute, over its string and DN
  // values; an indexed attribute without such values has an empty one,
  // so the map's keys are the indexed attributes. Ids index text_keys_.
  std::map<std::string, SuffixIndex, std::less<>> suffixes_;
  // In key order, the HierKey of each entry that holds a string or DN
  // value of an indexed attribute.
  std::vector<std::string> text_keys_;
};

}  // namespace ndq

#endif  // NDQ_INDEX_ATTR_INDEX_H_
