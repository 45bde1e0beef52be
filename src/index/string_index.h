// The substring index for atomic filters (Sec. 4.1): a generalized suffix
// array over an attribute's string and DN values.
//
// The paper cites "trie and suffix tree indices [23] for string filters";
// we use a suffix *array* — same query complexity for this workload,
// simpler and cache-friendly. Equality and prefix lookups need no
// structure of their own: they are key ranges of the attribute index run
// (index/attr_index.h). The array maps values to the entry ordinals
// holding them.

#ifndef NDQ_INDEX_STRING_INDEX_H_
#define NDQ_INDEX_STRING_INDEX_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/status.h"

namespace ndq {

/// \brief A generalized suffix array over all indexed values; supports
/// substring search — the workhorse behind "*jag*"-style filters.
class SuffixIndex {
 public:
  /// Adds a value owned by entry `id`. Call Build() after all Adds.
  void Add(std::string_view value, uint64_t id);

  /// Sorts the suffix array; required before Search.
  void Build();

  /// Entry ids having a value that contains `needle` (sorted, dedup).
  /// Requires Build().
  Result<std::vector<uint64_t>> Search(std::string_view needle) const;

  size_t num_suffixes() const { return suffixes_.size(); }

 private:
  struct Doc {
    std::string text;
    uint64_t id;
  };
  struct Suffix {
    uint32_t doc;
    uint32_t offset;
  };

  std::string_view SuffixText(const Suffix& s) const {
    return std::string_view(docs_[s.doc].text).substr(s.offset);
  }

  std::vector<Doc> docs_;
  std::vector<Suffix> suffixes_;
  bool built_ = false;
};

}  // namespace ndq

#endif  // NDQ_INDEX_STRING_INDEX_H_
