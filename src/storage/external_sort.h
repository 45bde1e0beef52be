// External merge sort over record runs.
//
// Used wherever the paper needs inputs "sorted based on the lexicographic
// ordering of the reverse dn's": bulk-loading the entry store, sorting the
// LP pair list of Algorithm ComputeERAggDV (Fig. 3, the source of the
// N log N term in Theorem 7.1), and sorting atomic-query outputs produced
// by unordered sources. Standard run-generation + k-way merge; memory use
// is bounded by the configured budget, I/O is O((N/B) log_k(N/B)).

#ifndef NDQ_STORAGE_EXTERNAL_SORT_H_
#define NDQ_STORAGE_EXTERNAL_SORT_H_

#include <functional>
#include <string>
#include <vector>

#include "storage/run.h"

namespace ndq {

/// Extracts the comparison key from a serialized record. The returned view
/// must point into the record.
using RecordKeyFn = std::function<std::string_view(std::string_view)>;

struct ExternalSortOptions {
  /// In-memory run-generation budget, in bytes.
  size_t memory_budget = 1 << 20;
  /// Maximum number of runs merged per pass.
  size_t fan_in = 16;
  /// Page format of the spill and merge runs (storage/serde.h): kKeyPrefix
  /// when the sorted records lead with a PutString sort key.
  PageFormat format = PageFormat::kPrefix;
};

/// \brief Sorts records by key using bounded memory.
///
/// Feed records with Add(), then call Finish() to obtain one sorted run.
/// Intermediate runs are freed as they are merged.
class ExternalSorter {
 public:
  ExternalSorter(Disk* disk, RecordKeyFn key_fn,
                 ExternalSortOptions options = {});
  /// Frees any generated runs that were never merged (abandoned sorts and
  /// error paths leak nothing).
  ~ExternalSorter();

  ExternalSorter(const ExternalSorter&) = delete;
  ExternalSorter& operator=(const ExternalSorter&) = delete;

  Status Add(std::string_view record);

  /// Sorts and fully merges; returns the single sorted output run.
  Result<Run> Finish();

  /// Number of merge passes performed by the last Finish() (0 if the data
  /// fit in one generated run).
  size_t merge_passes() const { return merge_passes_; }

 private:
  Status SpillBuffer();

  Disk* disk_;
  RecordKeyFn key_fn_;
  ExternalSortOptions options_;
  std::vector<std::string> buffer_;
  size_t buffered_bytes_ = 0;
  std::vector<Run> runs_;
  size_t merge_passes_ = 0;
  bool finished_ = false;
};

}  // namespace ndq

#endif  // NDQ_STORAGE_EXTERNAL_SORT_H_
