// The pages an EntryStore range scan reads, worked out apart from the
// store's own plan: from its page synopses (a Probe over the scan's
// filters), its run's restarts and the keys of its records.

#ifndef NDQ_TESTS_TESTING_SCAN_PAGES_H_
#define NDQ_TESTS_TESTING_SCAN_PAGES_H_

#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "storage/serde.h"
#include "store/entry_store.h"

namespace ndq {
namespace testing {

/// The run pages ScanRange(start_key, end_key, filters) reads on `store`,
/// ascending. The scan begins at the last start page (one a record starts
/// in) whose first key is <= start_key, page 0 when none is. It reads a
/// start page's records when the page is admitted, each with every page
/// it spans, and stops after the first record whose key is >= end_key. A
/// probe that admits every page admits every start page; otherwise a
/// start page is admitted when the probe admits it and its first key is
/// <= end_key (or it is page 0).
inline std::vector<size_t> ScanPages(const EntryStore& store,
                                     std::string_view start_key,
                                     std::string_view end_key,
                                     ScanFilters filters) {
  const Run& run = store.run();
  const uint64_t page_size = store.disk()->page_size();
  std::vector<std::string> keys;
  EXPECT_TRUE(store
                  .ScanRange("", "",
                             [&](std::string_view record) -> Status {
                               NDQ_ASSIGN_OR_RETURN(std::string_view key,
                                                    PeekEntryKey(record));
                               keys.emplace_back(key);
                               return Status::OK();
                             })
                  .ok());
  // Each start page's first restart, in page order.
  std::vector<RunRestart> starts;
  for (const RunRestart& r : run.restarts) {
    if (starts.empty() ||
        starts.back().offset / page_size != r.offset / page_size) {
      starts.push_back(r);
    }
  }
  size_t first = 0;
  for (size_t i = 0; i < starts.size(); ++i) {
    if (keys[starts[i].record] <= start_key) first = i;
  }
  const PageSynopses::Probe probe(store.synopses(), filters);
  std::vector<size_t> pages;
  auto read = [&](size_t from, size_t to) {
    for (size_t p = from; p <= to; ++p) {
      if (pages.empty() || pages.back() < p) pages.push_back(p);
    }
  };
  for (size_t i = first; i < starts.size(); ++i) {
    const size_t page = starts[i].offset / page_size;
    if (probe.selective() &&
        (!probe.MayMatch(page) ||
         (i > 0 && !end_key.empty() && keys[starts[i].record] > end_key))) {
      continue;
    }
    const bool last = i + 1 == starts.size();
    const uint64_t end_record =
        last ? run.num_records : starts[i + 1].record;
    const uint64_t end_offset =
        last ? run.payload_bytes : starts[i + 1].offset;
    for (uint64_t r = starts[i].record; r < end_record; ++r) {
      // A record ends where the next begins: in this page unless it is
      // the page's last.
      read(page, r + 1 < end_record ? page : (end_offset - 1) / page_size);
      if (!end_key.empty() && keys[r] >= end_key) return pages;
    }
  }
  return pages;
}

}  // namespace testing
}  // namespace ndq

#endif  // NDQ_TESTS_TESTING_SCAN_PAGES_H_
