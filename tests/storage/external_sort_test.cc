#include "storage/external_sort.h"

#include <random>

#include <gtest/gtest.h>

namespace ndq {
namespace {

// Records here are "key|payload"; the key is everything before '|'.
std::string_view KeyOf(std::string_view rec) {
  return rec.substr(0, rec.find('|'));
}

std::vector<std::string> ReadAll(SimDisk* disk, const Run& run) {
  RunReader r(disk, run);
  std::vector<std::string> out;
  std::string rec;
  while (r.Next(&rec).ValueOrDie()) out.push_back(rec);
  return out;
}

TEST(ExternalSortTest, SortsInMemorySizedInput) {
  SimDisk disk(256);
  ExternalSorter sorter(&disk, KeyOf);
  ASSERT_TRUE(sorter.Add("b|1").ok());
  ASSERT_TRUE(sorter.Add("a|2").ok());
  ASSERT_TRUE(sorter.Add("c|3").ok());
  ndq::Run out = sorter.Finish().ValueOrDie();
  std::vector<std::string> recs = ReadAll(&disk, out);
  ASSERT_EQ(recs.size(), 3u);
  EXPECT_EQ(recs[0], "a|2");
  EXPECT_EQ(recs[1], "b|1");
  EXPECT_EQ(recs[2], "c|3");
  EXPECT_EQ(sorter.merge_passes(), 0u);  // single generated run
}

TEST(ExternalSortTest, EmptyInput) {
  SimDisk disk(256);
  ExternalSorter sorter(&disk, KeyOf);
  ndq::Run out = sorter.Finish().ValueOrDie();
  EXPECT_TRUE(out.empty());
}

class ExternalSortPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ExternalSortPropertyTest, RandomRecordsEndUpSorted) {
  std::mt19937 rng(GetParam());
  SimDisk disk(512);
  ExternalSortOptions opts;
  opts.memory_budget = 2000;  // forces many runs
  opts.fan_in = 3;            // forces multiple merge passes
  ExternalSorter sorter(&disk, KeyOf, opts);
  const int n = 2000;
  std::vector<std::string> keys;
  for (int i = 0; i < n; ++i) {
    std::string key = "k" + std::to_string(rng() % 100000);
    keys.push_back(key);
    ASSERT_TRUE(sorter.Add(key + "|" + std::to_string(i)).ok());
  }
  ndq::Run out = sorter.Finish().ValueOrDie();
  EXPECT_GT(sorter.merge_passes(), 1u);
  std::vector<std::string> recs = ReadAll(&disk, out);
  ASSERT_EQ(recs.size(), static_cast<size_t>(n));
  for (size_t i = 1; i < recs.size(); ++i) {
    EXPECT_LE(KeyOf(recs[i - 1]), KeyOf(recs[i]));
  }
  // Multiset of keys preserved.
  std::vector<std::string> out_keys;
  for (const std::string& r : recs) out_keys.emplace_back(KeyOf(r));
  std::sort(keys.begin(), keys.end());
  std::sort(out_keys.begin(), out_keys.end());
  EXPECT_EQ(keys, out_keys);
  // Intermediate runs were freed: only the output remains live.
  EXPECT_EQ(disk.live_pages(), out.pages.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExternalSortPropertyTest,
                         ::testing::Values(7, 42, 1999));

TEST(ExternalSortTest, IoIsNlogN) {
  // Sort I/O grows as (N/B) log(N/B): each merge pass re-reads and
  // re-writes the whole payload once.
  SimDisk disk(4096);
  ExternalSortOptions opts;
  opts.memory_budget = 8192;
  opts.fan_in = 2;
  ExternalSorter sorter(&disk, KeyOf, opts);
  std::mt19937 rng(5);
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(
        sorter.Add("key" + std::to_string(rng()) + "|payloadpayload").ok());
  }
  uint64_t before = disk.stats().TotalTransfers();
  ndq::Run out = sorter.Finish().ValueOrDie();
  uint64_t io = disk.stats().TotalTransfers() - before;
  uint64_t data_pages = out.pages.size();
  size_t passes = sorter.merge_passes();
  // Total transfers ~ 2 * data_pages * (passes + 1), within slack.
  EXPECT_GE(io, 2 * data_pages * passes);
  EXPECT_LE(io, 2 * data_pages * (passes + 2) + 16);
}

}  // namespace
}  // namespace ndq
