// ReverseRunReader: a run read backwards, restart chunk by restart chunk,
// must be the forward read reversed in both page formats, read each page
// exactly once, and turn missing metadata or damaged pages into a Status.

#include <algorithm>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "storage/run.h"
#include "storage/serde.h"

namespace ndq {
namespace {

std::string KeyedRecord(std::string_view key, std::string_view rest) {
  std::string out;
  ByteWriter w(&out);
  w.PutString(key);
  out.append(rest.data(), rest.size());
  return out;
}

// Records of random sizes, a few of them longer than `page_size`, that
// share prefixes with their predecessors often enough to compress.
std::vector<std::string> RandomRecords(std::mt19937* rng, size_t n,
                                       PageFormat format, size_t page_size) {
  std::vector<std::string> out;
  std::string prev_key;
  for (size_t i = 0; i < n; ++i) {
    size_t len = (*rng)() % 10 == 0 ? page_size + (*rng)() % (2 * page_size)
                                    : (*rng)() % 48;
    std::string body;
    for (size_t j = 0; j < len; ++j) {
      body.push_back(static_cast<char>('a' + (*rng)() % 4));
    }
    if (format == PageFormat::kPrefix) {
      out.push_back(std::move(body));
      continue;
    }
    std::string key = prev_key.substr(0, (*rng)() % (prev_key.size() + 1)) +
                      std::to_string((*rng)() % 1000);
    out.push_back(KeyedRecord(key, body));
    prev_key = std::move(key);
  }
  return out;
}

ndq::Run WriteRun(Disk* disk, const std::vector<std::string>& records,
                  PageFormat format, bool page_restarts = false) {
  RunWriter w(disk, format);
  w.set_page_restarts(page_restarts);
  for (const std::string& r : records) EXPECT_TRUE(w.Add(r).ok());
  return w.Finish().ValueOrDie();
}

Result<std::vector<std::string>> ReadBackwards(Disk* disk,
                                               const ndq::Run& run) {
  ReverseRunReader r(disk, run);
  std::vector<std::string> out;
  std::string rec;
  while (true) {
    NDQ_ASSIGN_OR_RETURN(bool more, r.Next(&rec));
    if (!more) return out;
    out.push_back(rec);
  }
}

Result<std::vector<std::string>> ReadForwards(Disk* disk,
                                              const ndq::Run& run) {
  RunReader r(disk, run);
  std::vector<std::string> out;
  std::string rec;
  while (true) {
    NDQ_ASSIGN_OR_RETURN(bool more, r.Next(&rec));
    if (!more) return out;
    out.push_back(rec);
  }
}

std::vector<std::string> Reversed(std::vector<std::string> v) {
  std::reverse(v.begin(), v.end());
  return v;
}

TEST(ReverseRunReaderTest, BackwardsIsForwardReversedInBothFormats) {
  std::mt19937 rng(11);
  for (PageFormat format : {PageFormat::kPrefix, PageFormat::kKeyPrefix}) {
    for (size_t page_size : {64u, 128u, 512u, 4096u}) {
      for (size_t n : {2u, 63u, 64u, 65u, 129u, 700u, 3000u}) {
        for (bool page_restarts : {false, true}) {
          SimDisk disk(page_size);
          std::vector<std::string> records =
              RandomRecords(&rng, n, format, page_size);
          ndq::Run run = WriteRun(&disk, records, format, page_restarts);
          ASSERT_EQ(ReadForwards(&disk, run).ValueOrDie(), records);
          Result<std::vector<std::string>> back = ReadBackwards(&disk, run);
          ASSERT_TRUE(back.ok()) << back.status().ToString();
          EXPECT_EQ(*back, Reversed(records))
              << "format " << static_cast<int>(format) << " page "
              << page_size << " n " << n;
        }
      }
    }
  }
}

TEST(ReverseRunReaderTest, EmptyAndSingleRecordRuns) {
  SimDisk disk(128);
  ndq::Run empty = WriteRun(&disk, {}, PageFormat::kPrefix);
  EXPECT_TRUE(ReadBackwards(&disk, empty).ValueOrDie().empty());
  for (const std::string& only : {std::string(), std::string("only"),
                                  std::string(1000, 'x')}) {
    ndq::Run one = WriteRun(&disk, {only}, PageFormat::kPrefix);
    EXPECT_EQ(ReadBackwards(&disk, one).ValueOrDie(),
              std::vector<std::string>{only});
    ASSERT_TRUE(FreeRun(&disk, &one).ok());
  }
  ndq::Run keyed = WriteRun(&disk, {KeyedRecord("k", "v")},
                            PageFormat::kKeyPrefix);
  EXPECT_EQ(ReadBackwards(&disk, keyed).ValueOrDie(),
            std::vector<std::string>{KeyedRecord("k", "v")});
}

TEST(ReverseRunReaderTest, ReadsEachPageExactlyOnce) {
  std::mt19937 rng(5);
  for (PageFormat format : {PageFormat::kPrefix, PageFormat::kKeyPrefix}) {
    for (size_t page_size : {64u, 256u, 4096u}) {
      SimDisk disk(page_size);
      std::vector<std::string> records =
          RandomRecords(&rng, 2000, format, page_size);
      ndq::Run run = WriteRun(&disk, records, format);
      disk.ResetStats();
      ASSERT_TRUE(ReadBackwards(&disk, run).ok());
      EXPECT_EQ(disk.stats().page_reads, run.pages.size());
      EXPECT_EQ(disk.stats().page_writes, 0u);
    }
  }
}

TEST(ReverseRunReaderTest, PrefetchedReadsCountTheSame) {
  std::mt19937 rng(9);
  SimDisk disk(256);
  std::vector<std::string> records =
      RandomRecords(&rng, 1500, PageFormat::kKeyPrefix, 256);
  ndq::Run run = WriteRun(&disk, records, PageFormat::kKeyPrefix);
  disk.SetIoDepth(4);
  disk.ResetStats();
  EXPECT_EQ(ReadBackwards(&disk, run).ValueOrDie(), Reversed(records));
  EXPECT_EQ(disk.stats().page_reads, run.pages.size());
  disk.SetIoDepth(0);
}

TEST(ReverseRunReaderTest, WriterRecordsEveryRestart) {
  SimDisk disk(128);
  std::vector<std::string> records;
  for (int i = 0; i < 200; ++i) records.push_back("rec" + std::to_string(i));
  ndq::Run run = WriteRun(&disk, records, PageFormat::kPrefix);
  ASSERT_EQ(run.restarts.size(), 4u);  // records 0, 64, 128, 192
  for (size_t c = 0; c < run.restarts.size(); ++c) {
    const RunRestart& r = run.restarts[c];
    EXPECT_EQ(r.record, c * kRestartInterval);
    // A restart decodes without history: seek there and read it.
    RunReader reader(&disk, run);
    ASSERT_TRUE(reader.SeekTo(r).ok());
    std::string rec;
    ASSERT_TRUE(reader.Next(&rec).ValueOrDie());
    EXPECT_EQ(rec, records[r.record]);
  }
  // Seekable runs also restart at the first record of each page.
  ndq::Run seekable = WriteRun(&disk, records, PageFormat::kPrefix,
                               /*page_restarts=*/true);
  EXPECT_GT(seekable.restarts.size(), seekable.pages.size() - 1);
}

TEST(ReverseRunReaderTest, RunWithoutRestartMetadataIsAStatus) {
  SimDisk disk(128);
  ndq::Run run = WriteRun(&disk, {"a", "b", "c"}, PageFormat::kPrefix);
  ndq::Run bare = run;
  bare.restarts.clear();
  Result<std::vector<std::string>> got = ReadBackwards(&disk, bare);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kInvalidArgument);

  // Metadata that does not fit the run's pages is corruption.
  ndq::Run shifted = run;
  shifted.restarts[0].offset = 1;
  got = ReadBackwards(&disk, shifted);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kCorruption);
  ndq::Run short_payload = run;
  short_payload.payload_bytes = 1;
  EXPECT_FALSE(ReadBackwards(&disk, short_payload).ok());

  // A chunk must decode exactly its own bytes into its own records: a
  // last chunk that claims a record fewer than its bytes hold is
  // corruption too.
  std::vector<std::string> many;
  for (int i = 0; i < 130; ++i) many.push_back("r" + std::to_string(i));
  ndq::Run chunks = WriteRun(&disk, many, PageFormat::kPrefix);
  ASSERT_EQ(chunks.restarts.size(), 3u);
  ndq::Run short_chunk = chunks;
  --short_chunk.num_records;
  got = ReadBackwards(&disk, short_chunk);
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kCorruption);
}

TEST(ReverseRunReaderTest, ByteFlipsReturnAStatusAndNeverCrash) {
  std::mt19937 rng(23);
  for (PageFormat format : {PageFormat::kPrefix, PageFormat::kKeyPrefix}) {
    SimDisk disk(128);
    std::vector<std::string> records =
        RandomRecords(&rng, 400, format, 128);
    ndq::Run run = WriteRun(&disk, records, format);
    std::vector<uint8_t> page(128);
    int failures = 0;
    for (int trial = 0; trial < 600; ++trial) {
      PageId id = run.pages[rng() % run.pages.size()];
      size_t at = rng() % 128;
      ASSERT_TRUE(disk.ReadPage(id, page.data()).ok());
      const uint8_t saved = page[at];
      page[at] ^= static_cast<uint8_t>(1 + rng() % 255);
      ASSERT_TRUE(disk.WritePage(id, page.data()).ok());
      Result<std::vector<std::string>> back = ReadBackwards(&disk, run);
      if (back.ok()) {
        // A chunk decoded exactly its own bytes, so a forward read of the
        // same pages agrees with it.
        Result<std::vector<std::string>> fwd = ReadForwards(&disk, run);
        ASSERT_TRUE(fwd.ok());
        EXPECT_EQ(*back, Reversed(*fwd));
      } else {
        EXPECT_EQ(back.status().code(), StatusCode::kCorruption);
        ++failures;
      }
      page[at] = saved;
      ASSERT_TRUE(disk.WritePage(id, page.data()).ok());
    }
    EXPECT_GT(failures, 0);
    EXPECT_EQ(ReadBackwards(&disk, run).ValueOrDie(), Reversed(records));
  }
}

}  // namespace
}  // namespace ndq
