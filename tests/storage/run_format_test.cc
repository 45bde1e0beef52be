// Page-format tests: prefix-compressed framing round-trips, format
// preservation (forward and backward reads), restart-point seeks, and
// corruption hardening (a damaged frame must surface Status::Corruption,
// never read out of bounds).

#include <cstring>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/head64.h"
#include "storage/run.h"
#include "storage/serde.h"

namespace ndq {
namespace {

// Deterministic pseudo-random bytes (no global RNG state between tests).
class Lcg {
 public:
  explicit Lcg(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    state_ = state_ * 6364136223846793005ull + 1442695040888963407ull;
    return state_ >> 33;
  }

 private:
  uint64_t state_;
};

std::string KeyedRecord(std::string_view key, std::string_view rest) {
  std::string out;
  ByteWriter w(&out);
  w.PutString(key);
  out.append(rest.data(), rest.size());
  return out;
}

std::vector<std::string> AdversarialRecords() {
  // Empty records, shared prefixes, embedded separator/control bytes,
  // high bytes, records longer than a small page.
  std::vector<std::string> recs = {
      "",
      std::string(1, '\0'),
      std::string("a\x1f b\x1e c"),
      std::string("\xff\xfe\xfd"),
      "shared-prefix-alpha",
      "shared-prefix-alpha-longer",
      "shared-prefix-beta",
      std::string(300, 'q'),
      std::string(300, 'q') + "tail",
  };
  Lcg rng(42);
  for (int i = 0; i < 50; ++i) {
    std::string r;
    size_t len = rng.Next() % 64;
    for (size_t j = 0; j < len; ++j) {
      r.push_back(static_cast<char>(rng.Next() % 256));
    }
    recs.push_back(std::move(r));
  }
  return recs;
}

void RoundTrip(PageFormat format, const std::vector<std::string>& recs) {
  SimDisk disk(128);
  RunWriter w(&disk, format);
  for (const std::string& r : recs) ASSERT_TRUE(w.Add(r).ok());
  ndq::Run run = w.Finish().ValueOrDie();
  EXPECT_EQ(run.format, format);
  EXPECT_EQ(run.num_records, recs.size());
  // pages == ceil(payload/page) holds in every format.
  uint64_t expected_pages =
      (run.payload_bytes + disk.page_size() - 1) / disk.page_size();
  EXPECT_EQ(run.pages.size(), expected_pages);

  RunReader r(&disk, run);
  std::string rec;
  for (const std::string& want : recs) {
    ASSERT_TRUE(r.Next(&rec).ValueOrDie());
    EXPECT_EQ(rec, want);
  }
  EXPECT_FALSE(r.Next(&rec).ValueOrDie());
}

TEST(RunFormatTest, PrefixRoundTripsAdversarialRecords) {
  RoundTrip(PageFormat::kPrefix, AdversarialRecords());
}

TEST(RunFormatTest, KeyPrefixRoundTripsKeyedRecords) {
  std::vector<std::string> recs;
  for (int i = 0; i < 200; ++i) {
    std::string key = "ou=dept" + std::to_string(i / 10) +
                      "\x1fuid=user" + std::to_string(i);
    recs.push_back(KeyedRecord(key, "attrs-for-" + std::to_string(i)));
  }
  RoundTrip(PageFormat::kKeyPrefix, recs);
}

TEST(RunFormatTest, KeyPrefixCompressesSharedKeyPrefixes) {
  // Sibling keys of DIFFERENT lengths: the varint length prefix at byte 0
  // defeats generic prefix sharing, but the key-aware format still shares
  // the long common DN prefix.
  std::vector<std::string> recs;
  std::string base(40, 'p');
  for (int i = 0; i < 500; ++i) {
    std::string key = base + (i % 2 ? "uid=" : "uid=longer-") +
                      std::to_string(i);
    recs.push_back(KeyedRecord(key, "payload"));
  }
  // Uncompressed size: every record framed as varint(len) + bytes.
  uint64_t raw = 0;
  for (const auto& r : recs) {
    std::string len;
    ByteWriter(&len).PutVarint(r.size());
    raw += len.size() + r.size();
  }
  SimDisk disk(4096);
  RunWriter w(&disk, PageFormat::kKeyPrefix);
  for (const auto& r : recs) ASSERT_TRUE(w.Add(r).ok());
  uint64_t compressed = w.Finish().ValueOrDie().payload_bytes;
  // The 40-byte shared prefix should vanish from nearly every record.
  EXPECT_LT(compressed, raw * 7 / 10);
}

TEST(RunFormatTest, KeyedWriterRejectsRecordWithoutKeyPrefix) {
  SimDisk disk(128);
  RunWriter w(&disk, PageFormat::kKeyPrefix);
  // varint length 200 with only 2 following bytes: GetString fails.
  std::string bogus;
  bogus.push_back(static_cast<char>(200));
  bogus.push_back(static_cast<char>(1));
  bogus.push_back('x');
  EXPECT_FALSE(w.Add(bogus).ok());
}

TEST(RunFormatTest, WriterDefaultsToPrefix) {
  SimDisk disk(128);
  RunWriter w(&disk);
  ASSERT_TRUE(w.Add("record").ok());
  ndq::Run run = w.Finish().ValueOrDie();
  EXPECT_EQ(run.format, PageFormat::kPrefix);
  EXPECT_EQ(ndq::Run().format, PageFormat::kPrefix);
}

TEST(RunFormatTest, ReverseReadKeepsTheKeyedFormat) {
  SimDisk disk(128);
  RunWriter w(&disk, PageFormat::kKeyPrefix);
  std::vector<std::string> recs;
  for (int i = 0; i < 100; ++i) {
    recs.push_back(KeyedRecord("key-" + std::to_string(1000 + i),
                               "value-" + std::to_string(i)));
    ASSERT_TRUE(w.Add(recs.back()).ok());
  }
  ndq::Run run = w.Finish().ValueOrDie();
  EXPECT_EQ(run.format, PageFormat::kKeyPrefix);
  ReverseRunReader r(&disk, run);
  std::string rec;
  for (auto it = recs.rbegin(); it != recs.rend(); ++it) {
    ASSERT_TRUE(r.Next(&rec).ValueOrDie());
    EXPECT_EQ(rec, *it);
  }
  EXPECT_FALSE(r.Next(&rec).ValueOrDie());
  ASSERT_TRUE(FreeRun(&disk, &run).ok());
  EXPECT_EQ(disk.live_pages(), 0u);
}

TEST(RunFormatTest, SeekToPageStartIsAlwaysARestart) {
  // Every restart the writer records is a SeekTo target that decodes with
  // no history, and with page restarts the first record starting in each
  // page is among them (the positions the entry store's sparse index
  // seeks to).
  SimDisk disk(256);
  RunWriter w(&disk, PageFormat::kKeyPrefix);
  w.set_page_restarts(true);
  std::vector<std::string> recs;
  std::vector<uint64_t> start_pages;  // the page each record starts in
  for (int i = 0; i < 300; ++i) {
    recs.push_back(KeyedRecord("common-prefix-key-" + std::to_string(i),
                               "rest-" + std::to_string(i)));
    // The disk holds only the pages the writer has flushed; the record
    // starts in the one after them.
    start_pages.push_back(disk.live_pages());
    ASSERT_TRUE(w.Add(recs.back()).ok());
  }
  ndq::Run run = w.Finish().ValueOrDie();
  ASSERT_GT(run.pages.size(), 3u);
  std::set<uint64_t> restarted;
  for (const RunRestart& at : run.restarts) {
    restarted.insert(at.record);
    EXPECT_EQ(at.offset / disk.page_size(), start_pages[at.record]);
    RunReader r(&disk, run);
    ASSERT_TRUE(r.SeekTo(at).ok());
    std::string rec;
    ASSERT_TRUE(r.Next(&rec).ValueOrDie());
    EXPECT_EQ(rec, recs[at.record]);
  }
  for (size_t i = 0; i < recs.size(); ++i) {
    if (i == 0 || start_pages[i] != start_pages[i - 1]) {
      EXPECT_EQ(restarted.count(i), 1u)
          << "record " << i << " is the first to start in page "
          << start_pages[i];
    }
  }
}

TEST(RunFormatTest, SeekPastPageEndIsCorruption) {
  SimDisk disk(128);
  RunWriter w(&disk, PageFormat::kPrefix);
  for (int i = 0; i < 50; ++i) ASSERT_TRUE(w.Add("record").ok());
  ndq::Run run = w.Finish().ValueOrDie();
  RunReader r(&disk, run);
  Status s = r.SeekTo(RunRestart{0, run.payload_bytes});
  EXPECT_EQ(s.code(), StatusCode::kCorruption);
}

TEST(RunFormatTest, SeekIntoNonRestartFrameIsCorruptionNotOob) {
  // A compressed frame mid-page back-references the previous record; a
  // seek that lands on one must fail cleanly, not read stale memory.
  SimDisk disk(4096);
  RunWriter w(&disk, PageFormat::kPrefix);
  std::string prefix(64, 's');
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(w.Add(prefix + std::to_string(i)).ok());
  }
  ndq::Run run = w.Finish().ValueOrDie();
  // Walk to the second record's offset by decoding the first frame by
  // hand: restart frame = varint(0) varint(len) bytes.
  RunReader probe(&disk, run);
  std::string first;
  ASSERT_TRUE(probe.Next(&first).ValueOrDie());
  std::string framed;
  ByteWriter fw(&framed);
  fw.PutVarint(0);
  fw.PutVarint(first.size());
  framed += first;
  RunReader r(&disk, run);
  ASSERT_TRUE(r.SeekTo(RunRestart{1, framed.size()}).ok());
  std::string rec;
  Result<bool> got = r.Next(&rec);
  EXPECT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kCorruption);
}

// Builds a single-page run whose page holds exactly `bytes`.
Run HandBuiltRun(SimDisk* disk, PageFormat format, std::string bytes,
                 uint64_t num_records) {
  bytes.resize(disk->page_size(), '\0');
  PageId id = disk->Allocate().ValueOrDie();
  EXPECT_TRUE(
      disk->WritePage(id, reinterpret_cast<const uint8_t*>(bytes.data()))
          .ok());
  Run run;
  run.pages.push_back(id);
  run.num_records = num_records;
  run.payload_bytes = disk->page_size();
  run.format = format;
  return run;
}

TEST(RunFormatTest, PrefixBackReferenceAtRestartIsCorruption) {
  SimDisk disk(128);
  // First frame claims shared=5 with no previous record.
  std::string bytes;
  ByteWriter w(&bytes);
  w.PutVarint(5);
  w.PutVarint(3);
  bytes += "abc";
  ndq::Run run = HandBuiltRun(&disk, PageFormat::kPrefix, bytes, 1);
  RunReader r(&disk, run);
  std::string rec;
  Result<bool> got = r.Next(&rec);
  EXPECT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kCorruption);
}

TEST(RunFormatTest, OversizedLengthPrefixIsCorruptionBeforeAllocation) {
  SimDisk disk(128);
  std::string bytes;
  ByteWriter w(&bytes);
  w.PutVarint(0);
  w.PutVarint(uint64_t{1} << 40);  // suffix "length" of a terabyte
  ndq::Run run = HandBuiltRun(&disk, PageFormat::kPrefix, bytes, 1);
  RunReader r(&disk, run);
  std::string rec;
  Result<bool> got = r.Next(&rec);
  EXPECT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kCorruption);
}

TEST(RunFormatTest, OversizedKeyedLengthsAreCorruption) {
  // Either suffix length of a key-aware frame may be the oversized one.
  for (int which : {0, 1}) {
    SimDisk disk(128);
    std::string bytes;
    ByteWriter w(&bytes);
    w.PutVarint(0);
    w.PutVarint(which == 0 ? uint64_t{1} << 40 : 1);
    w.PutVarint(0);
    w.PutVarint(which == 1 ? uint64_t{1} << 40 : 1);
    ndq::Run run = HandBuiltRun(&disk, PageFormat::kKeyPrefix, bytes, 1);
    RunReader r(&disk, run);
    std::string rec;
    Result<bool> got = r.Next(&rec);
    EXPECT_FALSE(got.ok()) << which;
    EXPECT_EQ(got.status().code(), StatusCode::kCorruption) << which;
  }
}

TEST(RunFormatTest, UnterminatedVarintIsCorruption) {
  SimDisk disk(128);
  // A page full of continuation bytes: the varint never terminates and
  // must fail (too-long), not scan past the run.
  std::string bytes(128, static_cast<char>(0x80));
  ndq::Run run = HandBuiltRun(&disk, PageFormat::kPrefix, bytes, 1);
  RunReader r(&disk, run);
  std::string rec;
  Result<bool> got = r.Next(&rec);
  EXPECT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kCorruption);
}

TEST(RunFormatTest, KeyPrefixBackReferencePastPrevKeyIsCorruption) {
  SimDisk disk(128);
  std::string bytes;
  ByteWriter w(&bytes);
  w.PutVarint(9);  // shared_key with empty prev key
  w.PutVarint(0);
  w.PutVarint(0);
  w.PutVarint(0);
  ndq::Run run = HandBuiltRun(&disk, PageFormat::kKeyPrefix, bytes, 1);
  RunReader r(&disk, run);
  std::string rec;
  Result<bool> got = r.Next(&rec);
  EXPECT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kCorruption);
}

TEST(RunFormatTest, TruncatedRunIsCorruption) {
  SimDisk disk(128);
  // A suffix of exactly one page (passes CheckFrameLength: 128 <= capacity
  // 128), but the 1-byte shared count and 2-byte length leave only 125
  // bytes — the run ends mid-record.
  std::string bytes;
  ByteWriter w(&bytes);
  w.PutVarint(0);
  w.PutVarint(128);
  ndq::Run run = HandBuiltRun(&disk, PageFormat::kPrefix, bytes, 1);
  RunReader r(&disk, run);
  std::string rec;
  Result<bool> got = r.Next(&rec);
  EXPECT_FALSE(got.ok());
  EXPECT_EQ(got.status().code(), StatusCode::kCorruption);
}

// ---------------------------------------------------------------------
// Head-of-key comparator
// ---------------------------------------------------------------------

TEST(Head64Test, OrderMatchesStringCompare) {
  std::vector<std::string> keys = {
      "", "a", "ab", "abc", "abcd", "abcdefg", "abcdefgh", "abcdefghi",
      "abcdefgh\x01", "abcdefgh\xff", std::string("\x00\x01", 2),
      std::string(1, '\xff'), "zzzzzzzzz", "zzzzzzzz",
  };
  Lcg rng(7);
  for (int i = 0; i < 100; ++i) {
    std::string k;
    size_t len = rng.Next() % 12;
    for (size_t j = 0; j < len; ++j) {
      k.push_back(static_cast<char>(rng.Next() % 256));
    }
    keys.push_back(std::move(k));
  }
  for (const std::string& a : keys) {
    for (const std::string& b : keys) {
      int want = a.compare(b);
      want = want < 0 ? -1 : (want > 0 ? 1 : 0);
      EXPECT_EQ(CompareKeysHead64(a, b), want) << "a=" << a << " b=" << b;
      if (ExtractHead64(a) < ExtractHead64(b)) {
        EXPECT_LT(a, b);
      }
      EXPECT_EQ(KeyLessHead64(a, b), a < b);
    }
  }
}

}  // namespace
}  // namespace ndq
