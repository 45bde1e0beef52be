#include "store/entry_store.h"

#include <random>
#include <set>

#include <gtest/gtest.h>

#include "gen/random_forest.h"
#include "storage/fault_injector.h"
#include "storage/serde.h"
#include "store/stats.h"
#include "testing/paper_fixture.h"

namespace ndq {
namespace {

using testing::D;
using testing::PaperInstance;

std::vector<std::string> ScanKeys(const EntryStore& store,
                                  std::string_view start,
                                  std::string_view end) {
  std::vector<std::string> keys;
  Status s = store.ScanRange(start, end, [&](std::string_view rec) -> Status {
    keys.emplace_back(PeekEntryKey(rec).ValueOrDie());
    return Status::OK();
  });
  EXPECT_TRUE(s.ok()) << s.ToString();
  return keys;
}

// Builds a segment from serialized records through FromStream.
Result<EntryStore> FromRecords(Disk* disk,
                               const std::vector<std::string>& records) {
  size_t i = 0;
  return EntryStore::FromStream(disk, [&](std::string* record) -> Result<bool> {
    if (i >= records.size()) return false;
    *record = records[i++];
    return true;
  });
}

std::vector<std::string> ScanRecords(const EntryStore& store) {
  std::vector<std::string> records;
  Status s = store.ScanRange("", "", [&](std::string_view rec) -> Status {
    records.emplace_back(rec);
    return Status::OK();
  });
  EXPECT_TRUE(s.ok()) << s.ToString();
  return records;
}

// Statistics folded record by record (AddRecord): the fold compaction and
// recovery run over the records they stream.
StoreStats RecordFolded(const std::vector<std::string>& records) {
  StoreStats stats;
  for (const std::string& record : records) {
    EXPECT_TRUE(stats.AddRecord(record).ok());
  }
  return stats;
}

TEST(EntryStoreTest, BulkLoadAndFullScan) {
  SimDisk disk(512);
  DirectoryInstance inst = PaperInstance();
  EntryStore store = EntryStore::BulkLoad(&disk, inst).TakeValue();
  EXPECT_EQ(store.num_entries(), inst.size());
  std::vector<std::string> keys = ScanKeys(store, "", "");
  ASSERT_EQ(keys.size(), inst.size());
  size_t i = 0;
  for (const auto& [key, entry] : inst) {
    (void)entry;
    EXPECT_EQ(keys[i++], key);
  }
}

TEST(EntryStoreTest, SubtreeRangeScan) {
  SimDisk disk(512);
  DirectoryInstance inst = PaperInstance();
  EntryStore store = EntryStore::BulkLoad(&disk, inst).TakeValue();
  Dn base = D("ou=networkPolicies, dc=research, dc=att, dc=com");
  std::vector<std::string> keys =
      ScanKeys(store, base.HierKey(), KeySubtreeEnd(base.HierKey()));
  EXPECT_EQ(keys.size(), 13u);
  EXPECT_EQ(keys[0], base.HierKey());
}

TEST(EntryStoreTest, RangeScanReadsOnlyNeededPages) {
  SimDisk disk(256);  // small pages -> many pages
  DirectoryInstance inst = PaperInstance();
  EntryStore store = EntryStore::BulkLoad(&disk, inst).TakeValue();
  ASSERT_GT(store.num_pages(), 4u);
  disk.ResetStats();
  Dn base = D("uid=jag, ou=userProfiles, dc=research, dc=att, dc=com");
  ScanKeys(store, base.HierKey(), KeySubtreeEnd(base.HierKey()));
  // Far fewer reads than the whole segment.
  EXPECT_LT(disk.stats().page_reads, store.num_pages());
}

TEST(EntryStoreTest, GetPointLookup) {
  SimDisk disk(512);
  DirectoryInstance inst = PaperInstance();
  EntryStore store = EntryStore::BulkLoad(&disk, inst).TakeValue();
  Dn dn = D("QHPName=weekend, uid=jag, ou=userProfiles, dc=research, "
            "dc=att, dc=com");
  std::optional<Entry> e = store.Get(dn.HierKey()).TakeValue();
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(*e, *inst.Find(dn));
  EXPECT_FALSE(store.Get(D("dc=void").HierKey()).TakeValue().has_value());
}

TEST(EntryStoreTest, RecordsSpanningPagesAreFound) {
  // Build entries with large attribute payloads so records span pages.
  SimDisk disk(128);
  DirectoryInstance inst(Schema(), /*validate=*/false);
  for (int i = 0; i < 20; ++i) {
    Entry e(D("uid=u" + std::to_string(i) + ", dc=com"));
    e.AddString("blob", std::string(300, 'a' + (i % 26)));
    ASSERT_TRUE(inst.Add(std::move(e)).ok());
  }
  EntryStore store = EntryStore::BulkLoad(&disk, inst).TakeValue();
  for (const auto& [key, entry] : inst) {
    std::optional<Entry> got = store.Get(key).TakeValue();
    ASSERT_TRUE(got.has_value()) << entry.dn().ToString();
    EXPECT_EQ(*got, entry);
  }
}

TEST(EntryStoreTest, FromStreamRejectsDisorder) {
  SimDisk disk(256);
  Entry a(D("dc=aa"));
  Entry b(D("dc=bb"));
  std::string ra, rb;
  SerializeEntry(a, &ra);
  SerializeEntry(b, &rb);
  EXPECT_TRUE(FromRecords(&disk, {ra, rb}).ok());
  EXPECT_FALSE(FromRecords(&disk, {rb, ra}).ok());
  EXPECT_FALSE(FromRecords(&disk, {ra, ra}).ok());  // dup
}

TEST(EntryStoreTest, EmptyStore) {
  SimDisk disk(256);
  DirectoryInstance inst(Schema(), false);
  EntryStore store = EntryStore::BulkLoad(&disk, inst).TakeValue();
  EXPECT_EQ(store.num_entries(), 0u);
  EXPECT_TRUE(ScanKeys(store, "", "").empty());
  EXPECT_FALSE(store.Get("anything").TakeValue().has_value());
}

TEST(EntryStoreTest, DestroyFreesPages) {
  SimDisk disk(256);
  DirectoryInstance inst = PaperInstance();
  EntryStore store = EntryStore::BulkLoad(&disk, inst).TakeValue();
  EXPECT_GT(disk.live_pages(), 0u);
  ASSERT_TRUE(store.Destroy().ok());
  EXPECT_EQ(disk.live_pages(), 0u);
}

TEST(EntryStoreTest, RandomRangeScansMatchInstance) {
  std::mt19937 rng(3);
  DirectoryInstance inst(Schema(), false);
  std::vector<std::string> all_keys;
  for (int i = 0; i < 300; ++i) {
    std::string name = "n" + std::to_string(rng() % 1000);
    Dn dn = (rng() % 2 == 0)
                ? D("uid=" + name + ", dc=com")
                : D("uid=" + name + ", ou=g" + std::to_string(rng() % 10) +
                    ", dc=com");
    Entry e(dn);
    e.AddInt("x", static_cast<int64_t>(rng() % 100));
    if (inst.Add(std::move(e)).ok()) all_keys.push_back(dn.HierKey());
  }
  std::sort(all_keys.begin(), all_keys.end());
  // A 4096-byte page holds more than kRestartInterval of these records, so
  // restarts also sit mid-page there, past the one a seek must land on.
  for (size_t page_size : {256, 4096}) {
    SimDisk disk(page_size);
    EntryStore store = EntryStore::BulkLoad(&disk, inst).TakeValue();
    for (int trial = 0; trial < 50; ++trial) {
      std::string a = all_keys[rng() % all_keys.size()];
      std::string b = all_keys[rng() % all_keys.size()];
      if (b < a) std::swap(a, b);
      std::vector<std::string> got = ScanKeys(store, a, b);
      std::vector<std::string> expect;
      for (const std::string& k : all_keys) {
        if (k >= a && k < b) expect.push_back(k);
      }
      ASSERT_EQ(got, expect) << page_size << "-byte pages, range " << trial;
    }
  }
}

TEST(EntryStoreTest, CompressedScansMatchTheInstance) {
  // The page format must never change what a scan yields: the instance's
  // serialized records, in order, on an adversarial forest (decorated
  // RDNs, extreme ints) — while the segment occupies fewer pages than the
  // same records framed uncompressed, varint(len) + bytes.
  gen::RandomForestOptions opt;
  opt.seed = 77;
  opt.num_entries = 400;
  opt.max_children = 2;  // deep chains -> long shared HierKey prefixes
  opt.weird_rdn_probability = 0.2;
  opt.extreme_int_probability = 0.1;
  DirectoryInstance inst = gen::RandomForest(opt);

  SimDisk disk(512);
  EntryStore store = EntryStore::BulkLoad(&disk, inst).TakeValue();

  std::vector<std::string> want;
  std::vector<std::string> keys;
  uint64_t raw_bytes = 0;
  for (const auto& [key, entry] : inst) {
    keys.push_back(key);
    SerializeEntry(entry, &want.emplace_back());
    std::string len;
    ByteWriter(&len).PutVarint(want.back().size());
    raw_bytes += len.size() + want.back().size();
  }
  std::vector<std::string> got;
  Status s = store.ScanRange("", "", [&](std::string_view rec) -> Status {
    got.emplace_back(rec);
    return Status::OK();
  });
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(got, want);
  EXPECT_LT(store.num_pages(), (raw_bytes + 511) / 512);

  // Sub-range scans agree too (seeks land on restart points).
  for (size_t i = 36; i < keys.size(); i += 37) {
    std::string end = KeySubtreeEnd(keys[i]);
    std::vector<std::string> expect;
    for (const std::string& k : keys) {
      if (k >= keys[i] && k < end) expect.push_back(k);
    }
    EXPECT_EQ(ScanKeys(store, keys[i], end), expect) << keys[i];
  }
}

TEST(EntryStoreTest, EntryFoldedStatsEqualRecordFolded) {
  // BulkLoad folds its statistics from the entries it serializes
  // (AddEntry); compaction and recovery fold the records they stream
  // (AddRecord). Over the same adversarial forests (decorated RDNs,
  // extreme ints, deep chains, and value domains wider than the MCV cap,
  // so the overflow buckets fill) the bulk load's stats must equal the
  // record fold over the very records it wrote.
  for (uint32_t seed : {77u, 78u}) {
    for (size_t max_children : {size_t{2}, size_t{8}}) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " max_children " +
                   std::to_string(max_children));
      gen::RandomForestOptions opt;
      opt.seed = seed;
      opt.num_entries = 400;
      opt.max_children = max_children;
      opt.weird_rdn_probability = 0.2;
      opt.extreme_int_probability = 0.1;
      opt.int_attr_range = 500;
      opt.num_tags = 200;
      DirectoryInstance inst = gen::RandomForest(opt);

      SimDisk disk(512);
      EntryStore store = EntryStore::BulkLoad(&disk, inst).TakeValue();
      std::vector<std::string> records = ScanRecords(store);
      ASSERT_EQ(records.size(), inst.size());
      ASSERT_NE(store.stats(), nullptr);
      EXPECT_EQ(store.stats()->num_entries(), inst.size());
      EXPECT_TRUE(*store.stats() == RecordFolded(records));

      // The comparison has teeth: one record fewer is a different sketch.
      records.pop_back();
      EXPECT_FALSE(*store.stats() == RecordFolded(records));
    }
  }
}

TEST(EntryStoreTest, OnlyBulkLoadCarriesStats) {
  // Statistics live only where a planner reads them: the bulk load a
  // local engine plans over. Fleet shards (FromEntries), flushes and
  // compactions (FromStream) and re-attached segments (FromManifest)
  // carry none, and a page copy carries exactly what its source does.
  DirectoryInstance inst = PaperInstance();
  SimDisk disk(512), copy_disk(512);
  EntryStore bulk = EntryStore::BulkLoad(&disk, inst).TakeValue();
  auto it = inst.begin();
  EntryStore entries =
      EntryStore::FromEntries(&disk, [&]() -> const Entry* {
        return it == inst.end() ? nullptr : &(it++)->second;
      }).TakeValue();
  EntryStore stream = FromRecords(&disk, ScanRecords(bulk)).TakeValue();
  EntryStore attached =
      EntryStore::FromManifest(&disk, bulk.SerializeManifest()).TakeValue();

  ASSERT_NE(bulk.stats(), nullptr);
  EXPECT_EQ(bulk.CopyTo(&copy_disk).TakeValue().stats(), bulk.stats());
  for (const EntryStore* store : {&entries, &stream, &attached}) {
    EXPECT_EQ(store->stats(), nullptr);
    EXPECT_EQ(store->CopyTo(&copy_disk).TakeValue().stats(), nullptr);
    // The same segment otherwise: records, pages, restarts and estimates.
    EXPECT_EQ(ScanRecords(*store), ScanRecords(bulk));
    EXPECT_EQ(store->num_pages(), bulk.num_pages());
    EXPECT_EQ(store->run().restarts, bulk.run().restarts);
    EXPECT_EQ(store->EstimateRangeRecords("", ""),
              bulk.EstimateRangeRecords("", ""));
  }
}

TEST(EntryStoreTest, CopyToIsPageForPage) {
  SimDisk src_disk(256), dst_disk(256);
  DirectoryInstance inst = PaperInstance();
  EntryStore src = EntryStore::BulkLoad(&src_disk, inst).TakeValue();
  src_disk.ResetStats();
  EntryStore copy = src.CopyTo(&dst_disk).TakeValue();

  // One read per page on the source disk, one allocate and write per page
  // on the target.
  EXPECT_EQ(src_disk.stats().page_reads, src.num_pages());
  EXPECT_EQ(src_disk.stats().page_writes, 0u);
  EXPECT_EQ(dst_disk.stats().page_writes, src.num_pages());
  EXPECT_EQ(dst_disk.live_pages(), src.num_pages());
  EXPECT_EQ(copy.disk(), &dst_disk);
  EXPECT_EQ(copy.num_pages(), src.num_pages());
  EXPECT_EQ(copy.num_entries(), src.num_entries());
  EXPECT_EQ(copy.stats(), src.stats());  // one shared object

  std::vector<uint8_t> a(256), b(256);
  for (size_t i = 0; i < src.num_pages(); ++i) {
    ASSERT_TRUE(src_disk.ReadPage(src.run().pages[i], a.data()).ok());
    ASSERT_TRUE(dst_disk.ReadPage(copy.run().pages[i], b.data()).ok());
    EXPECT_EQ(a, b) << "page " << i;
  }
  EXPECT_EQ(ScanKeys(copy, "", ""), ScanKeys(src, "", ""));
  Dn base = D("ou=networkPolicies, dc=research, dc=att, dc=com");
  EXPECT_EQ(ScanKeys(copy, base.HierKey(), KeySubtreeEnd(base.HierKey())),
            ScanKeys(src, base.HierKey(), KeySubtreeEnd(base.HierKey())));

  // The copy owns its pages: destroying it leaves the source intact.
  ASSERT_TRUE(copy.Destroy().ok());
  EXPECT_EQ(dst_disk.live_pages(), 0u);
  EXPECT_EQ(ScanKeys(src, "", "").size(), inst.size());

  SimDisk other_size(512);
  EXPECT_EQ(src.CopyTo(&other_size).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(EntryStoreTest, FailedCopyFreesItsPages) {
  SimDisk src_disk(256);
  DirectoryInstance inst = PaperInstance();
  EntryStore src = EntryStore::BulkLoad(&src_disk, inst).TakeValue();
  ASSERT_GT(src.num_pages(), 3u);
  // Fail the copy at every allocate and write on the target disk; no
  // attempt may strand a page there.
  for (uint64_t nth = 1; nth <= 2 * src.num_pages(); ++nth) {
    SCOPED_TRACE("target op " + std::to_string(nth));
    SimDisk dst_disk(256);
    FaultInjector fi({FaultInjector::FailNth(
        nth, FaultOpBit(FaultOp::kAllocate) | FaultOpBit(FaultOp::kWrite))});
    dst_disk.set_fault_injector(&fi);
    Result<EntryStore> copy = src.CopyTo(&dst_disk);
    dst_disk.set_fault_injector(nullptr);
    EXPECT_FALSE(copy.ok());
    EXPECT_EQ(dst_disk.live_pages(), 0u);
  }
}

TEST(EntryStoreTest, ManifestRoundTripsCompressedSegments) {
  SimDisk disk(512);
  DirectoryInstance inst = PaperInstance();
  EntryStore store = EntryStore::BulkLoad(&disk, inst).TakeValue();
  ASSERT_EQ(store.run().format, PageFormat::kKeyPrefix);
  std::string manifest = store.SerializeManifest();
  EXPECT_NE(manifest.find("ndqseg3"), std::string::npos);
  EntryStore back = EntryStore::FromManifest(&disk, manifest).TakeValue();
  EXPECT_EQ(back.run().format, store.run().format);
  EXPECT_EQ(back.run().restarts, store.run().restarts);
  EXPECT_EQ(ScanKeys(back, "", ""), ScanKeys(store, "", ""));
  // The re-attached segment is the run its writer produced, so it reads
  // backwards too.
  std::vector<std::string> backwards;
  ReverseRunReader reverse(&disk, back.run());
  std::string record;
  while (reverse.Next(&record).ValueOrDie()) backwards.push_back(record);
  std::vector<std::string> forwards = ScanRecords(back);
  EXPECT_EQ(backwards,
            std::vector<std::string>(forwards.rbegin(), forwards.rend()));
}

// A manifest header: magic, format byte, record count, payload bytes.
std::string ManifestHeader(std::string_view magic, uint8_t format) {
  std::string out;
  ByteWriter w(&out);
  w.PutString(magic);
  w.PutU8(format);
  w.PutVarint(0);
  w.PutVarint(0);
  return out;
}

StatusCode AttachCode(Disk* disk, const std::string& manifest) {
  return EntryStore::FromManifest(disk, manifest).status().code();
}

TEST(EntryStoreTest, ManifestRejectsRetiredMagicAndFormats) {
  SimDisk disk(512);
  std::string empty_lists;  // no pages, restarts or keys
  for (int list = 0; list < 3; ++list) ByteWriter(&empty_lists).PutVarint(0);
  EXPECT_EQ(AttachCode(&disk, ManifestHeader("ndqseg3", 2) + empty_lists),
            StatusCode::kOk);
  // The uncompressed layout's magic, the manifest without restarts, and
  // format byte 0 are retired.
  for (std::string_view magic : {"ndqseg1", "ndqseg2"}) {
    EXPECT_EQ(AttachCode(&disk, ManifestHeader(magic, 2) + empty_lists),
              StatusCode::kCorruption)
        << magic;
  }
  for (uint8_t format : {0, 3, 255}) {
    EXPECT_EQ(
        AttachCode(&disk, ManifestHeader("ndqseg3", format) + empty_lists),
        StatusCode::kCorruption)
        << int{format};
  }
}

// A one-page manifest of `records` records in `payload` bytes, with the
// given restarts and one key.
std::string OnePageManifest(uint64_t records, uint64_t payload,
                            const std::vector<RunRestart>& restarts) {
  std::string out;
  ByteWriter w(&out);
  w.PutString("ndqseg3");
  w.PutU8(2);
  w.PutVarint(records);
  w.PutVarint(payload);
  w.PutVarint(1);
  w.PutVarint(0);
  w.PutVarint(restarts.size());
  for (const RunRestart& r : restarts) {
    w.PutVarint(r.record);
    w.PutVarint(r.offset);
  }
  w.PutVarint(1);
  w.PutString("key");
  return out;
}

TEST(EntryStoreTest, ManifestHostileCountsAreCorruption) {
  // Counts near 2^61 must fail as Corruption before they size a vector.
  SimDisk disk(512);
  std::string pages = ManifestHeader("ndqseg3", 2);
  ByteWriter(&pages).PutVarint(uint64_t{1} << 61);
  EXPECT_EQ(AttachCode(&disk, pages), StatusCode::kCorruption);
  std::string restarts = ManifestHeader("ndqseg3", 2);
  ByteWriter(&restarts).PutVarint(0);
  ByteWriter(&restarts).PutVarint(uint64_t{1} << 61);
  EXPECT_EQ(AttachCode(&disk, restarts), StatusCode::kCorruption);
  std::string keys = ManifestHeader("ndqseg3", 2);
  ByteWriter(&keys).PutVarint(0);
  ByteWriter(&keys).PutVarint(0);
  ByteWriter(&keys).PutVarint(uint64_t{1} << 61);
  EXPECT_EQ(AttachCode(&disk, keys), StatusCode::kCorruption);

  // Restarts are checked as a reverse read checks them: the first must be
  // record 0 at offset 0, each must lie past the one before, and all
  // before the end of the payload.
  EXPECT_EQ(AttachCode(&disk, OnePageManifest(3, 30, {{0, 0}, {2, 20}})),
            StatusCode::kOk);
  EXPECT_EQ(AttachCode(&disk, OnePageManifest(3, 30, {{0, 5}, {2, 20}})),
            StatusCode::kCorruption);
  EXPECT_EQ(AttachCode(&disk, OnePageManifest(3, 30, {{1, 0}, {2, 20}})),
            StatusCode::kCorruption);
  EXPECT_EQ(
      AttachCode(&disk, OnePageManifest(3, 30, {{0, 0}, {2, 20}, {1, 25}})),
      StatusCode::kCorruption);
  EXPECT_EQ(AttachCode(&disk, OnePageManifest(3, 30, {{0, 0}, {2, 40}})),
            StatusCode::kCorruption);
  EXPECT_EQ(AttachCode(&disk, OnePageManifest(3, 30, {})),
            StatusCode::kCorruption);
}

// Every key range RangeEstimatesAndSeekReadsArePinned covers: the whole
// store; each entry's base range, the range of its proper descendants
// and its subtree range; and the open ranges on either side of a key
// that falls between the entry and the next one.
std::vector<std::pair<std::string, std::string>> PinnedRanges(
    const DirectoryInstance& inst) {
  std::vector<std::pair<std::string, std::string>> ranges = {{"", ""}};
  for (const auto& [key, entry] : inst) {
    (void)entry;
    ranges.emplace_back(key, KeyExactEnd(key));
    ranges.emplace_back(KeyDescendantsBegin(key), KeySubtreeEnd(key));
    ranges.emplace_back(key, KeySubtreeEnd(key));
    std::string between = key + '\0';
    ranges.emplace_back(between, "");
    ranges.emplace_back("", between);
  }
  return ranges;
}

// Three figures per pinned range: EstimateRangePages,
// EstimateRangeRecords, and the pages ScanRange reads.
std::vector<uint64_t> RangeFigures(SimDisk* disk, const EntryStore& store,
                                   const DirectoryInstance& inst) {
  std::vector<uint64_t> figures;
  for (const auto& [start, end] : PinnedRanges(inst)) {
    figures.push_back(store.EstimateRangePages(start, end));
    figures.push_back(store.EstimateRangeRecords(start, end));
    disk->ResetStats();
    Status s = store.ScanRange(
        start, end, [](std::string_view) { return Status::OK(); });
    EXPECT_TRUE(s.ok()) << s.ToString();
    figures.push_back(disk->stats().page_reads);
  }
  return figures;
}

// Entries of 40 to 700 bytes under three ou entries: on 256-byte pages,
// pages several records start in and pages no record starts in, among
// them the pages the last record ends in.
DirectoryInstance LongRecordInstance() {
  DirectoryInstance inst(Schema(), /*validate=*/false);
  auto add = [&](const std::string& dn, size_t blob, char fill) {
    Entry e(D(dn));
    e.AddString("blob", std::string(blob, fill));
    EXPECT_TRUE(inst.Add(std::move(e)).ok());
  };
  add("dc=com", 40, 'a');
  for (int o = 0; o < 3; ++o) {
    std::string ou = "ou=o" + std::to_string(o) + ", dc=com";
    add(ou, 40, static_cast<char>('b' + o));
    for (int u = 0; u < 6; ++u) {
      add("uid=u" + std::to_string(u) + ", " + ou,
          u % 3 == 0 || u == 5 ? 700 : 40,
          static_cast<char>('e' + 6 * o + u));
    }
  }
  return inst;
}

TEST(EntryStoreTest, RangeEstimatesAndSeekReadsArePinned) {
  // The sparse index's estimates and the pages a seek-and-scan reads, on
  // 256-byte pages, for every pinned range, as an index of per-page first
  // keys, offsets and record ordinals gave them: the paper instance, and
  // a store with pages no record starts in. The estimates count from the
  // page the scan starts at, backed up over pages no record starts in.
  const std::vector<uint64_t> kPaper = {
      14, 23, 14, 1, 5, 1, 14, 23, 14, 14, 23, 14, 14, 23, 14,
      1, 5, 1, 1, 5, 1, 14, 23, 14, 14, 23, 14, 14, 23, 14,
      1, 5, 1, 1, 5, 1, 14, 23, 14, 14, 23, 14, 14, 23, 14,
      1, 5, 1, 1, 5, 1, 1, 5, 1, 1, 5, 1, 14, 23, 14,
      1, 5, 1, 1, 5, 2, 10, 17, 11, 10, 17, 11, 14, 23, 14,
      1, 5, 2, 1, 3, 1, 1, 3, 2, 1, 3, 2, 13, 18, 13,
      2, 8, 2, 1, 3, 2, 1, 3, 2, 1, 3, 2, 13, 18, 13,
      2, 8, 3, 1, 3, 5, 6, 6, 7, 6, 6, 7, 13, 18, 13,
      2, 8, 6, 3, 1, 5, 3, 1, 5, 3, 1, 5, 12, 15, 12,
      5, 9, 7, 1, 1, 3, 1, 1, 3, 1, 1, 3, 9, 14, 9,
      6, 10, 8, 1, 1, 2, 1, 1, 2, 1, 1, 2, 8, 13, 8,
      7, 11, 8, 1, 2, 2, 2, 4, 3, 2, 4, 3, 7, 12, 7,
      8, 13, 9, 1, 2, 2, 1, 2, 2, 1, 2, 2, 7, 12, 7,
      8, 13, 9, 1, 2, 2, 1, 2, 2, 1, 2, 2, 6, 10, 6,
      9, 15, 10, 1, 2, 2, 2, 4, 3, 2, 4, 3, 6, 10, 6,
      9, 15, 10, 1, 2, 2, 1, 2, 2, 1, 2, 2, 5, 8, 5,
      10, 17, 11, 1, 2, 2, 1, 2, 2, 1, 2, 2, 5, 8, 5,
      10, 17, 11, 1, 2, 2, 4, 6, 4, 4, 6, 4, 4, 6, 4,
      11, 19, 12, 1, 2, 2, 4, 6, 4, 4, 6, 4, 4, 6, 4,
      11, 19, 12, 1, 3, 1, 1, 3, 1, 1, 3, 1, 3, 4, 3,
      12, 22, 12, 1, 3, 2, 3, 4, 3, 3, 4, 3, 3, 4, 3,
      12, 22, 13, 1, 3, 3, 1, 3, 3, 1, 3, 3, 3, 4, 3,
      12, 22, 14, 2, 1, 2, 2, 1, 2, 2, 1, 2, 2, 1, 2,
      14, 23, 14,
  };
  const std::vector<uint64_t> kLong = {
      29, 22, 29, 3, 3, 1, 29, 22, 29, 29, 22, 29, 29, 22, 29,
      3, 3, 1, 3, 3, 4, 9, 8, 10, 9, 8, 10, 29, 22, 29,
      3, 3, 4, 3, 3, 4, 3, 3, 4, 3, 3, 4, 29, 22, 29,
      3, 3, 4, 3, 3, 1, 3, 3, 1, 3, 3, 1, 26, 19, 26,
      6, 6, 4, 3, 3, 4, 3, 3, 4, 3, 3, 4, 26, 19, 26,
      6, 6, 7, 3, 3, 4, 3, 3, 4, 3, 3, 4, 26, 19, 26,
      6, 6, 7, 3, 2, 4, 3, 2, 4, 3, 2, 4, 23, 16, 23,
      9, 8, 10, 3, 2, 4, 3, 2, 4, 3, 2, 4, 23, 16, 23,
      9, 8, 10, 3, 2, 4, 9, 7, 11, 9, 7, 11, 20, 14, 20,
      12, 10, 13, 3, 2, 4, 3, 2, 4, 3, 2, 4, 20, 14, 20,
      12, 10, 13, 3, 3, 1, 3, 3, 1, 3, 3, 1, 17, 12, 17,
      15, 13, 13, 3, 3, 4, 3, 3, 4, 3, 3, 4, 17, 12, 17,
      15, 13, 16, 3, 3, 5, 3, 3, 5, 3, 3, 5, 17, 12, 17,
      15, 13, 17, 1, 1, 4, 1, 1, 4, 1, 1, 4, 14, 9, 14,
      16, 14, 19, 2, 1, 4, 2, 1, 4, 2, 1, 4, 13, 8, 13,
      18, 15, 20, 1, 1, 5, 11, 7, 11, 11, 7, 11, 11, 7, 11,
      19, 16, 23, 3, 1, 4, 3, 1, 4, 3, 1, 4, 10, 6, 10,
      22, 17, 23, 3, 3, 1, 3, 3, 1, 3, 3, 1, 7, 5, 7,
      25, 20, 23, 3, 3, 4, 3, 3, 4, 3, 3, 4, 7, 5, 7,
      25, 20, 26, 3, 3, 4, 3, 3, 4, 3, 3, 4, 7, 5, 7,
      25, 20, 26, 4, 2, 4, 4, 2, 4, 4, 2, 4, 4, 2, 4,
      29, 22, 29, 4, 2, 4, 4, 2, 4, 4, 2, 4, 4, 2, 4,
      29, 22, 29,
  };
  for (bool long_records : {false, true}) {
    SCOPED_TRACE(long_records ? "long records" : "paper instance");
    SimDisk disk(256);
    DirectoryInstance inst =
        long_records ? LongRecordInstance() : PaperInstance();
    EntryStore store = EntryStore::BulkLoad(&disk, inst).TakeValue();
    if (long_records) {
      std::set<uint64_t> start_pages;
      for (const RunRestart& r : store.run().restarts) {
        start_pages.insert(r.offset / disk.page_size());
      }
      EXPECT_LT(start_pages.size(), store.num_pages());
    }
    const std::vector<uint64_t>& want = long_records ? kLong : kPaper;
    std::vector<uint64_t> got = RangeFigures(&disk, store, inst);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], want[i]) << "range " << i / 3 << ", figure " << i % 3;
    }
  }
}

// One seeded byte mutation: flip a bit, truncate, or insert a byte.
void Mutate(std::mt19937* rng, std::string* bytes) {
  switch ((*rng)() % 3) {
    case 0:
      (*bytes)[(*rng)() % bytes->size()] ^=
          static_cast<char>(1 << ((*rng)() % 8));
      break;
    case 1:
      bytes->resize((*rng)() % bytes->size());
      break;
    default:
      bytes->insert(bytes->begin() + (*rng)() % (bytes->size() + 1),
                    static_cast<char>((*rng)() % 256));
      break;
  }
}

// Scans [start, end) and decodes every record. Returns the scan's status;
// *decoded counts the records that deserialized.
Status ScanAndDecode(const EntryStore& store, std::string_view start,
                     std::string_view end, size_t* decoded) {
  return store.ScanRange(start, end, [&](std::string_view rec) -> Status {
    if (DeserializeEntry(rec).ok()) ++*decoded;
    return Status::OK();
  });
}

DirectoryInstance MutationForest() {
  gen::RandomForestOptions opt;
  opt.seed = 15;
  opt.num_entries = 150;
  opt.weird_rdn_probability = 0.2;
  opt.extreme_int_probability = 0.1;
  return gen::RandomForest(opt);
}

TEST(EntryStoreTest, MutatedSegmentPagesScanOrFail) {
  // Damage one page of a compressed segment at a time; every full and
  // sub-range scan must end in a Status or decoded records.
  DirectoryInstance inst = MutationForest();
  std::vector<std::string> keys;
  for (const auto& [key, entry] : inst) keys.push_back(key);
  SimDisk disk(256);
  EntryStore store = EntryStore::BulkLoad(&disk, inst).TakeValue();
  const std::vector<PageId>& pages = store.run().pages;
  ASSERT_GT(pages.size(), 10u);

  std::mt19937 rng(15);
  size_t failed = 0, completed = 0;
  auto tally = [&](const Status& s) {
    if (s.ok()) {
      ++completed;
    } else {
      ++failed;
      EXPECT_EQ(s.code(), StatusCode::kCorruption) << s.ToString();
    }
  };
  std::string page(disk.page_size(), '\0');
  for (int i = 0; i < 1500; ++i) {
    PageId id = pages[rng() % pages.size()];
    uint8_t* buf = reinterpret_cast<uint8_t*>(page.data());
    ASSERT_TRUE(disk.ReadPage(id, buf).ok());
    std::string mutated = page;
    Mutate(&rng, &mutated);
    mutated.resize(disk.page_size(), '\0');
    ASSERT_TRUE(disk.WritePage(id, reinterpret_cast<const uint8_t*>(
                                       mutated.data()))
                    .ok());
    size_t decoded = 0;
    const std::string& start = keys[rng() % keys.size()];
    tally(ScanAndDecode(store, "", "", &decoded));
    tally(ScanAndDecode(store, start, KeySubtreeEnd(start), &decoded));
    ASSERT_TRUE(disk.WritePage(id, buf).ok());
  }
  // The loop reaches both outcomes.
  EXPECT_GT(failed, 0u);
  EXPECT_GT(completed, 0u);
  size_t decoded = 0;
  ASSERT_TRUE(ScanAndDecode(store, "", "", &decoded).ok());
  EXPECT_EQ(decoded, inst.size());
}

TEST(EntryStoreTest, MutatedManifestsDecodeOrFail) {
  // Damaged manifests (they come back from unchecksummed WAL pages) must
  // be rejected or attach a segment whose full scan ends in a Status or
  // decoded records.
  DirectoryInstance inst = MutationForest();
  SimDisk disk(256);
  EntryStore store = EntryStore::BulkLoad(&disk, inst).TakeValue();
  const std::string manifest = store.SerializeManifest();

  std::mt19937 rng(16);
  size_t rejected = 0, attached = 0;
  for (int i = 0; i < 2000; ++i) {
    std::string mutated = manifest;
    Mutate(&rng, &mutated);
    Result<EntryStore> back = EntryStore::FromManifest(&disk, mutated);
    if (!back.ok()) {
      ++rejected;
      EXPECT_EQ(back.status().code(), StatusCode::kCorruption)
          << back.status().ToString();
      continue;
    }
    ++attached;
    size_t decoded = 0;
    Status s = ScanAndDecode(*back, "", "", &decoded);
    if (!s.ok()) {
      EXPECT_TRUE(s.code() == StatusCode::kCorruption ||
                  s.code() == StatusCode::kOutOfRange)
          << s.ToString();
    }
  }
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(attached, 0u);
}

}  // namespace
}  // namespace ndq
