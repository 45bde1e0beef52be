#include "store/directory_store.h"

#include <algorithm>
#include <cstdio>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "core/status_matchers.h"
#include "exec/parallel_evaluator.h"
#include "query/parser.h"
#include "query/reference.h"
#include "storage/fault_injector.h"
#include "storage/serde.h"
#include "testing/fault_campaign.h"
#include "testing/paper_fixture.h"

namespace ndq {
namespace {

using testing::D;
using testing::PaperInstance;
using testing::PaperSchema;

DirectoryStoreOptions SmallOptions() {
  DirectoryStoreOptions opt;
  opt.memtable_limit = 8;  // force frequent flushes
  opt.max_segments = 4;    // and compactions
  return opt;
}

Status LoadPaper(DirectoryStore* store) {
  DirectoryInstance inst = PaperInstance();
  for (const auto& [key, entry] : inst) {
    (void)key;
    NDQ_RETURN_IF_ERROR(store->Add(entry));
  }
  return Status::OK();
}

TEST(DirectoryStoreTest, AddGetRemove) {
  SimDisk disk(512);
  DirectoryStore store(&disk, PaperSchema(), SmallOptions());
  ASSERT_TRUE(LoadPaper(&store).ok());
  EXPECT_EQ(store.num_entries(), 23u);

  Dn jag = D("uid=jag, ou=userProfiles, dc=research, dc=att, dc=com");
  std::optional<Entry> e = store.Get(jag).TakeValue();
  ASSERT_TRUE(e.has_value());
  EXPECT_TRUE(e->HasClass("TOPSSubscriber"));

  // Duplicate add rejected.
  Entry dup(D("dc=com"));
  dup.AddClass("dcObject");
  dup.AddString("dc", "com");
  EXPECT_EQ(store.Add(dup).code(), StatusCode::kAlreadyExists);

  // Remove with descendants rejected; leaf removal works.
  EXPECT_FALSE(store.Remove(jag).ok());
  Dn leaf = D(
      "CANumber=9733608750, QHPName=workinghours, uid=jag, ou=userProfiles, "
      "dc=research, dc=att, dc=com");
  EXPECT_TRUE(store.Remove(leaf).ok());
  EXPECT_FALSE(store.Get(leaf).TakeValue().has_value());
  EXPECT_EQ(store.Remove(leaf).code(), StatusCode::kNotFound);
  EXPECT_EQ(store.num_entries(), 22u);
}

TEST(DirectoryStoreTest, PutReplacesAcrossSegments) {
  SimDisk disk(512);
  DirectoryStore store(&disk, PaperSchema(), SmallOptions());
  ASSERT_TRUE(LoadPaper(&store).ok());
  ASSERT_TRUE(store.Flush().ok());

  Dn qhp = D("QHPName=weekend, uid=jag, ou=userProfiles, dc=research, "
             "dc=att, dc=com");
  Entry updated(qhp);
  updated.AddClass("QHP");
  updated.AddString("QHPName", "weekend");
  updated.AddInt("priority", 9);  // demoted
  ASSERT_TRUE(store.Put(updated).ok());
  std::optional<Entry> e = store.Get(qhp).TakeValue();
  ASSERT_TRUE(e.has_value());
  EXPECT_TRUE(e->HasPair("priority", Value::Int(9)));
  EXPECT_FALSE(e->HasPair("priority", Value::Int(1)));
  EXPECT_EQ(store.num_entries(), 23u);  // replaced, not added
}

TEST(DirectoryStoreTest, ScanHidesTombstonesAndShadows) {
  SimDisk disk(512);
  DirectoryStore store(&disk, PaperSchema(), SmallOptions());
  ASSERT_TRUE(LoadPaper(&store).ok());
  ASSERT_TRUE(store.Flush().ok());
  Dn leaf = D(
      "CANumber=9733608751, QHPName=workinghours, uid=jag, ou=userProfiles, "
      "dc=research, dc=att, dc=com");
  ASSERT_TRUE(store.Remove(leaf).ok());

  size_t count = 0;
  std::string prev;
  ASSERT_TRUE(store
                  .ScanRange("", "",
                             [&](std::string_view rec) -> Status {
                               std::string key(
                                   PeekEntryKey(rec).ValueOrDie());
                               EXPECT_LT(prev, key);  // ordered, no dups
                               prev = key;
                               ++count;
                               return Status::OK();
                             })
                  .ok());
  EXPECT_EQ(count, 22u);
}

TEST(DirectoryStoreTest, CompactionPreservesContent) {
  SimDisk disk(512);
  DirectoryStore store(&disk, PaperSchema(), SmallOptions());
  ASSERT_TRUE(LoadPaper(&store).ok());
  // Many flushes happened (memtable_limit=8). Compact everything.
  ASSERT_TRUE(store.Compact().ok());
  EXPECT_LE(store.num_segments(), 1u);
  DirectoryInstance inst = PaperInstance();
  for (const auto& [key, entry] : inst) {
    (void)key;
    std::optional<Entry> got = store.Get(entry.dn()).TakeValue();
    ASSERT_TRUE(got.has_value()) << entry.dn().ToString();
    EXPECT_EQ(*got, entry);
  }
}

TEST(DirectoryStoreTest, QueriesRunOverMutableStore) {
  // The evaluation engine works over the LSM exactly as over a bulk-loaded
  // segment: run a paper query after updates.
  SimDisk disk(512);
  DirectoryStore store(&disk, PaperSchema(), SmallOptions());
  ASSERT_TRUE(LoadPaper(&store).ok());

  // Add a new subscriber with 3 QHPs dynamically.
  Dn base = D("ou=userProfiles, dc=research, dc=att, dc=com");
  Dn milo = base.Child(Rdn::Single("uid", "milo").TakeValue());
  Entry sub(milo);
  sub.AddClass("TOPSSubscriber");
  sub.AddString("uid", "milo");
  ASSERT_TRUE(store.Add(sub).ok());
  for (int i = 0; i < 3; ++i) {
    Dn qdn = milo.Child(Rdn::Single("QHPName", "q" + std::to_string(i))
                            .TakeValue());
    Entry q(qdn);
    q.AddClass("QHP");
    q.AddString("QHPName", "q" + std::to_string(i));
    q.AddInt("priority", i + 1);
    ASSERT_TRUE(store.Add(q).ok());
  }

  SimDisk scratch(512);
  ParallelEvaluator evaluator(&scratch, &store);
  QueryPtr q = ParseQuery(
                   "(c (dc=att, dc=com ? sub ? objectClass=TOPSSubscriber)"
                   "   (dc=att, dc=com ? sub ? objectClass=QHP)"
                   "   count($2) > 2)")
                   .TakeValue();
  std::vector<Entry> result = evaluator.EvaluateToEntries(*q).TakeValue();
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].dn(), milo);
}

TEST(DirectoryStoreTest, RandomOperationsMatchModel) {
  std::mt19937 rng(77);
  SimDisk disk(512);
  DirectoryStore store(&disk, Schema(), [] {
    DirectoryStoreOptions o;
    o.memtable_limit = 16;
    o.max_segments = 3;
    o.validate = false;
    return o;
  }());
  std::map<std::string, Entry> model;

  for (int step = 0; step < 600; ++step) {
    int uid = rng() % 60;
    Dn dn = D("uid=u" + std::to_string(uid) + ", dc=com");
    int action = rng() % 3;
    if (action == 0) {  // put
      Entry e(dn);
      e.AddInt("x", static_cast<int64_t>(rng() % 100));
      ASSERT_TRUE(store.Put(e).ok());
      model[dn.HierKey()] = e;
    } else if (action == 1) {  // remove
      Status s = store.Remove(dn);
      if (model.count(dn.HierKey()) > 0) {
        ASSERT_TRUE(s.ok());
        model.erase(dn.HierKey());
      } else {
        ASSERT_EQ(s.code(), StatusCode::kNotFound);
      }
    } else {  // get
      std::optional<Entry> got = store.Get(dn).TakeValue();
      auto it = model.find(dn.HierKey());
      ASSERT_EQ(got.has_value(), it != model.end());
      if (got.has_value()) {
        ASSERT_EQ(*got, it->second);
      }
    }
    ASSERT_EQ(store.num_entries(), model.size());
  }
  // Final full scan matches the model exactly.
  std::vector<std::string> keys;
  ASSERT_TRUE(store
                  .ScanRange("", "",
                             [&](std::string_view rec) -> Status {
                               keys.emplace_back(
                                   PeekEntryKey(rec).ValueOrDie());
                               return Status::OK();
                             })
                  .ok());
  ASSERT_EQ(keys.size(), model.size());
  size_t i = 0;
  for (const auto& [key, entry] : model) {
    (void)entry;
    EXPECT_EQ(keys[i++], key);
  }
}

// Where a key physically lives when a mutation hits it.
enum class Placement { kActive, kFlushed, kCompacted };

const char* PlacementName(Placement p) {
  switch (p) {
    case Placement::kActive:
      return "active-memtable";
    case Placement::kFlushed:
      return "flushed-segment";
    case Placement::kCompacted:
      return "compacted-segment";
  }
  return "?";
}

TEST(DirectoryStoreTest, MutationMatrixAcrossPlacements) {
  // Every mutation kind against a key in every physical location: the
  // LSM read path (active > frozen > segments) must make placement
  // invisible to Add/Put/Remove semantics.
  for (Placement p :
       {Placement::kActive, Placement::kFlushed, Placement::kCompacted}) {
    SCOPED_TRACE(PlacementName(p));
    SimDisk disk(512);
    DirectoryStoreOptions opt;
    opt.memtable_limit = 64;  // no threshold maintenance interference
    opt.validate = false;
    DirectoryStore store(&disk, Schema(), opt);

    Dn parent = D("dc=com");
    Dn child = D("uid=u1, dc=com");
    Entry pe(parent);
    pe.AddInt("x", 1);
    Entry ce(child);
    ce.AddInt("x", 2);
    ASSERT_TRUE(store.Add(pe).ok());
    ASSERT_TRUE(store.Add(ce).ok());
    switch (p) {
      case Placement::kActive:
        break;
      case Placement::kFlushed:
        ASSERT_TRUE(store.Flush().ok());
        break;
      case Placement::kCompacted:
        ASSERT_TRUE(store.Flush().ok());
        ASSERT_TRUE(store.Compact().ok());
        break;
    }

    // Add over a bound dn: rejected, store unchanged.
    EXPECT_EQ(store.Add(ce).code(), StatusCode::kAlreadyExists);
    EXPECT_EQ(store.num_entries(), 2u);

    // Put replaces in place wherever the old version lives.
    Entry ce2(child);
    ce2.AddInt("x", 99);
    ASSERT_TRUE(store.Put(ce2).ok());
    std::optional<Entry> got = store.Get(child).TakeValue();
    ASSERT_TRUE(got.has_value());
    EXPECT_TRUE(got->HasPair("x", Value::Int(99)));
    EXPECT_EQ(store.num_entries(), 2u);

    // Interior removal rejected while the child exists, in any placement.
    EXPECT_EQ(store.Remove(parent).code(), StatusCode::kInvalidArgument);

    // Leaf removal tombstones across segments.
    ASSERT_TRUE(store.Remove(child).ok());
    EXPECT_FALSE(store.Get(child).TakeValue().has_value());
    EXPECT_EQ(store.num_entries(), 1u);
    EXPECT_EQ(store.Remove(child).code(), StatusCode::kNotFound);

    // Now the parent is a leaf: removal drains the store.
    ASSERT_TRUE(store.Remove(parent).ok());
    EXPECT_EQ(store.num_entries(), 0u);
  }
}

TEST(DirectoryStoreTest, SnapshotIgnoresLaterMutations) {
  SimDisk disk(512);
  DirectoryStore store(&disk, PaperSchema(), SmallOptions());
  ASSERT_TRUE(LoadPaper(&store).ok());
  const uint64_t before = store.num_entries();

  std::shared_ptr<const EntrySource> snap = store.PinSnapshot();
  ASSERT_NE(snap, nullptr);
  const uint64_t pinned_version = snap->version();

  Dn milo = D("ou=userProfiles, dc=research, dc=att, dc=com")
                .Child(Rdn::Single("uid", "milo").TakeValue());
  Entry sub(milo);
  sub.AddClass("TOPSSubscriber");
  sub.AddString("uid", "milo");
  ASSERT_TRUE(store.Add(sub).ok());
  ASSERT_TRUE(store.Flush().ok());
  ASSERT_TRUE(store.Compact().ok());

  // The snapshot still reads the pre-mutation version — including the
  // segments the compaction replaced, which it still names.
  EXPECT_EQ(snap->num_entries(), before);
  EXPECT_EQ(snap->version(), pinned_version);
  bool saw_milo = false;
  ASSERT_TRUE(snap->ScanRange("", "",
                              [&](std::string_view rec) -> Status {
                                if (PeekEntryKey(rec).ValueOrDie() ==
                                    milo.HierKey()) {
                                  saw_milo = true;
                                }
                                return Status::OK();
                              })
                  .ok());
  EXPECT_FALSE(saw_milo);

  // The store itself has moved on.
  EXPECT_EQ(store.num_entries(), before + 1);
  EXPECT_GT(store.version(), pinned_version);
  snap.reset();
}

// Options under which only Compact() merges segments.
DirectoryStoreOptions SegmentedOptions() {
  DirectoryStoreOptions opt;
  opt.memtable_limit = 8;
  opt.max_segments = 16;
  opt.validate = false;
  return opt;
}

// Puts uid=u0..u23 with a flush after every seventh: four segments.
Status LoadSegments(DirectoryStore* store) {
  for (int i = 0; i < 24; ++i) {
    Entry e(D("uid=u" + std::to_string(i) + ", dc=com"));
    e.AddInt("x", i);
    NDQ_RETURN_IF_ERROR(store->Put(e));
    if (i % 7 == 6) NDQ_RETURN_IF_ERROR(store->Flush());
  }
  return store->Flush();
}

// A replacement and a removal, so the compaction that follows changes
// what a scan reads.
Status Mutate(DirectoryStore* store) {
  Entry e(D("uid=u5, dc=com"));
  e.AddInt("x", 105);
  NDQ_RETURN_IF_ERROR(store->Put(e));
  return store->Remove(D("uid=u6, dc=com"));
}

std::vector<std::string> ScanAll(const EntrySource& source) {
  std::vector<std::string> records;
  Status s = source.ScanRange("", "", [&](std::string_view rec) {
    records.emplace_back(rec);
    return Status::OK();
  });
  EXPECT_TRUE(s.ok()) << s.ToString();
  return records;
}

// The pages of one segment written from `records`: the footprint of a
// compacted store that reads them.
size_t SegmentPages(const std::vector<std::string>& records) {
  SimDisk disk(512);
  auto it = records.begin();
  Result<EntryStore> segment =
      EntryStore::FromStream(&disk, [&](std::string* out) -> Result<bool> {
        if (it == records.end()) return false;
        *out = *it++;
        return true;
      });
  EXPECT_TRUE(segment.ok()) << segment.status().ToString();
  return disk.live_pages();
}

TEST(DirectoryStoreTest, SnapshotKeepsReplacedSegmentsUntilReleased) {
  SimDisk disk(512);
  DirectoryStore store(&disk, Schema(), SegmentedOptions());
  NDQ_ASSERT_OK(LoadSegments(&store));
  const std::vector<std::string> before = ScanAll(store);
  std::shared_ptr<const EntrySource> first = store.PinSnapshot();
  std::shared_ptr<const EntrySource> second = store.PinSnapshot();
  NDQ_ASSERT_OK(Mutate(&store));
  NDQ_ASSERT_OK(store.Compact());
  ASSERT_EQ(store.num_segments(), 1u);
  EXPECT_NE(ScanAll(store), before);
  const size_t footprint = SegmentPages(ScanAll(store));

  // Both snapshots read the pre-compaction records byte for byte, from
  // the replaced segments' pages, which stay allocated while either
  // snapshot names them; a moved snapshot keeps them too.
  EXPECT_EQ(ScanAll(*first), before);
  std::shared_ptr<const EntrySource> moved = std::move(first);
  EXPECT_GT(disk.live_pages(), footprint);
  moved.reset();
  EXPECT_GT(disk.live_pages(), footprint);
  EXPECT_EQ(ScanAll(*second), before);
  second.reset();
  EXPECT_EQ(disk.live_pages(), footprint);
  NDQ_EXPECT_OK(store.maintenance_status());
}

TEST(DirectoryStoreTest, SnapshotPinnedAfterCompactionHoldsNoReplacedPage) {
  {
    // Nothing pinned: the compaction frees the replaced pages itself.
    SimDisk disk(512);
    DirectoryStore store(&disk, Schema(), SegmentedOptions());
    NDQ_ASSERT_OK(LoadSegments(&store));
    NDQ_ASSERT_OK(Mutate(&store));
    NDQ_ASSERT_OK(store.Compact());
    EXPECT_EQ(disk.live_pages(), SegmentPages(ScanAll(store)));
  }
  // A snapshot pinned before the compaction holds the replaced pages; one
  // pinned after it does not, so releasing the first frees them.
  SimDisk disk(512);
  DirectoryStore store(&disk, Schema(), SegmentedOptions());
  NDQ_ASSERT_OK(LoadSegments(&store));
  std::shared_ptr<const EntrySource> before = store.PinSnapshot();
  NDQ_ASSERT_OK(Mutate(&store));
  NDQ_ASSERT_OK(store.Compact());
  std::shared_ptr<const EntrySource> after = store.PinSnapshot();
  before.reset();
  EXPECT_EQ(disk.live_pages(), SegmentPages(ScanAll(store)));
  EXPECT_EQ(ScanAll(*after), ScanAll(store));
  NDQ_EXPECT_OK(store.maintenance_status());
}

TEST(DirectoryStoreTest, FailedFreeOfReplacedSegmentsIsReported) {
  auto fail_first_free = [] {
    return FaultInjector(
        {FaultInjector::FailNth(1, FaultOpBit(FaultOp::kFree))});
  };
  {
    // Nothing pinned: the compaction's own free fails, and it is
    // Compact()'s status.
    SimDisk disk(512);
    DirectoryStore store(&disk, Schema(), SegmentedOptions());
    NDQ_ASSERT_OK(LoadSegments(&store));
    const std::vector<std::string> records = ScanAll(store);
    FaultInjector injector = fail_first_free();
    disk.set_fault_injector(&injector);
    Status s = store.Compact();
    disk.set_fault_injector(nullptr);
    EXPECT_EQ(injector.faults_fired(), 1u);
    EXPECT_EQ(s.code(), StatusCode::kUnavailable) << s.ToString();
    NDQ_EXPECT_OK(store.maintenance_status());
    EXPECT_EQ(store.num_segments(), 1u);
    EXPECT_EQ(ScanAll(store), records);
  }
  // A snapshot held the replaced segments: the free fails at its
  // release, after Compact() returned, into maintenance_status().
  SimDisk disk(512);
  DirectoryStore store(&disk, Schema(), SegmentedOptions());
  NDQ_ASSERT_OK(LoadSegments(&store));
  const std::vector<std::string> records = ScanAll(store);
  std::shared_ptr<const EntrySource> snap = store.PinSnapshot();
  NDQ_ASSERT_OK(store.Compact());
  FaultInjector injector = fail_first_free();
  disk.set_fault_injector(&injector);
  snap.reset();
  disk.set_fault_injector(nullptr);
  EXPECT_EQ(injector.faults_fired(), 1u);
  EXPECT_EQ(store.maintenance_status().code(), StatusCode::kUnavailable)
      << store.maintenance_status().ToString();
  EXPECT_EQ(ScanAll(store), records);
}

TEST(DirectoryStoreTest, StatsRefreshOnCompaction) {
  // Churn leaves shadowed records and tombstones in the segment stack;
  // the estimates stay upper bounds throughout, and compaction resets
  // them to exact. The churn (30 dead records over 190 live entries)
  // stays under the dead-record bound, so no flush compacts on its own.
  constexpr int kBase = 200;
  SimDisk disk(512);
  DirectoryStoreOptions opt;
  opt.memtable_limit = 8;
  opt.max_segments = 16;  // keep segments around: churn must accumulate
  opt.validate = false;
  DirectoryStore store(&disk, Schema(), opt);

  for (int i = 0; i < kBase; ++i) {
    Entry e(D("uid=u" + std::to_string(i) + ", dc=com"));
    e.AddInt("x", i);
    ASSERT_TRUE(store.Put(e).ok());
  }
  ASSERT_TRUE(store.Flush().ok());
  ASSERT_TRUE(store.Compact().ok());  // one base segment, no dead records
  const uint64_t compactions = store.maintenance_counters().compactions;
  for (int i = 5; i < 20; ++i) {
    ASSERT_TRUE(store.Remove(D("uid=u" + std::to_string(i) + ", dc=com")).ok());
  }
  for (int i = 5; i < 10; ++i) {  // re-add a few: shadow the tombstones
    Entry e(D("uid=u" + std::to_string(i) + ", dc=com"));
    e.AddInt("x", 100 + i);
    ASSERT_TRUE(store.Put(e).ok());
  }
  ASSERT_TRUE(store.Flush().ok());
  ASSERT_EQ(store.maintenance_counters().compactions, compactions)
      << "the churn must stay under the dead-record bound";

  const uint64_t live = store.num_entries();
  ASSERT_EQ(live, kBase - 10u);
  const uint64_t churned = store.EstimateRangeRecords("", "");
  EXPECT_GE(churned, live) << "estimates must stay upper bounds";
  EXPECT_GT(churned, live) << "churn should have inflated the estimate";

  ASSERT_TRUE(store.Compact().ok());
  const uint64_t compacted = store.EstimateRangeRecords("", "");
  EXPECT_EQ(compacted, live)
      << "a single compacted segment with an empty memtable estimates "
         "exactly";
  EXPECT_LT(compacted, churned);
  // The rebuilt cardinality statistics are exactly the record fold of
  // the live store, so removed-for-good keys prove empty through them.
  ASSERT_NE(store.stats(), nullptr);
  StoreStats folded;
  ASSERT_TRUE(store
                  .ScanRange("", "",
                             [&](std::string_view rec) {
                               return folded.AddRecord(rec);
                             })
                  .ok());
  EXPECT_TRUE(*store.stats() == folded);
  ASSERT_TRUE(store.stats()->complete());
  for (int i = 0; i < kBase; ++i) {
    const std::string key =
        D("uid=u" + std::to_string(i) + ", dc=com").HierKey();
    if (i < 10 || i >= 20) {
      EXPECT_NE(store.stats()->Subtree(key), nullptr) << key;
    } else {
      EXPECT_EQ(store.stats()->Subtree(key), nullptr) << key;
    }
  }
}

// Segment records beyond the live entries: shadowed versions and
// tombstones. Exact while the memtables are empty; otherwise the active
// memtable's records are left out.
int64_t DeadRecords(const DirectoryStore& store) {
  const uint64_t segment_records =
      store.EstimateRangeRecords("", "") - store.memtable_size();
  return static_cast<int64_t>(segment_records) -
         static_cast<int64_t>(store.num_entries());
}

TEST(DirectoryStoreTest, ChurnCompactsAtTheDeadRecordBound) {
  // Put / remove / re-add churn over a fixed live set, with a depth cap
  // the churn never reaches: only the dead-record bound can compact, and
  // it keeps the dead records within kMaxDeadFraction of the live entries
  // plus the one memtable a flush adds at once.
  constexpr int kLive = 200;
  constexpr int kGap = 5;  // a removed entry comes back kGap cycles later
  SimDisk disk(512);
  DirectoryStoreOptions opt;
  opt.memtable_limit = 16;
  opt.max_segments = 1000;
  opt.validate = false;
  DirectoryStore store(&disk, Schema(), opt);
  auto dn = [](int i) { return D("uid=u" + std::to_string(i) + ", dc=com"); };
  auto make = [&](int i, int rev) {
    Entry e(dn(i));
    e.AddInt("x", rev);
    return e;
  };
  for (int i = 0; i < kLive; ++i) ASSERT_TRUE(store.Put(make(i, 0)).ok());
  ASSERT_TRUE(store.Flush().ok());
  ASSERT_EQ(DeadRecords(store), 0);

  int64_t max_dead = 0;
  auto check = [&] {
    const int64_t dead = DeadRecords(store);
    max_dead = std::max(max_dead, dead);
    EXPECT_LE(static_cast<double>(dead),
              DirectoryStore::kMaxDeadFraction *
                      static_cast<double>(store.num_entries()) +
                  static_cast<double>(opt.memtable_limit));
    EXPECT_LT(store.num_segments(), opt.max_segments);
  };
  // Cycle k replaces entry 7k, removes entry 7k+100 and re-adds the one
  // removed kGap cycles before (all mod kLive, never the same key within
  // a window).
  for (int k = 0; k < 1000; ++k) {
    ASSERT_TRUE(store.Put(make((k * 7) % kLive, k)).ok());
    check();
    ASSERT_TRUE(store.Remove(dn((k * 7 + 100) % kLive)).ok());
    check();
    if (k >= kGap) {
      ASSERT_TRUE(store.Add(make(((k - kGap) * 7 + 100) % kLive, k)).ok());
      check();
    }
  }
  const MaintenanceCounters c = store.maintenance_counters();
  EXPECT_GT(c.flushes, 100u);
  EXPECT_GT(c.compactions, 0u) << "the bound never fired";
  EXPECT_LT(c.compactions, c.flushes);
  // A compaction rewrites the live entries: all but the kGap + 1 at most
  // removed at the time.
  EXPECT_GE(c.records_rewritten, c.compactions * (kLive - kGap - 1));
  EXPECT_GT(max_dead, 0);
}

TEST(DirectoryStoreTest, OrderedLoadCompactsOnlyAtMaxSegments) {
  // Fresh keys in key order leave no dead records, so the bound never
  // fires: segments stack up to max_segments and compact there.
  SimDisk disk(512);
  DirectoryStoreOptions opt;
  opt.memtable_limit = 8;
  opt.max_segments = 4;
  opt.validate = false;
  DirectoryStore store(&disk, Schema(), opt);
  std::vector<size_t> depths;  // segment count after each flush
  uint64_t flushes = 0;
  for (int i = 0; i < 8 * 13; ++i) {
    char name[16];
    std::snprintf(name, sizeof(name), "u%04d", i);
    Entry e(D(std::string("uid=") + name + ", dc=com"));
    e.AddInt("x", i);
    ASSERT_TRUE(store.Add(e).ok());
    if (store.maintenance_counters().flushes > flushes) {
      flushes = store.maintenance_counters().flushes;
      depths.push_back(store.num_segments());
      EXPECT_EQ(DeadRecords(store), 0);
    }
  }
  const std::vector<size_t> want = {1, 2, 3, 1, 2, 3, 1, 2, 3, 1, 2, 3, 1};
  EXPECT_EQ(depths, want);
  EXPECT_EQ(store.maintenance_counters().compactions, 4u);
  EXPECT_EQ(store.maintenance_counters().records_rewritten,
            uint64_t{8} * (4 + 7 + 10 + 13));
}

TEST(DirectoryStoreTest, CompactFailureLeavesStoreIntact) {
  // Regression: a compaction that fails mid-merge (allocate/write/read)
  // must leave the published state untouched, free every page of the
  // half-built segment, and succeed on retry.
  for (uint64_t k = 1;; ++k) {
    SCOPED_TRACE("fail op #" + std::to_string(k));
    SimDisk disk(512);
    DirectoryStoreOptions opt;
    opt.memtable_limit = 8;
    opt.max_segments = 16;
    opt.validate = false;
    DirectoryStore store(&disk, Schema(), opt);
    std::map<std::string, std::string> golden;
    for (int i = 0; i < 24; ++i) {
      Entry e(D("uid=u" + std::to_string(i) + ", dc=com"));
      e.AddInt("x", i);
      ASSERT_TRUE(store.Put(e).ok());
      std::string rec;
      SerializeEntry(e, &rec);
      golden[e.HierKey()] = std::move(rec);
      if (i % 7 == 6) {
        ASSERT_TRUE(store.Flush().ok());
      }
    }
    ASSERT_TRUE(store.Flush().ok());
    ASSERT_GE(store.num_segments(), 2u);
    const size_t baseline = disk.live_pages();

    // No free faults: a failed Free in the post-install destroy phase
    // strands that page by design (best-effort destroy, aggregated
    // status), which is exactly what the leak assertion below must not
    // conflate with a half-built segment leak.
    FaultInjector injector({FaultInjector::FailNth(
        k, FaultOpBit(FaultOp::kRead) | FaultOpBit(FaultOp::kWrite) |
               FaultOpBit(FaultOp::kAllocate))});
    disk.set_fault_injector(&injector);
    Status s = store.Compact();
    disk.set_fault_injector(nullptr);
    const uint64_t fired = injector.faults_fired();

    auto check_content = [&] {
      auto it = golden.begin();
      Status scan = store.ScanRange(
          "", "", [&](std::string_view rec) -> Status {
            if (it == golden.end() || rec != it->second) {
              return Status::Corruption("content diverged");
            }
            ++it;
            return Status::OK();
          });
      ASSERT_TRUE(scan.ok()) << scan.ToString();
      EXPECT_TRUE(it == golden.end());
    };
    if (!s.ok()) {
      EXPECT_EQ(s.code(), StatusCode::kUnavailable) << s.ToString();
      EXPECT_GT(fired, 0u);
      check_content();
      EXPECT_EQ(disk.live_pages(), baseline)
          << "failed compaction leaked half-built segment pages";
      // Retry compacts clean.
      Status retry = store.Compact();
      ASSERT_TRUE(retry.ok()) << retry.ToString();
    }
    check_content();
    EXPECT_LE(store.num_segments(), 1u);
    if (fired == 0) break;  // swept past the last compaction I/O
  }
}

TEST(DirectoryStoreTest, MutationScriptFaultCampaign) {
  // The fail-op-#k sweep over a full mutation script: every fault either
  // surfaces as a clean Unavailable (store rebuildable, no leaked pages,
  // retry byte-identical) or is absorbed with identical results.
  SimDisk disk(512);
  auto workload = [&disk]() -> Result<std::vector<Entry>> {
    DirectoryStoreOptions opt;
    opt.memtable_limit = 4;
    opt.max_segments = 2;
    opt.validate = false;
    DirectoryStore store(&disk, Schema(), opt);
    auto script = [&]() -> Status {
      for (int i = 0; i < 10; ++i) {
        Entry e(D("uid=u" + std::to_string(i) + ", dc=com"));
        e.AddInt("x", i);
        NDQ_RETURN_IF_ERROR(store.Put(e));
      }
      NDQ_RETURN_IF_ERROR(store.Remove(D("uid=u3, dc=com")));
      NDQ_RETURN_IF_ERROR(store.Flush());
      for (int i = 4; i < 7; ++i) {
        Entry e(D("uid=u" + std::to_string(i) + ", dc=com"));
        e.AddInt("x", 100 + i);
        NDQ_RETURN_IF_ERROR(store.Put(e));
      }
      NDQ_RETURN_IF_ERROR(store.Compact());
      NDQ_RETURN_IF_ERROR(store.Remove(D("uid=u9, dc=com")));
      return Status::OK();
    };
    Status s = script();
    std::vector<Entry> out;
    if (s.ok()) {
      s = store.ScanRange("", "", [&](std::string_view rec) -> Status {
        NDQ_ASSIGN_OR_RETURN(Entry e, DeserializeEntry(rec));
        out.push_back(std::move(e));
        return Status::OK();
      });
    }
    // Tear down even after a fault: the campaign checks the live-page
    // baseline after every run.
    Status destroy = store.DestroyAll();
    NDQ_RETURN_IF_ERROR(s);
    NDQ_RETURN_IF_ERROR(destroy);
    return out;
  };
  testing::FaultCampaignReport report;
  testing::RunFaultCampaign(&disk, workload, /*after_run=*/nullptr, {},
                            &report);
  EXPECT_GT(report.clean_failures + report.absorbed_successes, 0u);
}

}  // namespace
}  // namespace ndq
