// OperandCache unit tests: private-copy semantics, hit/miss/eviction
// accounting, LRU order, oversize rejection, Clear, and a concurrent
// hammer that doubles as the ThreadSanitizer target for the cache's
// pin/doom lifecycle.

#include <cstddef>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "exec/operand_cache.h"
#include "exec/parallel_evaluator.h"
#include "exec/thread_pool.h"
#include "query/fingerprint.h"
#include "storage/fault_injector.h"
#include "storage/run.h"

namespace ndq {
namespace {

// Builds a list of `n` ~24-byte records tagged `tag`, so page counts are
// predictable against a small page size.
EntryList MakeList(SimDisk* disk, int n, const std::string& tag) {
  RunWriter writer(disk);
  for (int i = 0; i < n; ++i) {
    std::string record = tag + "-record-" + std::to_string(i);
    record.resize(24, '.');
    EXPECT_TRUE(writer.Add(record).ok());
  }
  Result<Run> run = writer.Finish();
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  return run.TakeValue();
}

std::vector<std::string> ReadAll(SimDisk* disk, const EntryList& list) {
  std::vector<std::string> records;
  RunReader reader(disk, list);
  std::string record;
  while (true) {
    Result<bool> more = reader.Next(&record);
    EXPECT_TRUE(more.ok()) << more.status().ToString();
    if (!more.ok() || !*more) break;
    records.push_back(record);
  }
  return records;
}

TEST(OperandCacheTest, HitReturnsPrivateIdenticalCopy) {
  SimDisk disk(256);
  OperandCache cache(&disk, /*capacity_pages=*/64);

  EntryList original = MakeList(&disk, 50, "a");
  std::vector<std::string> want = ReadAll(&disk, original);
  ASSERT_TRUE(cache.Insert("a", original).ok());
  // The cache owns a private copy: freeing the original must not disturb
  // later hits.
  ASSERT_TRUE(FreeRun(&disk, &original).ok());

  EntryList copy;
  Result<bool> hit = cache.Lookup("a", &copy);
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  ASSERT_TRUE(*hit);
  EXPECT_EQ(ReadAll(&disk, copy), want);
  ASSERT_TRUE(FreeRun(&disk, &copy).ok());

  // And the copy handed out is itself private: a second hit still works.
  EntryList copy2;
  hit = cache.Lookup("a", &copy2);
  ASSERT_TRUE(hit.ok() && *hit);
  EXPECT_EQ(ReadAll(&disk, copy2), want);
  ASSERT_TRUE(FreeRun(&disk, &copy2).ok());

  OperandCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.resident_entries, 1u);
}

TEST(OperandCacheTest, MissLeavesOutputUntouched) {
  SimDisk disk(256);
  OperandCache cache(&disk, /*capacity_pages=*/64);
  EntryList out;
  Result<bool> hit = cache.Lookup("absent", &out);
  ASSERT_TRUE(hit.ok());
  EXPECT_FALSE(*hit);
  EXPECT_TRUE(out.pages.empty());
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(OperandCacheTest, LruEvictionFollowsRecency) {
  SimDisk disk(256);
  EntryList a = MakeList(&disk, 40, "a");
  EntryList b = MakeList(&disk, 40, "b");
  EntryList c = MakeList(&disk, 40, "c");
  ASSERT_GT(a.pages.size(), 1u);
  // Room for two lists but not three.
  OperandCache cache(&disk, a.pages.size() + b.pages.size());

  ASSERT_TRUE(cache.Insert("a", a).ok());
  ASSERT_TRUE(cache.Insert("b", b).ok());
  // Touch "a" so "b" becomes least recently used.
  EntryList out;
  Result<bool> hit = cache.Lookup("a", &out);
  ASSERT_TRUE(hit.ok() && *hit);
  ASSERT_TRUE(FreeRun(&disk, &out).ok());

  ASSERT_TRUE(cache.Insert("c", c).ok());
  EXPECT_EQ(cache.stats().evictions, 1u);

  hit = cache.Lookup("b", &out);
  ASSERT_TRUE(hit.ok());
  EXPECT_FALSE(*hit) << "the least recently used entry should be gone";
  hit = cache.Lookup("a", &out);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(*hit);
  ASSERT_TRUE(FreeRun(&disk, &out).ok());
  hit = cache.Lookup("c", &out);
  ASSERT_TRUE(hit.ok());
  EXPECT_TRUE(*hit);
  ASSERT_TRUE(FreeRun(&disk, &out).ok());

  ASSERT_TRUE(FreeRun(&disk, &a).ok());
  ASSERT_TRUE(FreeRun(&disk, &b).ok());
  ASSERT_TRUE(FreeRun(&disk, &c).ok());
}

TEST(OperandCacheTest, OversizeListsAreRejected) {
  SimDisk disk(256);
  EntryList big = MakeList(&disk, 100, "big");
  OperandCache cache(&disk, /*capacity_pages=*/1);
  ASSERT_GT(big.pages.size(), 1u);

  ASSERT_TRUE(cache.Insert("big", big).ok());
  OperandCacheStats stats = cache.stats();
  EXPECT_EQ(stats.oversize_rejects, 1u);
  EXPECT_EQ(stats.insertions, 0u);
  EXPECT_EQ(stats.resident_entries, 0u);

  EntryList out;
  Result<bool> hit = cache.Lookup("big", &out);
  ASSERT_TRUE(hit.ok());
  EXPECT_FALSE(*hit);
  ASSERT_TRUE(FreeRun(&disk, &big).ok());
}

TEST(OperandCacheTest, DuplicateInsertIsANoOp) {
  SimDisk disk(256);
  EntryList a = MakeList(&disk, 30, "a");
  OperandCache cache(&disk, /*capacity_pages=*/64);
  ASSERT_TRUE(cache.Insert("a", a).ok());
  uint64_t resident = cache.stats().resident_pages;
  ASSERT_TRUE(cache.Insert("a", a).ok());
  OperandCacheStats stats = cache.stats();
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.resident_pages, resident);
  ASSERT_TRUE(FreeRun(&disk, &a).ok());
}

TEST(OperandCacheTest, ClearReleasesEveryPage) {
  SimDisk disk(256);
  size_t baseline = disk.live_pages();
  EntryList a = MakeList(&disk, 40, "a");
  EntryList b = MakeList(&disk, 40, "b");
  {
    OperandCache cache(&disk, /*capacity_pages=*/256);
    ASSERT_TRUE(cache.Insert("a", a).ok());
    ASSERT_TRUE(cache.Insert("b", b).ok());
    EXPECT_GT(disk.live_pages(),
              baseline + a.pages.size() + b.pages.size());
    cache.Clear();
    OperandCacheStats stats = cache.stats();
    EXPECT_EQ(stats.resident_entries, 0u);
    EXPECT_EQ(stats.resident_pages, 0u);
    EXPECT_EQ(disk.live_pages(),
              baseline + a.pages.size() + b.pages.size());
    // Reusable after Clear.
    ASSERT_TRUE(cache.Insert("a", a).ok());
  }
  // Destructor clears too.
  ASSERT_TRUE(FreeRun(&disk, &a).ok());
  ASSERT_TRUE(FreeRun(&disk, &b).ok());
  EXPECT_EQ(disk.live_pages(), baseline);
}

TEST(OperandCacheTest, ConcurrentHitsInsertsAndClears) {
  SimDisk disk(256);
  OperandCache cache(&disk, /*capacity_pages=*/32);

  std::vector<EntryList> lists;
  std::vector<std::vector<std::string>> contents;
  for (int i = 0; i < 6; ++i) {
    lists.push_back(MakeList(&disk, 40, "k" + std::to_string(i)));
    contents.push_back(ReadAll(&disk, lists.back()));
  }

  // Hammer the cache from several threads: lookups and inserts on
  // overlapping keys race with periodic Clear()s. Every hit must still
  // hand back an exact copy (pinned entries survive eviction).
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 60; ++round) {
        int i = (t + round) % static_cast<int>(lists.size());
        std::string key = "k" + std::to_string(i);
        EntryList out;
        Result<bool> hit = cache.Lookup(key, &out);
        ASSERT_TRUE(hit.ok()) << hit.status().ToString();
        if (*hit) {
          EXPECT_EQ(ReadAll(&disk, out), contents[static_cast<size_t>(i)]);
          ASSERT_TRUE(FreeRun(&disk, &out).ok());
        } else {
          ASSERT_TRUE(cache.Insert(key, lists[static_cast<size_t>(i)]).ok());
        }
        if (t == 0 && round % 20 == 19) cache.Clear();
      }
    });
  }
  for (std::thread& t : threads) t.join();

  OperandCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, 4u * 60u);

  cache.Clear();
  size_t list_pages = 0;
  for (EntryList& l : lists) {
    list_pages += l.pages.size();
    ASSERT_TRUE(FreeRun(&disk, &l).ok());
  }
  EXPECT_GT(list_pages, 0u);
  EXPECT_EQ(disk.live_pages(), 0u);
}

TEST(OperandCacheTest, CopyOutFaultReclassifiesHitAsMiss) {
  SimDisk disk(256);
  OperandCache cache(&disk, /*capacity_pages=*/64);
  EntryList original = MakeList(&disk, 50, "a");
  ASSERT_TRUE(cache.Insert("a", original).ok());
  ASSERT_TRUE(FreeRun(&disk, &original).ok());

  // The first read of the copy-out fails; the cache must absorb it: the
  // lookup reports a miss (never a truncated list), the poisoned entry is
  // evicted, and nothing leaks.
  EntryList out = MakeList(&disk, 1, "sentinel");
  EntryList untouched = out;
  FaultInjector fi(
      {FaultInjector::FailNth(1, FaultOpBit(FaultOp::kRead))});
  disk.set_fault_injector(&fi);
  Result<bool> hit = cache.Lookup("a", &out);
  disk.set_fault_injector(nullptr);
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  EXPECT_FALSE(*hit);
  EXPECT_EQ(out.pages, untouched.pages);  // output untouched on miss
  ASSERT_TRUE(FreeRun(&disk, &out).ok());

  OperandCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 0u);  // reclassified
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.copy_failures, 1u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.resident_entries, 0u);
  EXPECT_EQ(disk.live_pages(), 0u);

  // The key really is gone: the next lookup is an honest miss.
  Result<bool> again = cache.Lookup("a", &out);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(*again);
}

TEST(OperandCacheTest, CopyInFaultIsAbsorbedAndInsertsNothing) {
  SimDisk disk(256);
  OperandCache cache(&disk, /*capacity_pages=*/64);
  EntryList original = MakeList(&disk, 50, "a");
  size_t baseline = disk.live_pages();

  // The private copy's first allocation fails: Insert must swallow the
  // failure (caching is best-effort), insert nothing, and leak nothing.
  FaultInjector fi(
      {FaultInjector::FailNth(1, FaultOpBit(FaultOp::kAllocate))});
  disk.set_fault_injector(&fi);
  ASSERT_TRUE(cache.Insert("a", original).ok());
  disk.set_fault_injector(nullptr);

  OperandCacheStats stats = cache.stats();
  EXPECT_EQ(stats.copy_failures, 1u);
  EXPECT_EQ(stats.insertions, 0u);
  EXPECT_EQ(stats.resident_entries, 0u);
  EXPECT_EQ(disk.live_pages(), baseline);

  EntryList out;
  Result<bool> hit = cache.Lookup("a", &out);
  ASSERT_TRUE(hit.ok());
  EXPECT_FALSE(*hit);
  ASSERT_TRUE(FreeRun(&disk, &original).ok());
  EXPECT_EQ(disk.live_pages(), 0u);
}

TEST(OperandCacheTest, ConcurrentCopyOutFaultsNeverDoubleFree) {
  SimDisk disk(256);
  OperandCache cache(&disk, /*capacity_pages=*/64);
  EntryList original = MakeList(&disk, 50, "a");
  ASSERT_TRUE(cache.Insert("a", original).ok());
  ASSERT_TRUE(FreeRun(&disk, &original).ok());

  // Every copy-out fails while several threads hold pins on the same
  // entry: the first failure dooms + evicts it, the laggards must not
  // free it a second time (the eviction path empties the run so the
  // doomed-path free is a no-op). ASan/TSan are the real judges here;
  // the page ledger is the in-tree check.
  FaultInjector fi(
      {FaultInjector::FailEveryKth(1, FaultOpBit(FaultOp::kRead))});
  disk.set_fault_injector(&fi);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      EntryList out;
      Result<bool> hit = cache.Lookup("a", &out);
      ASSERT_TRUE(hit.ok()) << hit.status().ToString();
      EXPECT_FALSE(*hit);
    });
  }
  for (std::thread& t : threads) t.join();
  disk.set_fault_injector(nullptr);

  OperandCacheStats stats = cache.stats();
  EXPECT_GE(stats.copy_failures, 1u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.resident_entries, 0u);
  EXPECT_EQ(disk.live_pages(), 0u);
}

// Regression (fuzzer corpus `cache-collision`): the display label renders
// int equality and string equality on "5" identically ("x=5"), True and
// Presence(objectClass) identically ("objectClass=*"), and an
// atomic-vs-LDAP leaf pair from a rewrite identically — the typed key
// must separate all of them, while still sharing genuinely equal leaves.
// The guard promised by OperandCacheStats::copy_failures: with async
// prefetch attached, a read fault still surfaces on the COPYING thread
// (at Disk::FinishAsyncRead, consumption time), so the absorbed failure
// is counted exactly as in the synchronous case.
TEST(OperandCacheTest, OperandCacheAsyncCopyFailure) {
  SimDisk disk(256);
  disk.SetIoDepth(2);
  OperandCache cache(&disk, /*capacity_pages=*/64);
  EntryList original = MakeList(&disk, 50, "a");
  ASSERT_TRUE(cache.Insert("a", original).ok());
  ASSERT_TRUE(FreeRun(&disk, &original).ok());

  FaultInjector fi(
      {FaultInjector::FailNth(1, FaultOpBit(FaultOp::kRead))});
  disk.set_fault_injector(&fi);
  EntryList out;
  Result<bool> hit = cache.Lookup("a", &out);
  disk.set_fault_injector(nullptr);
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  EXPECT_FALSE(*hit);  // absorbed as a miss, same as synchronously
  EXPECT_EQ(fi.faults_fired(), 1u);

  OperandCacheStats stats = cache.stats();
  EXPECT_EQ(stats.copy_failures, 1u)
      << "async completion fault bypassed copy_failures accounting";
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.resident_entries, 0u);
  EXPECT_EQ(disk.live_pages(), 0u);
  disk.SetIoDepth(0);
}

TEST(OperandCacheKeyTest, DistinguishesAmbiguouslyLabeledLeaves) {
  Dn base = Dn::Parse("dc=com").TakeValue();
  QueryPtr int_eq = Query::Atomic(base, Scope::kSub,
                                  AtomicFilter::Equals("x", Value::Int(5)));
  QueryPtr str_eq = Query::Atomic(
      base, Scope::kSub, AtomicFilter::Equals("x", Value::String("5")));
  QueryPtr int_cmp = Query::Atomic(
      base, Scope::kSub,
      AtomicFilter::IntCompare("x", CompareOp::kEq, 5));
  EXPECT_NE(QueryFingerprint(*int_eq), QueryFingerprint(*str_eq));
  EXPECT_NE(QueryFingerprint(*int_cmp), QueryFingerprint(*str_eq));

  QueryPtr all = Query::Atomic(base, Scope::kSub, AtomicFilter::True());
  QueryPtr oc_presence = Query::Atomic(
      base, Scope::kSub, AtomicFilter::Presence("objectClass"));
  EXPECT_NE(QueryFingerprint(*all), QueryFingerprint(*oc_presence));

  // Scope and base are evaluation-relevant and must be in the key.
  QueryPtr one = Query::Atomic(base, Scope::kOne, AtomicFilter::True());
  EXPECT_NE(QueryFingerprint(*all), QueryFingerprint(*one));
  Dn other = Dn::Parse("dc=org").TakeValue();
  QueryPtr elsewhere =
      Query::Atomic(other, Scope::kSub, AtomicFilter::True());
  EXPECT_NE(QueryFingerprint(*all), QueryFingerprint(*elsewhere));

  // A rewritten plan may replace an atomic leaf by an LDAP leaf; the two
  // kinds never alias, whatever their filters.
  QueryPtr ldap = Query::Ldap(base, Scope::kSub,
                              LdapFilter::Atomic(AtomicFilter::True()));
  EXPECT_NE(QueryFingerprint(*all), QueryFingerprint(*ldap));

  // Structurally equal leaves DO share — that is the point of the cache.
  QueryPtr again = Query::Atomic(base, Scope::kSub,
                                 AtomicFilter::Equals("x", Value::Int(5)));
  EXPECT_EQ(QueryFingerprint(*int_eq), QueryFingerprint(*again));
}

TEST(OperandCacheTest, TypedKeysPreventStaleServingAcrossFilterTypes) {
  // Two leaves whose labels collide but whose answers differ: with the
  // old label keys, whichever ran first would be served for both.
  DirectoryInstance inst{Schema(), false};
  Entry root(Dn::Parse("dc=com").TakeValue());
  Entry str_entry(Dn::Parse("cn=s, dc=com").TakeValue());
  str_entry.AddString("x", "5");
  Entry int_entry(Dn::Parse("cn=i, dc=com").TakeValue());
  int_entry.AddInt("x", 5);
  ASSERT_TRUE(inst.Add(root).ok());
  ASSERT_TRUE(inst.Add(str_entry).ok());
  ASSERT_TRUE(inst.Add(int_entry).ok());

  SimDisk disk(1024);
  EntryStore store = EntryStore::BulkLoad(&disk, inst).TakeValue();
  OperandCache cache(&disk, /*capacity_pages=*/64);
  ParallelEvaluator eval(&disk, &store, ExecOptions{}, &cache);

  Dn base = Dn::Parse("dc=com").TakeValue();
  QueryPtr str_q = Query::Atomic(
      base, Scope::kSub, AtomicFilter::Equals("x", Value::String("5")));
  QueryPtr int_q = Query::Atomic(
      base, Scope::kSub,
      AtomicFilter::IntCompare("x", CompareOp::kEq, 5));

  Result<std::vector<Entry>> got_str = eval.EvaluateToEntries(*str_q);
  ASSERT_TRUE(got_str.ok()) << got_str.status().ToString();
  ASSERT_EQ(got_str->size(), 1u);
  EXPECT_EQ((*got_str)[0], str_entry);

  // Same label, different filter type: must MISS and recompute.
  Result<std::vector<Entry>> got_int = eval.EvaluateToEntries(*int_q);
  ASSERT_TRUE(got_int.ok()) << got_int.status().ToString();
  ASSERT_EQ(got_int->size(), 1u);
  EXPECT_EQ((*got_int)[0], int_entry);

  OperandCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.insertions, 2u);
}

}  // namespace
}  // namespace ndq
