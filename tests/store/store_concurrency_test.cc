// Mixed readers and writers through the Engine front door. Built for the
// thread sanitizer: reader sessions evaluate queries while another session
// applies update batches, and every query must observe ONE consistent
// store version (the snapshot pinned at submit time) — never a torn state
// mixing two versions, and never part of an update batch. Readers of the
// store itself check that a pinned snapshot's pages outlive the
// compactions that replace its segments.

#include <atomic>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/status_matchers.h"
#include "engine/engine.h"
#include "storage/disk.h"
#include "storage/serde.h"
#include "store/directory_store.h"
#include "testing/paper_fixture.h"

namespace ndq {
namespace {

Schema TestSchema() {
  Schema schema = testing::PaperSchema();
  EXPECT_TRUE(schema.AddAttribute("rev", TypeKind::kInt).ok());
  if (!schema.HasAttribute("cn")) {
    EXPECT_TRUE(schema.AddAttribute("cn", TypeKind::kString).ok());
  }
  EXPECT_TRUE(schema.AddClass("flagObject", {"cn", "rev"}).ok());
  EXPECT_TRUE(schema.AddClass("churnObject", {"cn", "rev"}).ok());
  return schema;
}

Entry FlagEntry(int rev) {
  Entry e(testing::D("cn=flag, dc=att, dc=com"));
  e.AddClass("flagObject");
  e.AddString("cn", "flag");
  e.AddInt("rev", rev);
  return e;
}

Entry ChurnEntry(const std::string& name, const std::string& parent,
                 int rev) {
  Entry e(testing::D("cn=" + name + ", " + parent));
  e.AddClass("churnObject");
  e.AddString("cn", name);
  e.AddInt("rev", rev);
  return e;
}

Entry ChurnEntry(int i) {
  return ChurnEntry("churn" + std::to_string(i), "dc=att, dc=com", i);
}

std::vector<std::string> Records(const EntrySource& source) {
  std::vector<std::string> records;
  Status s = source.ScanRange("", "", [&](std::string_view record) {
    records.emplace_back(record);
    return Status::OK();
  });
  EXPECT_TRUE(s.ok()) << s.ToString();
  return records;
}

// Loads the paper instance into an owning-mode engine via the public
// update path.
void LoadPaper(Session& session) {
  UpdateBatch batch;
  for (const auto& [key, entry] : testing::PaperInstance()) {
    batch.Put(entry);
  }
  UpdateResult res = session.Apply(batch);
  ASSERT_TRUE(res.ok()) << res.status.ToString();
  ASSERT_EQ(res.applied, batch.size());
}

TEST(StoreConcurrencyTest, QueriesNeverObserveTornVersions) {
  // The flag entry alternates between rev=1 and rev=2. A single entry
  // can never satisfy both, so the conjunction below is empty in EVERY
  // consistent snapshot; a non-empty result means one query evaluated
  // its two operands against different store versions.
  constexpr const char* kTornDetector =
      "(& (dc=att, dc=com ? sub ? rev=1)"
      "   (dc=att, dc=com ? sub ? rev=2))";
  constexpr const char* kSubtree = "(dc=com ? sub ? objectClass=*)";

  EngineOptions options;
  options.exec.parallelism = 3;  // shared pool: maintenance + queries
  Engine engine(TestSchema(), options);
  Session loader = engine.OpenSession();
  LoadPaper(loader);
  ASSERT_TRUE(loader.Apply([] {
                UpdateBatch b;
                b.Put(FlagEntry(1));
                return b;
              }())
                  .ok());

  constexpr int kReaders = 3;
  std::atomic<bool> stop{false};
  std::atomic<int> started{0};
  std::atomic<uint64_t> queries_ok{0};

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&engine, &stop, &started, &queries_ok,
                          kTornDetector, kSubtree, r] {
      Session session = engine.OpenSession();
      int i = 0;
      bool first = true;
      while (!stop.load(std::memory_order_relaxed)) {
        const char* text = (++i + r) % 2 == 0 ? kTornDetector : kSubtree;
        QueryOutcome out = session.Run(text);
        if (!out.status.ok()) {
          ADD_FAILURE() << "query failed: " << out.status.ToString();
          return;
        }
        if (text == kTornDetector) {
          EXPECT_TRUE(out.entries.empty())
              << "torn snapshot: one query saw two store versions";
        }
        queries_ok.fetch_add(1, std::memory_order_relaxed);
        if (first) started.fetch_add(1);
        first = false;
      }
    });
  }
  // The 150 batches take a few milliseconds: writing before every reader
  // has run a query lets a descheduled reader miss all of them.
  while (started.load() < kReaders) std::this_thread::yield();

  Session writer = engine.OpenSession();
  for (int i = 0; i < 150; ++i) {
    UpdateBatch batch;
    batch.Put(FlagEntry(i % 2 == 0 ? 2 : 1));
    // Churn a small subtree so flushes/compactions fire while queries
    // are in flight.
    batch.Put(ChurnEntry(i % 8));
    if (i % 4 == 3) batch.Remove(ChurnEntry(i % 8).dn());
    UpdateResult res = writer.Apply(batch);
    EXPECT_TRUE(res.ok()) << res.status.ToString();
  }
  stop = true;
  for (std::thread& t : readers) t.join();
  EXPECT_GT(queries_ok.load(), 0u);

  // Quiesced store answers the detector with the final consistent state.
  QueryOutcome out = writer.Run(
      "(& (dc=att, dc=com ? sub ? rev=1)"
      "   (dc=att, dc=com ? sub ? rev=2))");
  NDQ_ASSERT_OK(out.status);
  EXPECT_TRUE(out.entries.empty());
}

TEST(StoreConcurrencyTest, QueriesSeeWholeBatches) {
  // The writer alternates a batch that adds four churnObject entries with
  // a batch that removes them, so every consistent snapshot holds 0 or 4
  // of them; any other count is a query that saw part of a batch.
  constexpr const char* kChurn =
      "(dc=att, dc=com ? sub ? objectClass=churnObject)";
  constexpr int kReaders = 3;

  EngineOptions options;
  options.exec.parallelism = 3;
  Engine engine(TestSchema(), options);
  Session loader = engine.OpenSession();
  LoadPaper(loader);

  std::atomic<bool> stop{false};
  std::atomic<int> started{0};
  std::atomic<uint64_t> queries_ok{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&engine, &stop, &started, &queries_ok, kChurn] {
      Session session = engine.OpenSession();
      bool first = true;
      while (!stop.load(std::memory_order_relaxed)) {
        QueryOutcome out = session.Run(kChurn);
        if (!out.status.ok()) {
          ADD_FAILURE() << "query failed: " << out.status.ToString();
          return;
        }
        const size_t n = out.entries.size();
        EXPECT_TRUE(n == 0 || n == 4)
            << "a query saw " << n << " of a batch's 4 entries";
        queries_ok.fetch_add(1, std::memory_order_relaxed);
        if (first) started.fetch_add(1);
        first = false;
      }
    });
  }
  while (started.load() < kReaders) std::this_thread::yield();

  Session writer = engine.OpenSession();
  for (int i = 0; i < 400; ++i) {
    UpdateBatch batch;
    for (int k = 0; k < 4; ++k) {
      if (i % 2 == 0) {
        batch.Add(ChurnEntry(k));
      } else {
        batch.Remove(ChurnEntry(k).dn());
      }
    }
    UpdateResult res = writer.Apply(batch);
    EXPECT_TRUE(res.ok()) << res.status.ToString();
    EXPECT_EQ(res.applied, 4u);
  }
  stop = true;
  for (std::thread& t : readers) t.join();
  EXPECT_GT(queries_ok.load(), 0u);
}

TEST(StoreConcurrencyTest, BatchPublishesOneVersion) {
  // Each op's checks read the batch's working state: the child's Add
  // sees its parent, and the parent's Remove sees the child gone.
  const std::string parent_dn = "cn=parent, dc=att, dc=com";
  UpdateBatch batch;
  batch.Add(ChurnEntry("parent", "dc=att, dc=com", 1));
  batch.Add(ChurnEntry("child", parent_dn, 1));
  batch.Put(ChurnEntry("child", parent_dn, 2));
  batch.Remove(testing::D("cn=child, " + parent_dn));
  batch.Remove(testing::D(parent_dn));

  Engine engine(TestSchema());
  Session session = engine.OpenSession();
  LoadPaper(session);
  DirectoryStore* store = engine.mutable_store();
  const uint64_t before = store->version();
  UpdateResult res = session.Apply(batch);
  EXPECT_EQ(store->version(), before + 1);
  EXPECT_EQ(res.applied, batch.size());

  // A twin engine applying the same ops one batch at a time reports the
  // same statuses and ends in the same store.
  Engine twin(TestSchema());
  Session twin_session = twin.OpenSession();
  LoadPaper(twin_session);
  ASSERT_EQ(res.op_status.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    UpdateBatch single;
    single.ops.push_back(batch.ops[i]);
    UpdateResult one = twin_session.Apply(single);
    ASSERT_EQ(one.op_status.size(), 1u);
    EXPECT_EQ(res.op_status[i].ToString(), one.op_status[0].ToString())
        << "op " << i;
  }
  EXPECT_EQ(Records(*store), Records(*twin.mutable_store()));

  // A batch whose every op fails publishes nothing.
  UpdateBatch failing;
  failing.Remove(testing::D(parent_dn));            // NotFound
  failing.Remove(testing::D("dc=att, dc=com"));     // has descendants
  failing.Add(testing::PaperInstance().begin()->second);  // AlreadyExists
  const uint64_t settled = store->version();
  UpdateResult none = session.Apply(failing);
  EXPECT_EQ(none.applied, 0u);
  EXPECT_EQ(none.op_status[0].code(), StatusCode::kNotFound);
  EXPECT_EQ(none.op_status[1].code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(none.op_status[2].code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(store->version(), settled);
}

TEST(StoreConcurrencyTest, FlushesRacingBatchesKeepEveryAcknowledgedOp) {
  // Batches race explicit flushes and compactions on a durable store.
  // Appends, seals and checkpoints reach the log from both threads, so
  // the writer lock must serialize them (the thread sanitizer checks it),
  // and the store and its recovery must hold exactly the acknowledged
  // ops.
  DirectoryStoreOptions opt;
  opt.memtable_limit = 8;
  opt.max_segments = 3;
  opt.validate = false;
  auto entry = [](int k, int rev) {
    Entry e(testing::D("cn=k" + std::to_string(k) + ", dc=test"));
    e.AddClass("testObject");
    e.AddInt("rev", rev);
    return e;
  };
  auto expect_records = [](const DirectoryStore& store,
                           const std::map<std::string, std::string>& model) {
    std::vector<std::string> want;
    for (const auto& [key, record] : model) want.push_back(record);
    EXPECT_EQ(Records(store), want);
  };

  SimDisk disk(512);
  std::map<std::string, std::string> model;  // the acknowledged ops
  {
    Result<std::unique_ptr<DirectoryStore>> created =
        DirectoryStore::CreateDurable(&disk, Schema(), opt);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    DirectoryStore& store = **created;
    std::atomic<bool> done{false};
    std::thread maintainer([&store, &done] {
      while (!done.load()) {
        NDQ_EXPECT_OK(store.Flush());
        NDQ_EXPECT_OK(store.Compact());
        std::this_thread::yield();
      }
    });
    for (int i = 0; i < 300; ++i) {
      UpdateBatch batch;
      batch.Put(entry(i % 40, i));
      batch.Put(entry((i + 7) % 40, i));
      if (i % 3 == 0) batch.Remove(entry((i + 13) % 40, 0).dn());
      UpdateResult res = store.Apply(batch);
      for (size_t k = 0; k < batch.size(); ++k) {
        if (!res.op_status[k].ok()) continue;
        const UpdateOp& op = batch.ops[k];
        if (op.kind == UpdateOp::Kind::kRemove) {
          model.erase(op.dn.HierKey());
        } else {
          std::string record;
          SerializeEntry(op.entry, &record);
          model[op.entry.HierKey()] = std::move(record);
        }
      }
    }
    done = true;
    maintainer.join();
    NDQ_EXPECT_OK(store.maintenance_status());
    expect_records(store, model);
  }
  Result<std::unique_ptr<DirectoryStore>> recovered =
      DirectoryStore::Recover(&disk, Schema(), opt);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  expect_records(**recovered, model);
}

TEST(StoreConcurrencyTest, PinnedSnapshotsOutliveCompactions) {
  // Readers pin the store and scan the snapshot twice while a writer's
  // churn flushes and compacts under them, so a reader may be the last to
  // name a replaced segment and free its pages. The writer alternately
  // adds a group of six entries at one rev and removes them, so a whole
  // version holds none of a group or all six at one rev; and the second
  // scan of a snapshot must read the bytes of the first.
  constexpr int kGroup = 6;
  constexpr int kReaders = 3;
  DirectoryStoreOptions opt;
  opt.memtable_limit = 8;
  opt.max_segments = 3;
  opt.validate = false;
  // Four groups in turn, so the memtable fills and flushes.
  auto entry = [](int batch, int k) {
    const int key = (batch / 2) % 4 * kGroup + k;
    Entry e(testing::D("cn=k" + std::to_string(key) + ", dc=test"));
    e.AddClass("testObject");
    e.AddInt("rev", batch);
    return e;
  };

  SimDisk disk(512);
  DirectoryStore store(&disk, Schema(), opt);
  std::atomic<bool> stop{false};
  std::atomic<int> started{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&store, &stop, &started] {
      bool first = true;
      while (!stop.load(std::memory_order_relaxed)) {
        std::shared_ptr<const EntrySource> snap = store.PinSnapshot();
        const std::vector<std::string> records = Records(*snap);
        std::set<int64_t> revs;
        for (const std::string& record : records) {
          Result<Entry> e = DeserializeEntry(record);
          ASSERT_TRUE(e.ok()) << e.status().ToString();
          revs.insert(e->Values("rev").at(0).AsInt());
        }
        EXPECT_TRUE(records.empty() ||
                    (records.size() == kGroup && revs.size() == 1))
            << "a scan saw " << records.size() << " entries at "
            << revs.size() << " revs";
        std::this_thread::yield();
        EXPECT_EQ(Records(*snap), records);
        if (first) started.fetch_add(1);
        first = false;
      }
    });
  }
  while (started.load() < kReaders) std::this_thread::yield();

  for (int i = 0; i < 400; ++i) {
    UpdateBatch batch;
    for (int k = 0; k < kGroup; ++k) {
      if (i % 2 == 0) {
        batch.Put(entry(i, k));
      } else {
        batch.Remove(entry(i, k).dn());
      }
    }
    UpdateResult res = store.Apply(batch);
    EXPECT_TRUE(res.ok()) << res.status.ToString();
  }
  stop = true;
  for (std::thread& t : readers) t.join();
  EXPECT_GT(store.maintenance_counters().compactions, 0u);
  NDQ_EXPECT_OK(store.maintenance_status());
  NDQ_ASSERT_OK(store.DestroyAll());
  EXPECT_EQ(disk.live_pages(), 0u);
}

TEST(StoreConcurrencyTest, ApplyReportsPerOpStatusesAndAppliedCount) {
  Engine engine(TestSchema());
  Session session = engine.OpenSession();
  LoadPaper(session);

  UpdateBatch batch;
  batch.ops.push_back(UpdateOp::Add(FlagEntry(1)));       // OK
  batch.ops.push_back(UpdateOp::Add(FlagEntry(1)));       // AlreadyExists
  batch.ops.push_back(UpdateOp::Put(FlagEntry(2)));       // OK (replace)
  batch.ops.push_back(
      UpdateOp::Remove(testing::D("cn=nope, dc=att, dc=com")));  // NotFound
  batch.ops.push_back(
      UpdateOp::Remove(FlagEntry(1).dn()));               // OK

  UpdateResult res = session.Apply(batch);
  EXPECT_FALSE(res.ok());
  EXPECT_EQ(res.applied, 3u);
  ASSERT_EQ(res.op_status.size(), 5u);
  EXPECT_TRUE(res.op_status[0].ok());
  EXPECT_EQ(res.op_status[1].code(), StatusCode::kAlreadyExists);
  EXPECT_TRUE(res.op_status[2].ok());
  EXPECT_EQ(res.op_status[3].code(), StatusCode::kNotFound);
  EXPECT_TRUE(res.op_status[4].ok());
  // The batch status is the FIRST error.
  EXPECT_EQ(res.status.code(), StatusCode::kAlreadyExists);

  // Later OK ops really landed: the flag entry is gone again.
  QueryOutcome out =
      session.Run("(dc=att, dc=com ? sub ? objectClass=flagObject)");
  NDQ_ASSERT_OK(out.status);
  EXPECT_TRUE(out.entries.empty());
}

TEST(StoreConcurrencyTest, MutationsInvalidateDerivedResults) {
  // The same query resubmitted after an update must see the new state
  // even when its operand was cached (version-stamped cache keys).
  Engine engine(TestSchema());
  Session session = engine.OpenSession();
  LoadPaper(session);
  constexpr const char* kQuery =
      "(dc=att, dc=com ? sub ? objectClass=churnObject)";

  QueryOutcome before = session.Run(kQuery);
  NDQ_ASSERT_OK(before.status);
  EXPECT_TRUE(before.entries.empty());

  UpdateBatch batch;
  batch.Put(ChurnEntry(1));
  batch.Put(ChurnEntry(2));
  UpdateResult put_res = session.Apply(batch);
  ASSERT_TRUE(put_res.ok()) << put_res.status.ToString();

  QueryOutcome after = session.Run(kQuery);
  NDQ_ASSERT_OK(after.status);
  EXPECT_EQ(after.entries.size(), 2u);

  UpdateBatch removal;
  removal.Remove(ChurnEntry(2).dn());
  ASSERT_TRUE(session.Apply(removal).ok());

  QueryOutcome final_out = session.Run(kQuery);
  NDQ_ASSERT_OK(final_out.status);
  EXPECT_EQ(final_out.entries.size(), 1u);
}

}  // namespace
}  // namespace ndq
