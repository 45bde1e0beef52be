// WAL unit tests plus the crash-recovery fault campaign: for every k,
// crash the store at I/O operation #k of a mixed mutation/query script
// (covering memtable churn, a multi-op update batch, explicit flushes and
// compactions) and verify that recovery rebuilds EXACTLY the acknowledged
// mutations — on both the simulated and the real-file disk backend.

#include <unistd.h>

#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/dn.h"
#include "storage/fault_injector.h"
#include "storage/file_disk.h"
#include "storage/serde.h"
#include "store/directory_store.h"
#include "store/wal.h"

namespace ndq {
namespace {

Dn D(const std::string& text) {
  Result<Dn> dn = Dn::Parse(text);
  EXPECT_TRUE(dn.ok()) << text;
  return *dn;
}

Entry MakeEntry(const std::string& dn_text, int rev = 1) {
  Entry e(D(dn_text));
  e.AddClass("testObject");
  e.AddInt("rev", rev);
  return e;
}

// ---------------------------------------------------------------------------
// Wal unit tests
// ---------------------------------------------------------------------------

TEST(WalTest, CreateAppendRecoverRoundTrip) {
  SimDisk disk(512);
  Wal wal(&disk);
  ASSERT_TRUE(wal.Create().ok());

  ASSERT_TRUE(wal.AppendPut("a", "record-a").ok());
  ASSERT_TRUE(wal.AppendPut("b", "record-b").ok());
  ASSERT_TRUE(wal.AppendRemove("a").ok());
  ASSERT_TRUE(wal.AppendPut("c", std::string(900, 'x')).ok());  // spans pages
  EXPECT_EQ(wal.records_appended(), 4u);

  Wal::Recovered out;
  Result<std::unique_ptr<Wal>> rec = Wal::Recover(&disk, &out);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_TRUE(out.manifests.empty());
  ASSERT_EQ(out.memtable.size(), 3u);
  EXPECT_EQ(out.memtable.at("a"), "");  // tombstone
  EXPECT_EQ(out.memtable.at("b"), "record-b");
  EXPECT_EQ(out.memtable.at("c"), std::string(900, 'x'));
}

TEST(WalTest, SealCheckpointDropsTheSealedPrefix) {
  SimDisk disk(512);
  Wal wal(&disk);
  ASSERT_TRUE(wal.Create().ok());
  ASSERT_TRUE(wal.AppendPut("old", "gone-after-checkpoint").ok());
  ASSERT_TRUE(wal.Seal().ok());
  ASSERT_TRUE(wal.AppendPut("new", "survives").ok());
  const std::vector<std::string> manifests = {"manifest-bytes"};
  ASSERT_TRUE(wal.Checkpoint(manifests).ok());

  Wal::Recovered out;
  Result<std::unique_ptr<Wal>> rec = Wal::Recover(&disk, &out);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(out.manifests, manifests);
  ASSERT_EQ(out.memtable.size(), 1u);
  EXPECT_EQ(out.memtable.at("new"), "survives");
}

TEST(WalTest, RecoveredLogRefusesAppendsUntilCheckpoint) {
  SimDisk disk(512);
  {
    Wal wal(&disk);
    ASSERT_TRUE(wal.Create().ok());
    ASSERT_TRUE(wal.AppendPut("a", "ra").ok());
  }
  Wal::Recovered out;
  Result<std::unique_ptr<Wal>> rec = Wal::Recover(&disk, &out);
  ASSERT_TRUE(rec.ok());
  Wal& wal = **rec;
  EXPECT_TRUE(wal.needs_checkpoint());
  EXPECT_FALSE(wal.AppendPut("b", "rb").ok())
      << "appends before the first checkpoint would be unreachable by a "
         "second replay";
  ASSERT_TRUE(wal.Checkpoint({}).ok());
  EXPECT_FALSE(wal.needs_checkpoint());
  EXPECT_TRUE(wal.AppendPut("b", "rb").ok());
}

TEST(WalTest, FailedAppendIsRolledBackAndNeverReplays) {
  SimDisk disk(512);
  Wal wal(&disk);
  ASSERT_TRUE(wal.Create().ok());
  ASSERT_TRUE(wal.AppendPut("acked", "ra").ok());

  // Fail every write: the append must roll back cleanly.
  FaultInjector injector({FaultInjector::FailNth(1)});
  disk.set_fault_injector(&injector);
  EXPECT_FALSE(wal.AppendPut("unacked", "rb").ok());
  disk.set_fault_injector(nullptr);

  Wal::Recovered out;
  Result<std::unique_ptr<Wal>> rec = Wal::Recover(&disk, &out);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  ASSERT_EQ(out.memtable.size(), 1u);
  EXPECT_EQ(out.memtable.count("unacked"), 0u)
      << "a failed (unacknowledged) append must never replay";
  // The log remains usable: the next acknowledged record replays fine.
  ASSERT_TRUE((*rec)->Checkpoint({}).ok());
  ASSERT_TRUE((*rec)->AppendPut("after", "rc").ok());
  Wal::Recovered out2;
  ASSERT_TRUE(Wal::Recover(&disk, &out2).ok());
  EXPECT_EQ(out2.memtable.count("after"), 1u);
}

TEST(WalTest, TailFrameWithWrappingLengthIsTorn) {
  // A frame whose length varint is near 2^64 once passed the torn-frame
  // check (q + len + 4 wrapped) and the checksum then read far past the
  // stream. Recovery must treat it as torn: exactly the acknowledged put
  // replays.
  SimDisk disk(512);
  Wal wal(&disk);
  ASSERT_TRUE(wal.Create().ok());
  const std::string value(60, 'v');  // the tail frame starts past byte 63
  ASSERT_TRUE(wal.AppendPut("acked", value).ok());

  // Append the 10-byte length of a frame, 2^64 - 67, inside the used
  // bytes of the chain page that holds the record.
  std::string tail;
  ByteWriter(&tail).PutVarint(~uint64_t{0} - 66);
  ASSERT_EQ(tail.size(), 10u);
  auto get_u32 = [](const uint8_t* p) {
    return uint32_t{p[0]} | uint32_t{p[1]} << 8 | uint32_t{p[2]} << 16 |
           uint32_t{p[3]} << 24;
  };
  constexpr uint32_t kChainMagic = 0x5751444e;  // "NDQW"
  constexpr size_t kChainHeaderSize = 16;       // magic, seq, used, next
  std::vector<uint8_t> page(disk.page_size());
  bool patched = false;
  for (PageId id = 0; id < 16 && !patched; ++id) {
    if (!disk.ReadPage(id, page.data()).ok()) continue;
    uint32_t used = get_u32(page.data() + 8);
    if (get_u32(page.data()) != kChainMagic || used == 0) continue;
    ASSERT_LE(kChainHeaderSize + used + tail.size(), page.size());
    std::memcpy(page.data() + kChainHeaderSize + used, tail.data(),
                tail.size());
    used += static_cast<uint32_t>(tail.size());
    for (int b = 0; b < 4; ++b) page[8 + b] = (used >> (8 * b)) & 0xff;
    ASSERT_TRUE(disk.WritePage(id, page.data()).ok());
    patched = true;
  }
  ASSERT_TRUE(patched) << "no chain page holds the record";

  Wal::Recovered out;
  Result<std::unique_ptr<Wal>> rec = Wal::Recover(&disk, &out);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  ASSERT_EQ(out.memtable.size(), 1u);
  EXPECT_EQ(out.memtable.at("acked"), value);
}

TEST(WalTest, DestroyAllReturnsEveryPage) {
  SimDisk disk(512);
  Wal wal(&disk);
  ASSERT_TRUE(wal.Create().ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(wal.AppendPut("k" + std::to_string(i), "some record").ok());
  }
  ASSERT_TRUE(wal.Seal().ok());
  ASSERT_TRUE(wal.Checkpoint({"m1", "m2"}).ok());
  ASSERT_TRUE(wal.DestroyAll().ok());
  EXPECT_EQ(disk.live_pages(), 0u);
}

// ---------------------------------------------------------------------------
// Durable DirectoryStore round trips
// ---------------------------------------------------------------------------

DirectoryStoreOptions TinyOptions() {
  DirectoryStoreOptions opt;
  opt.memtable_limit = 4;  // force flushes mid-script
  opt.max_segments = 2;    // and compactions
  opt.validate = false;
  return opt;
}

// The mixed mutation/query script the recovery campaign crashes at every
// point of. Steps run in order until one fails (the "crash"); `model` is
// updated only for acknowledged (OK) mutations, so after every prefix it
// holds exactly the state recovery must rebuild.
std::vector<std::function<Status(DirectoryStore*,
                                 std::map<std::string, std::string>*)>>
MutationScript() {
  auto put = [](const std::string& dn, int rev) {
    return [dn, rev](DirectoryStore* store,
                     std::map<std::string, std::string>* model) -> Status {
      Entry e = MakeEntry(dn, rev);
      NDQ_RETURN_IF_ERROR(store->Put(e));
      std::string record;
      SerializeEntry(e, &record);
      (*model)[e.HierKey()] = std::move(record);
      return Status::OK();
    };
  };
  auto remove = [](const std::string& dn) {
    return [dn](DirectoryStore* store,
                std::map<std::string, std::string>* model) -> Status {
      Dn d = *Dn::Parse(dn);
      NDQ_RETURN_IF_ERROR(store->Remove(d));
      model->erase(d.HierKey());
      return Status::OK();
    };
  };
  // One DirectoryStore::Apply: "fail device op #k" lands between ops of
  // the batch, and the model takes exactly the ops whose status is OK.
  auto batch = [](UpdateBatch ops) {
    return [ops](DirectoryStore* store,
                 std::map<std::string, std::string>* model) -> Status {
      UpdateResult res = store->Apply(ops);
      for (size_t i = 0; i < ops.size(); ++i) {
        if (!res.op_status[i].ok()) continue;
        const UpdateOp& op = ops.ops[i];
        if (op.kind == UpdateOp::Kind::kRemove) {
          model->erase(op.dn.HierKey());
        } else {
          std::string record;
          SerializeEntry(op.entry, &record);
          (*model)[op.entry.HierKey()] = std::move(record);
        }
      }
      return res.status;
    };
  };
  UpdateBatch mixed;
  mixed.Put(MakeEntry("cn=a6, dc=test", 1));
  mixed.Remove(D("cn=a3, dc=test"));
  mixed.Add(MakeEntry("cn=a3, dc=test", 2));  // re-add after the remove
  mixed.Put(MakeEntry("cn=b2, ou=g, dc=test", 1));
  auto scan = [](DirectoryStore* store,
                 std::map<std::string, std::string>*) -> Status {
    return store->ScanRange("", "",
                            [](std::string_view) { return Status::OK(); });
  };
  auto get = [](const std::string& dn) {
    return [dn](DirectoryStore* store,
                std::map<std::string, std::string>*) -> Status {
      return store->Get(*Dn::Parse(dn)).status();
    };
  };

  return {
      put("dc=test", 1),
      put("cn=a1, dc=test", 1),
      put("cn=a2, dc=test", 1),
      put("cn=a3, dc=test", 1),
      put("cn=a4, dc=test", 1),  // memtable_limit 4: flush fires
      put("cn=a5, dc=test", 1),
      get("cn=a3, dc=test"),
      remove("cn=a2, dc=test"),
      put("ou=g, dc=test", 1),
      put("cn=b1, ou=g, dc=test", 1),
      batch(mixed),  // four ops past memtable_limit: flush fires once
      [](DirectoryStore* store, std::map<std::string, std::string>*) {
        return store->Flush();
      },
      put("cn=a1, dc=test", 2),  // in-place update
      scan,
      [](DirectoryStore* store, std::map<std::string, std::string>*) {
        return store->Compact();
      },
      remove("cn=a5, dc=test"),
      put("cn=c1, dc=test", 1),
      put("cn=c2, dc=test", 1),  // flush fires again
      put("cn=c3, dc=test", 1),
  };
}

// Runs the whole script fault-free and returns the expected final state.
std::map<std::string, std::string> GoldenModel() {
  SimDisk disk(512);
  std::map<std::string, std::string> model;
  Result<std::unique_ptr<DirectoryStore>> store =
      DirectoryStore::CreateDurable(&disk, Schema(), TinyOptions());
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  for (const auto& step : MutationScript()) {
    Status s = step(store->get(), &model);
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
  return model;
}

void ExpectStoreMatchesModel(
    const DirectoryStore& store,
    const std::map<std::string, std::string>& model) {
  EXPECT_EQ(store.num_entries(), model.size());
  auto it = model.begin();
  Status s = store.ScanRange(
      "", "", [&](std::string_view record) -> Status {
        if (it == model.end()) {
          return Status::Corruption("store has extra records");
        }
        if (record != it->second) {
          return Status::Corruption("record mismatch at key offset " +
                                    std::to_string(std::distance(
                                        model.begin(), it)));
        }
        ++it;
        return Status::OK();
      });
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_TRUE(it == model.end()) << "store is missing records";
}

TEST(DurableStoreTest, CleanRestartRecoversEverything) {
  SimDisk disk(512);
  std::map<std::string, std::string> model;
  {
    Result<std::unique_ptr<DirectoryStore>> store =
        DirectoryStore::CreateDurable(&disk, Schema(), TinyOptions());
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    for (const auto& step : MutationScript()) {
      ASSERT_TRUE(step(store->get(), &model).ok());
    }
  }
  Result<std::unique_ptr<DirectoryStore>> rec =
      DirectoryStore::Recover(&disk, Schema(), TinyOptions());
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  ExpectStoreMatchesModel(**rec, model);

  // The recovered store keeps working — and stays durable.
  ASSERT_TRUE((*rec)->Put(MakeEntry("cn=post, dc=test", 1)).ok());
  std::string record;
  SerializeEntry(MakeEntry("cn=post, dc=test", 1), &record);
  model[MakeEntry("cn=post, dc=test", 1).HierKey()] = record;
  Result<std::unique_ptr<DirectoryStore>> rec2 =
      DirectoryStore::Recover(&disk, Schema(), TinyOptions());
  ASSERT_TRUE(rec2.ok()) << rec2.status().ToString();
  ExpectStoreMatchesModel(**rec2, model);
  ASSERT_TRUE((*rec2)->DestroyAll().ok());
  EXPECT_EQ(disk.live_pages(), 0u);
}

// ---------------------------------------------------------------------------
// The crash-recovery campaign
// ---------------------------------------------------------------------------

// Crash at device operation #k for every k until the script's op stream is
// exhausted. After each crash, recovery (on pristine hardware) must
// rebuild exactly the acknowledged prefix. `make_disk` returns the same
// logical device on every call within one k (reopening is allowed);
// `check_leaks` additionally requires DestroyAll to return every page
// (SimDisk only — FileDisk pages live in the backing file).
void CrashRecoveryCampaign(
    const std::function<Disk*(bool fresh)>& make_disk, bool check_leaks) {
  const auto script = MutationScript();
  uint64_t crashes = 0;
  uint64_t completed = 0;
  for (uint64_t k = 1;; ++k) {
    SCOPED_TRACE("crash at op #" + std::to_string(k));
    Disk* disk = make_disk(/*fresh=*/true);
    ASSERT_NE(disk, nullptr);

    std::map<std::string, std::string> model;
    // Every op class except kFree: failing a Free inside an error-path
    // cleanup orphans the page by design (Wal::lost_pages()), which would
    // make the leak accounting below meaningless. Matches the
    // fault_campaign.h convention.
    FaultInjector injector({FaultInjector::FailNth(
        k, FaultOpBit(FaultOp::kRead) | FaultOpBit(FaultOp::kWrite) |
               FaultOpBit(FaultOp::kAllocate) | kFaultSyncOps)});
    uint64_t fired = 0;
    {
      Result<std::unique_ptr<DirectoryStore>> store =
          DirectoryStore::CreateDurable(disk, Schema(), TinyOptions());
      ASSERT_TRUE(store.ok()) << store.status().ToString();
      disk->set_fault_injector(&injector);
      for (const auto& step : script) {
        if (!step(store->get(), &model).ok()) break;  // the crash point
      }
      disk->set_fault_injector(nullptr);
      fired = injector.faults_fired();
      // The crash: the in-memory store is abandoned (its destructor
      // writes nothing); only the disk image survives.
    }

    Disk* after = make_disk(/*fresh=*/false);
    ASSERT_NE(after, nullptr);
    Result<std::unique_ptr<DirectoryStore>> rec =
        DirectoryStore::Recover(after, Schema(), TinyOptions());
    ASSERT_TRUE(rec.ok()) << rec.status().ToString();
    ExpectStoreMatchesModel(**rec, model);

    // The recovered store must accept new durable mutations.
    ASSERT_TRUE((*rec)->Put(MakeEntry("cn=post-crash, dc=test", 7)).ok());

    if (check_leaks) {
      ASSERT_TRUE((*rec)->DestroyAll().ok());
      EXPECT_EQ(after->live_pages(), 0u) << "pages leaked across recovery";
    }

    if (fired == 0) {
      ++completed;
      break;  // op stream exhausted: every crash point has been tested
    }
    ++crashes;
  }
  EXPECT_GT(crashes, 0u);
  EXPECT_EQ(completed, 1u);
  // Sanity: the fault-free golden run agrees with the campaign's model
  // bookkeeping (the last iteration ran the whole script).
  EXPECT_FALSE(GoldenModel().empty());
}

TEST(CrashRecoveryCampaignTest, SimDiskEveryCrashPointRecovers) {
  std::unique_ptr<SimDisk> disk;
  CrashRecoveryCampaign(
      [&](bool fresh) -> Disk* {
        if (fresh) disk = std::make_unique<SimDisk>(512);
        return disk.get();
      },
      /*check_leaks=*/true);
}

TEST(CrashRecoveryCampaignTest, FileDiskEveryCrashPointRecovers) {
  const char* dir = std::getenv("NDQ_FILE_DISK_DIR");
  const std::string path = std::string(dir != nullptr ? dir : "/tmp") +
                           "/ndq-walrec-" + std::to_string(::getpid()) +
                           ".pages";
  std::unique_ptr<FileDisk> disk;
  CrashRecoveryCampaign(
      [&](bool fresh) -> Disk* {
        if (fresh) {
          disk.reset();
          ::unlink(path.c_str());
          disk = std::make_unique<FileDisk>(path, 512);
        } else {
          // Reopen from the file: nothing survives but the bytes synced
          // to it, exactly like a process restart.
          disk = std::make_unique<FileDisk>(path, 512,
                                            /*open_existing=*/true);
        }
        return disk->init_status().ok() ? disk.get() : nullptr;
      },
      /*check_leaks=*/false);
  disk.reset();
  ::unlink(path.c_str());
}

}  // namespace
}  // namespace ndq
