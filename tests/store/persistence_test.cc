// Durability: a disk image + store manifest round-trips through real
// files, and a reloaded store answers queries identically.

#include <cstdio>

#include <gtest/gtest.h>

#include "exec/parallel_evaluator.h"
#include "gen/dif_gen.h"
#include "query/parser.h"
#include "store/entry_store.h"
#include "testing/paper_fixture.h"

namespace ndq {
namespace {

struct TempPath {
  std::string path;
  explicit TempPath(const char* name)
      : path(std::string(::testing::UnitTest::GetInstance()
                             ->current_test_info()
                             ->name()) +
             "_" + name + ".ndq.tmp") {}
  ~TempPath() { std::remove(path.c_str()); }
};

TEST(PersistenceTest, DiskImageRoundTrip) {
  TempPath tmp("disk");
  SimDisk disk(256);
  PageId a = *disk.Allocate();
  PageId b = *disk.Allocate();
  PageId c = *disk.Allocate();
  std::vector<uint8_t> pa(256, 0x11), pb(256, 0x22);
  ASSERT_TRUE(disk.WritePage(a, pa.data()).ok());
  ASSERT_TRUE(disk.WritePage(b, pb.data()).ok());
  ASSERT_TRUE(disk.Free(c).ok());  // freed slots survive as holes
  ASSERT_TRUE(disk.SaveToFile(tmp.path).ok());

  SimDisk reloaded(256);
  ASSERT_TRUE(reloaded.LoadFromFile(tmp.path).ok());
  EXPECT_EQ(reloaded.live_pages(), 2u);
  std::vector<uint8_t> buf(256);
  ASSERT_TRUE(reloaded.ReadPage(a, buf.data()).ok());
  EXPECT_EQ(buf[0], 0x11);
  ASSERT_TRUE(reloaded.ReadPage(b, buf.data()).ok());
  EXPECT_EQ(buf[10], 0x22);
  EXPECT_FALSE(reloaded.ReadPage(c, buf.data()).ok());  // still freed
  // The freed slot is reusable, preserving the id space.
  EXPECT_EQ(*reloaded.Allocate(), c);
}

TEST(PersistenceTest, PageSizeMismatchRejected) {
  TempPath tmp("disk");
  SimDisk disk(256);
  (void)disk.Allocate();
  ASSERT_TRUE(disk.SaveToFile(tmp.path).ok());
  SimDisk other(512);
  EXPECT_FALSE(other.LoadFromFile(tmp.path).ok());
  SimDisk missing(256);
  EXPECT_EQ(missing.LoadFromFile("no/such/file.img").code(),
            StatusCode::kNotFound);
}

TEST(PersistenceTest, StoreSurvivesReload) {
  TempPath tmp("image");
  std::string manifest;
  // Build, save, and let everything go out of scope.
  {
    DirectoryInstance inst = testing::PaperInstance();
    SimDisk disk;
    EntryStore store = EntryStore::BulkLoad(&disk, inst).TakeValue();
    manifest = store.SerializeManifest();
    ASSERT_TRUE(disk.SaveToFile(tmp.path).ok());
  }
  // Reload in a "new process".
  SimDisk disk;
  ASSERT_TRUE(disk.LoadFromFile(tmp.path).ok());
  EntryStore store = EntryStore::FromManifest(&disk, manifest).TakeValue();
  EXPECT_EQ(store.num_entries(), 23u);

  SimDisk scratch;
  ParallelEvaluator evaluator(&scratch, &store);
  QueryPtr q = ParseQuery(
                   "(dv (dc=att, dc=com ? sub ? objectClass=SLADSAction)"
                   "    (g (vd (dc=att, dc=com ? sub ? "
                   "objectClass=SLAPolicyRules)"
                   "           (& (dc=att, dc=com ? sub ? sourcePort=25)"
                   "              (dc=att, dc=com ? sub ? "
                   "objectClass=trafficProfile))"
                   "           SLATPRef)"
                   "       min(SLARulePriority)=min(min(SLARulePriority)))"
                   "    SLADSActRef)")
                   .TakeValue();
  std::vector<Entry> r = evaluator.EvaluateToEntries(*q).TakeValue();
  ASSERT_EQ(r.size(), 1u);
  EXPECT_TRUE(r[0].HasPair("DSActionName", Value::String("denyAll")));
}

TEST(PersistenceTest, CorruptManifestRejected) {
  SimDisk disk;
  DirectoryInstance inst = testing::PaperInstance();
  EntryStore store = EntryStore::BulkLoad(&disk, inst).TakeValue();
  std::string manifest = store.SerializeManifest();
  EXPECT_FALSE(EntryStore::FromManifest(&disk, "junk").ok());
  EXPECT_FALSE(
      EntryStore::FromManifest(&disk, manifest.substr(0, 10)).ok());
}

TEST(PersistenceTest, LargerStoreRoundTrip) {
  TempPath tmp("big");
  std::string manifest;
  gen::DifOptions opt;
  opt.num_orgs = 4;
  size_t expected;
  {
    DirectoryInstance inst = gen::GenerateDif(opt);
    expected = inst.size();
    SimDisk disk;
    EntryStore store = EntryStore::BulkLoad(&disk, inst).TakeValue();
    manifest = store.SerializeManifest();
    ASSERT_TRUE(disk.SaveToFile(tmp.path).ok());
  }
  SimDisk disk;
  ASSERT_TRUE(disk.LoadFromFile(tmp.path).ok());
  EntryStore store = EntryStore::FromManifest(&disk, manifest).TakeValue();
  EXPECT_EQ(store.num_entries(), expected);
  // Full scan integrity.
  size_t count = 0;
  ASSERT_TRUE(store
                  .ScanRange("", "",
                             [&](std::string_view) -> Status {
                               ++count;
                               return Status::OK();
                             })
                  .ok());
  EXPECT_EQ(count, expected);
}

}  // namespace
}  // namespace ndq
