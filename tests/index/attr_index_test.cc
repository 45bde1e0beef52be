#include "index/attr_index.h"

#include <gtest/gtest.h>

#include "exec/atomic.h"
#include "gen/dif_gen.h"
#include "storage/serde.h"
#include "testing/paper_fixture.h"

namespace ndq {
namespace {

using testing::D;

struct IndexedFixture {
  SimDisk disk{1024};
  BufferPool pool{&disk, 256};
  DirectoryInstance inst;
  EntryStore store;
  AttributeIndexes indexes;

  IndexedFixture() : inst(Schema(), false) {
    gen::DifOptions opt;
    opt.num_orgs = 2;
    opt.subdomains_per_org = 2;
    inst = gen::GenerateDif(opt);
    store = EntryStore::BulkLoad(&disk, inst).TakeValue();
    IndexSpec spec;
    spec.int_attrs = {"priority", "SLARulePriority", "sourcePort",
                      "timeOut"};
    spec.string_attrs = {"objectClass", "uid", "surName", "SourceAddress"};
    spec.dn_attrs = {"SLATPRef", "SLADSActRef"};
    indexes = AttributeIndexes::Build(&pool, store, spec).TakeValue();
  }

  // Index-assisted result (must exist) vs. scan result: identical lists.
  void ExpectMatchesScan(const Dn& base, Scope scope,
                         const std::string& filter_text) {
    AtomicFilter f = AtomicFilter::Parse(filter_text).TakeValue();
    Result<std::optional<ndq::Run>> via_index =
        indexes.EvalAtomic(&disk, store, base, scope, f);
    ASSERT_TRUE(via_index.ok()) << via_index.status().ToString();
    ASSERT_TRUE(via_index->has_value()) << filter_text << " not indexable";
    ndq::Run scan = EvalAtomic(&disk, store, base, scope, f).TakeValue();

    auto read = [&](const Run& r) {
      std::vector<std::string> keys;
      RunReader reader(&disk, r);
      std::string rec;
      while (reader.Next(&rec).ValueOrDie()) {
        keys.emplace_back(PeekEntryKey(rec).ValueOrDie());
      }
      return keys;
    };
    EXPECT_EQ(read(**via_index), read(scan)) << filter_text;
  }
};

TEST(AttrIndexTest, IntComparisonsMatchScan) {
  IndexedFixture f;
  Dn root = D("dc=com");
  for (const char* filter :
       {"priority=1", "priority<2", "priority<=2", "priority>1",
        "priority>=3", "priority!=2", "sourcePort=25", "timeOut>=30"}) {
    f.ExpectMatchesScan(root, Scope::kSub, filter);
  }
}

TEST(AttrIndexTest, StringEqualityAndPresenceMatchScan) {
  IndexedFixture f;
  Dn root = D("dc=com");
  for (const char* filter :
       {"objectClass=QHP", "objectClass=SLAPolicyRules", "uid=user3",
        "uid=*", "SLATPRef=*", "surName=*"}) {
    f.ExpectMatchesScan(root, Scope::kSub, filter);
  }
}

TEST(AttrIndexTest, SubstringMatchesScan) {
  IndexedFixture f;
  Dn root = D("dc=com");
  for (const char* filter :
       {"SourceAddress=20*", "SourceAddress=*.*.*", "uid=*ser1*",
        "objectClass=*Policy*"}) {
    f.ExpectMatchesScan(root, Scope::kSub, filter);
  }
}

TEST(AttrIndexTest, ScopesRestrictIndexResults) {
  IndexedFixture f;
  Dn dom = D("dc=sub0, dc=org0, dc=com");
  f.ExpectMatchesScan(dom, Scope::kSub, "objectClass=QHP");
  f.ExpectMatchesScan(dom, Scope::kOne, "objectClass=organizationalUnit");
  f.ExpectMatchesScan(D("ou=userProfiles, dc=sub0, dc=org0, dc=com"),
                      Scope::kOne, "uid=*");
  f.ExpectMatchesScan(dom, Scope::kBase, "objectClass=dcObject");
}

TEST(AttrIndexTest, DnReferenceEquality) {
  IndexedFixture f;
  // Pick a policy's actual SLATPRef value and look it up via the dn tree.
  const Entry* policy = nullptr;
  for (const auto& [key, entry] : f.inst) {
    (void)key;
    if (entry.HasAttribute("SLATPRef")) {
      policy = &entry;
      break;
    }
  }
  ASSERT_NE(policy, nullptr);
  std::string target = policy->Values("SLATPRef").at(0).AsString();
  AtomicFilter filter =
      AtomicFilter::Equals("SLATPRef", Value::String(target));
  Result<std::optional<ndq::Run>> r =
      f.indexes.EvalAtomic(&f.disk, f.store, D("dc=com"), Scope::kSub,
                           filter);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r->has_value());
  EXPECT_GE((*r)->num_records, 1u);
}

TEST(AttrIndexTest, UnindexedAttributeFallsBack) {
  IndexedFixture f;
  AtomicFilter filter = AtomicFilter::Parse("commonName=*user*").TakeValue();
  Result<std::optional<ndq::Run>> r =
      f.indexes.EvalAtomic(&f.disk, f.store, D("dc=com"), Scope::kSub,
                           filter);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r->has_value());  // caller must fall back to a scan
}

TEST(AttrIndexTest, SelectiveLookupReadsFewerPagesThanScan) {
  IndexedFixture f;
  Dn root = D("dc=com");
  AtomicFilter filter = AtomicFilter::Parse("uid=user7").TakeValue();

  f.disk.ResetStats();
  ndq::Run scan = EvalAtomic(&f.disk, f.store, root, Scope::kSub, filter)
                 .TakeValue();
  uint64_t scan_reads = f.disk.stats().page_reads;

  f.disk.ResetStats();
  Result<std::optional<ndq::Run>> via =
      f.indexes.EvalAtomic(&f.disk, f.store, root, Scope::kSub, filter);
  ASSERT_TRUE(via.ok() && via->has_value());
  uint64_t index_reads = f.disk.stats().page_reads;
  EXPECT_EQ((*via)->num_records, scan.num_records);
  EXPECT_LT(index_reads, scan_reads);
}

}  // namespace
}  // namespace ndq
