#include "index/attr_index.h"

#include <gtest/gtest.h>

#include <climits>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/schema.h"
#include "exec/atomic.h"
#include "exec/common.h"
#include "gen/dif_gen.h"
#include "gen/random_forest.h"
#include "storage/serde.h"
#include "testing/fault_campaign.h"
#include "testing/paper_fixture.h"

namespace ndq {
namespace {

using testing::D;

// The records of `run`, bytes as written.
std::vector<std::string> Records(Disk* disk, const Run& run) {
  std::vector<std::string> records;
  RunReader reader(disk, run);
  std::string rec;
  while (reader.Next(&rec).ValueOrDie()) records.push_back(rec);
  return records;
}

// Every attribute name that occurs in `inst`.
std::vector<std::string> AllAttributes(const DirectoryInstance& inst) {
  std::set<std::string> names;
  for (const auto& [key, entry] : inst) {
    (void)key;
    for (const AttributeView& a : entry.view()) names.emplace(a.name);
  }
  return std::vector<std::string>(names.begin(), names.end());
}

// Probes "(base ? scope ? filter)" and scans it: the probe must answer,
// with the scan's records byte for byte. Frees both outputs.
void ExpectProbeMatchesScan(Disk* disk, const EntryStore& store,
                            const AttributeIndexes& indexes, const Dn& base,
                            Scope scope, const AtomicFilter& filter) {
  SCOPED_TRACE(base.ToString() + " ? " + ScopeToString(scope) + " ? " +
               filter.ToString());
  Result<std::optional<Run>> probed =
      indexes.EvalAtomic(disk, store, base, scope, filter);
  ASSERT_TRUE(probed.ok()) << probed.status().ToString();
  ASSERT_TRUE(probed->has_value()) << "not answered from the index";
  Run scan = EvalAtomic(disk, store, base, scope, filter).TakeValue();
  EXPECT_EQ(Records(disk, **probed), Records(disk, scan));
  EXPECT_TRUE(FreeRun(disk, &**probed).ok());
  EXPECT_TRUE(FreeRun(disk, &scan).ok());
}

struct IndexedFixture {
  SimDisk disk{1024};
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
    spec.attributes = {"priority",    "SLARulePriority", "sourcePort",
                       "timeOut",     "objectClass",     "uid",
                       "surName",     "SourceAddress",   "SLATPRef",
                       "SLADSActRef"};
    indexes = AttributeIndexes::Build(&disk, store, spec).TakeValue();
  }

  void ExpectMatchesScan(const Dn& base, Scope scope,
                         const std::string& filter_text) {
    ExpectProbeMatchesScan(&disk, store, indexes, base, scope,
                           AtomicFilter::Parse(filter_text).TakeValue());
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
        "objectClass=*Policy*", "SLATPRef=*org0*"}) {
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
  // Pick a policy's actual SLATPRef value and look it up by equality.
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

  // The index run's pages are read like any segment's and count.
  f.disk.ResetStats();
  Result<std::optional<ndq::Run>> via =
      f.indexes.EvalAtomic(&f.disk, f.store, root, Scope::kSub, filter);
  ASSERT_TRUE(via.ok() && via->has_value());
  uint64_t index_reads = f.disk.stats().page_reads;
  EXPECT_EQ((*via)->num_records, scan.num_records);
  EXPECT_GT(index_reads, 0u);
  EXPECT_LT(index_reads, scan_reads);
}

TEST(AttrIndexTest, ProbeReadsNoMoreStorePagesThanTheScan) {
  // E12's store, index and filters, with the index run on a disk of its
  // own, so the store's disk counts the probe's reads of store pages
  // alone. The probe reads a store page at most once, and only if it
  // holds a candidate, so it reads no more of them than the scan does.
  gen::DifOptions opt;
  opt.num_orgs = 16;
  DirectoryInstance inst = gen::GenerateDif(opt);
  SimDisk disk;
  EntryStore store = EntryStore::BulkLoad(&disk, inst).TakeValue();
  SimDisk index_disk;
  IndexSpec spec;
  spec.attributes = {"priority", "SLARulePriority", "sourcePort",
                     "objectClass", "uid", "SourceAddress", "CANumber",
                     "SLATPRef"};
  AttributeIndexes indexes =
      AttributeIndexes::Build(&index_disk, store, spec).TakeValue();
  SimDisk scratch;
  const Dn root = D("dc=com");
  for (const char* text :
       {"CANumber=9731000005", "uid=user7", "sourcePort=25",
        "SLARulePriority<=1", "priority>=3", "SourceAddress=204.*",
        "objectClass=SLADSAction", "objectClass=QHP"}) {
    SCOPED_TRACE(text);
    const AtomicFilter filter = AtomicFilter::Parse(text).TakeValue();
    disk.ResetStats();
    ndq::Run scan =
        EvalAtomic(&scratch, store, root, Scope::kSub, filter).TakeValue();
    const uint64_t scan_reads = disk.stats().page_reads;
    disk.ResetStats();
    index_disk.ResetStats();
    Result<std::optional<ndq::Run>> probed =
        indexes.EvalAtomic(&scratch, store, root, Scope::kSub, filter);
    ASSERT_TRUE(probed.ok()) << probed.status().ToString();
    ASSERT_TRUE(probed->has_value());
    EXPECT_LE(disk.stats().page_reads, scan_reads);
    EXPECT_EQ(Records(&scratch, **probed), Records(&scratch, scan));
    EXPECT_TRUE(FreeRun(&scratch, &**probed).ok());
    EXPECT_TRUE(FreeRun(&scratch, &scan).ok());
  }
}

// Filters of every kind over every attribute of `inst`, built from the
// values the instance holds and their neighbours: presence, the six int
// comparisons, int equality (int-spelled strings included), string
// equality, DN equality and substring.
std::vector<AtomicFilter> FiltersOver(const DirectoryInstance& inst) {
  struct Seen {
    std::set<int64_t> ints;
    std::set<std::string> strings;
    std::set<std::string> dns;
  };
  std::map<std::string, Seen> seen;
  for (const auto& [key, entry] : inst) {
    (void)key;
    for (const AttributeView& a : entry.view()) {
      Seen& s = seen[std::string(a.name)];
      for (ValueView v : a.values) {
        if (v.is_int()) {
          s.ints.insert(v.AsInt());
        } else if (v.is_string()) {
          s.strings.emplace(v.AsString());
        } else {
          s.dns.emplace(v.AsString());
        }
      }
    }
  }
  // At most `cap` values of a set, spread over it.
  auto sample = [](const auto& set, size_t cap) {
    std::vector<typename std::decay_t<decltype(set)>::value_type> all(
        set.begin(), set.end());
    if (all.size() <= cap) return all;
    decltype(all) out;
    for (size_t i = 0; i < cap; ++i) {
      out.push_back(all[i * (all.size() - 1) / (cap - 1)]);
    }
    return out;
  };
  constexpr CompareOp kOps[] = {CompareOp::kEq, CompareOp::kNe,
                                CompareOp::kLt, CompareOp::kLe,
                                CompareOp::kGt, CompareOp::kGe};
  std::vector<AtomicFilter> filters;
  for (const auto& [attr, s] : seen) {
    filters.push_back(AtomicFilter::Presence(attr));
    std::vector<int64_t> ints = sample(s.ints, 4);
    ints.push_back(INT64_MIN);
    ints.push_back(INT64_MAX);
    for (int64_t v : sample(s.ints, 4)) {
      if (v < INT64_MAX) ints.push_back(v + 1);
    }
    for (int64_t v : ints) {
      for (CompareOp op : kOps) {
        filters.push_back(AtomicFilter::IntCompare(attr, op, v));
      }
      filters.push_back(AtomicFilter::Equals(attr, Value::Int(v)));
    }
    std::vector<std::string> texts = sample(s.strings, 4);
    for (const std::string& dn : sample(s.dns, 4)) texts.push_back(dn);
    for (const std::string& t : texts) {
      Result<Value> as_int = ParseValueAs(TypeKind::kInt, t);
      if (as_int.ok()) {
        filters.push_back(AtomicFilter::Equals(attr, as_int.TakeValue()));
      }
      filters.push_back(AtomicFilter::Equals(attr, Value::String(t)));
      filters.push_back(AtomicFilter::Equals(attr, Value::DnRef(t)));
      if (t.empty() || t.find('*') != std::string::npos) continue;
      const size_t half = t.size() / 2;
      const std::string star = "*";
      filters.push_back(AtomicFilter::Substring(attr, t.substr(0, half) + star));
      filters.push_back(AtomicFilter::Substring(attr, star + t.substr(half)));
      filters.push_back(AtomicFilter::Substring(
          attr, star + t.substr(half / 2, half + 1) + star));
    }
    filters.push_back(
        AtomicFilter::Equals(attr, Value::String("no such value")));
    filters.push_back(AtomicFilter::Substring(attr, "*no such value*"));
  }
  return filters;
}

// Indexes every attribute of `inst` and checks every filter of FiltersOver
// against the scan: over the whole forest, and at each root's children.
void ExpectEveryFilterMatchesScan(const DirectoryInstance& inst) {
  SimDisk disk(1024);
  EntryStore store = EntryStore::BulkLoad(&disk, inst).TakeValue();
  IndexSpec spec;
  spec.attributes = AllAttributes(inst);
  AttributeIndexes indexes =
      AttributeIndexes::Build(&disk, store, spec).TakeValue();
  std::vector<Dn> roots;
  for (const auto& [key, entry] : inst) {
    (void)key;
    if (entry.dn().depth() == 1) roots.push_back(entry.dn());
  }
  ASSERT_FALSE(roots.empty());
  const size_t live = disk.live_pages();
  for (const AtomicFilter& filter : FiltersOver(inst)) {
    ExpectProbeMatchesScan(&disk, store, indexes, Dn(), Scope::kSub,
                           filter);
    for (const Dn& root : roots) {
      ExpectProbeMatchesScan(&disk, store, indexes, root, Scope::kOne,
                             filter);
    }
    if (::testing::Test::HasFailure()) break;
  }
  EXPECT_EQ(disk.live_pages(), live);
}

TEST(AttrIndexTest, EveryFilterKindMatchesScanOnTheDif) {
  gen::DifOptions opt;
  opt.num_orgs = 2;
  opt.subdomains_per_org = 2;
  ExpectEveryFilterMatchesScan(gen::GenerateDif(opt));
}

TEST(AttrIndexTest, EveryFilterKindMatchesScanOnAdversarialForest) {
  gen::RandomForestOptions opt;
  opt.seed = 7;
  opt.num_entries = 120;
  opt.weird_rdn_probability = 0.5;
  opt.extreme_int_probability = 0.3;
  ExpectEveryFilterMatchesScan(gen::RandomForest(opt));
}

// Values at the edges of each encoding: NUL and 0xFF bytes, empty strings,
// the int extremes, int-spelled strings, and a string and a DN value with
// the same bytes on one entry.
TEST(AttrIndexTest, EdgeValuesMatchScan) {
  const std::string nul("\0", 1);
  DirectoryInstance inst(Schema(), false);
  Entry root(D("dc=com"));
  root.AddClass("dcObject");
  ASSERT_TRUE(inst.Add(root).ok());
  Entry a(D("cn=a, dc=com"));
  a.AddInt("v", INT64_MIN);
  a.AddInt("v", INT64_MAX);
  a.AddString("v", "");
  a.AddString("v", nul);
  a.AddString("v", "a" + nul + "b");
  a.AddString("v", "\xff");
  a.AddString("w", "same");
  a.AddValue("w", ValueView::Str(TypeKind::kDn, "same"));
  ASSERT_TRUE(inst.Add(a).ok());
  Entry b(D("cn=b, dc=com"));
  b.AddInt("v", 0);
  b.AddInt("v", -1);
  b.AddString("v", nul + nul);
  b.AddString("v", "a");
  b.AddString("v", "\xff\xff");
  b.AddString("v", "7");
  b.AddValue("w", ValueView::Str(TypeKind::kDn, "\xff"));
  ASSERT_TRUE(inst.Add(b).ok());
  Entry c(D("cn=c, dc=com"));
  c.AddString("v", "");
  c.AddInt("v", 7);
  c.AddValue("w", ValueView::Str(TypeKind::kDn, "same"));
  ASSERT_TRUE(inst.Add(c).ok());

  SimDisk disk(256);
  EntryStore store = EntryStore::BulkLoad(&disk, inst).TakeValue();
  IndexSpec spec;
  spec.attributes = {"v", "w"};
  AttributeIndexes indexes =
      AttributeIndexes::Build(&disk, store, spec).TakeValue();
  // One record per (attribute, value bytes, kind, entry), with strings
  // and DNs one kind: a's "same" pair is one record.
  EXPECT_EQ(indexes.run().num_entries(), 6u + 1u + 6u + 1u + 2u + 1u);

  std::vector<AtomicFilter> filters = {AtomicFilter::Presence("v"),
                                       AtomicFilter::Presence("w")};
  for (int64_t v : {INT64_MIN, INT64_MIN + 1, int64_t{-1}, int64_t{0},
                    int64_t{7}, INT64_MAX - 1, INT64_MAX}) {
    for (CompareOp op : {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                         CompareOp::kLe, CompareOp::kGt, CompareOp::kGe}) {
      filters.push_back(AtomicFilter::IntCompare("v", op, v));
    }
    filters.push_back(AtomicFilter::Equals("v", Value::Int(v)));
  }
  for (const std::string& s :
       {std::string(), nul, nul + nul, "a" + nul + "b", std::string("a"),
        std::string("\xff"), std::string("\xff\xff"), std::string("7"),
        std::string("same")}) {
    for (const char* attr : {"v", "w"}) {
      filters.push_back(AtomicFilter::Equals(attr, Value::String(s)));
      filters.push_back(AtomicFilter::Equals(attr, Value::DnRef(s)));
      filters.push_back(AtomicFilter::Substring(attr, "*" + s + "*"));
      filters.push_back(AtomicFilter::Substring(attr, s + "*"));
    }
  }
  for (const AtomicFilter& filter : filters) {
    ExpectProbeMatchesScan(&disk, store, indexes, D("dc=com"), Scope::kSub,
                           filter);
  }
}

// Fail-op-#k over one probe: the index-run reads and the candidates'
// point reads on the store's disk, the output's allocations and writes on
// the other. Every k must come back as a Status with no page left behind
// on either disk, and the fault-free retry must match the golden result.
TEST(AttrIndexTest, ProbeFaultSweepReturnsStatusAndLeaksNothing) {
  gen::DifOptions opt;
  opt.num_orgs = 2;
  DirectoryInstance inst = gen::GenerateDif(opt);
  SimDisk data(1024);
  SimDisk out(1024);
  EntryStore store = EntryStore::BulkLoad(&data, inst).TakeValue();
  IndexSpec spec;
  spec.attributes = {"uid"};
  AttributeIndexes indexes =
      AttributeIndexes::Build(&data, store, spec).TakeValue();
  const AtomicFilter filter = AtomicFilter::Parse("uid=user3").TakeValue();
  const Dn root = D("dc=com");

  auto probe = [&]() -> Result<std::vector<Entry>> {
    NDQ_ASSIGN_OR_RETURN(
        std::optional<ndq::Run> probed,
        indexes.EvalAtomic(&out, store, root, Scope::kSub, filter));
    if (!probed.has_value()) return Status::Internal("uid is not indexed");
    Result<std::vector<Entry>> entries = ReadEntryList(&out, *probed);
    Status freed = FreeRun(&out, &*probed);
    NDQ_RETURN_IF_ERROR(entries.status());
    NDQ_RETURN_IF_ERROR(freed);
    return entries;
  };
  Result<std::vector<Entry>> golden = probe();
  ASSERT_TRUE(golden.ok()) << golden.status().ToString();
  ASSERT_FALSE(golden->empty());

  testing::FaultCampaignReport report;
  testing::RunFaultCampaign({&data, &out}, probe, /*after_run=*/nullptr, {},
                            &report);
  // Reads on the store's disk, then the output's allocations and writes:
  // every k but the last fails the probe.
  EXPECT_GT(report.clean_failures, 3u);
  EXPECT_EQ(report.clean_failures + 1, report.ks_tested);
}

}  // namespace
}  // namespace ndq
