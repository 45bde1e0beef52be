// Page synopses (store/page_synopsis.h) and the scans that skip by them:
// admission never drops a match (brute force over every page and filter
// of random stores), a skipping scan lists exactly what a segment
// without synopses lists, reads exactly the admitted pages once each
// (prefetching no page it does not read), replicas scan alike, and a
// failed operation anywhere in a skipping scan is a Status that leaves no
// page allocated.

#include <algorithm>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exec/atomic.h"
#include "gen/dif_gen.h"
#include "storage/serde.h"
#include "store/entry_store.h"
#include "testing/fault_campaign.h"
#include "testing/paper_fixture.h"
#include "testing/scan_pages.h"

namespace ndq {
namespace {

using testing::D;

constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
constexpr int64_t kMax = std::numeric_limits<int64_t>::max();

// Values drawn for the random stores: ints at the edges and around 0;
// strings that share their first 8 bytes and differ after, shorter ones
// that are their prefixes, the decimal spellings of some ints, and the
// bytes of a DN that some entries also carry as a DN value.
const int64_t kInts[] = {kMin, kMin + 1, -1000, -5, -1, 0, 1, 5, 42,
                         1000, kMax - 1, kMax};
const char* const kStrings[] = {"prefix00",  "prefix00A", "prefix00B",
                                "prefix00AB", "prefix0",  "prefix01",
                                "ab",        "abc",       "",
                                "5",         "-5",        "42",
                                "9223372036854775807", "dc=ref, dc=t"};

DirectoryInstance RandomStore(uint32_t seed, size_t n) {
  std::mt19937 rng(seed);
  auto pick = [&](size_t k) { return static_cast<size_t>(rng() % k); };
  DirectoryInstance inst(Schema(), /*validate=*/false);
  const Dn root = D("dc=t");
  const Dn ref = D("dc=ref, dc=t");
  {
    Entry e(root);
    e.AddClass("top");
    (void)inst.Add(std::move(e));
  }
  for (size_t i = 0; i < n; ++i) {
    Entry e(root.Child(Rdn::Single("cn", "e" + std::to_string(i)).TakeValue()));
    e.AddClass(pick(3) == 0 ? "odd" : "even");
    // Multi-valued ints.
    if (pick(3) != 0) {
      for (size_t k = 0, m = 1 + pick(3); k < m; ++k) {
        e.AddInt("a", kInts[pick(std::size(kInts))]);
      }
    }
    // Multi-valued strings.
    if (pick(2) == 0) {
      for (size_t k = 0, m = 1 + pick(3); k < m; ++k) {
        e.AddString("s", kStrings[pick(std::size(kStrings))]);
      }
    }
    // One attribute with an int and its string spelling.
    if (pick(3) == 0) {
      const int64_t v = kInts[pick(std::size(kInts))];
      e.AddInt("m", v);
      if (pick(2) == 0) e.AddString("m", std::to_string(v));
    }
    // A DN value and a string with the same bytes.
    if (pick(4) == 0) {
      if (pick(2) == 0) {
        e.AddDnRef("d", ref);
      } else {
        e.AddString("d", ref.ToString());
      }
    }
    // Now and then a value longer than a page: its record spans pages,
    // some of which no record starts in.
    if (pick(12) == 0) {
      e.AddString("big", std::string(200 + pick(600), 'x'));
    }
    (void)inst.Add(std::move(e));
  }
  return inst;
}

// Every filter kind and operator over the random stores' attributes,
// plus nested LDAP filters.
struct FilterSet {
  std::vector<AtomicFilter> atomic;
  std::vector<LdapFilterPtr> ldap;
};

FilterSet AllFilters() {
  FilterSet set;
  set.atomic.push_back(AtomicFilter::True());
  for (const char* attr : {"a", "s", "m", "d", "big", "absent"}) {
    set.atomic.push_back(AtomicFilter::Presence(attr));
  }
  const CompareOp ops[] = {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                           CompareOp::kLe, CompareOp::kGt, CompareOp::kGe};
  for (const char* attr : {"a", "m", "s"}) {
    for (CompareOp op : ops) {
      for (int64_t v : {kMin, kMin + 1, int64_t{-6}, int64_t{-5}, int64_t{0},
                        int64_t{5}, int64_t{6}, kMax - 1, kMax}) {
        set.atomic.push_back(AtomicFilter::IntCompare(attr, op, v));
      }
    }
  }
  for (const char* attr : {"a", "s", "m", "d"}) {
    for (int64_t v : {kMin, int64_t{-5}, int64_t{0}, int64_t{5},
                      int64_t{42}, int64_t{7}, kMax}) {
      set.atomic.push_back(AtomicFilter::Equals(attr, Value::Int(v)));
    }
    for (const char* s : kStrings) {
      set.atomic.push_back(AtomicFilter::Equals(attr, Value::String(s)));
    }
    for (const char* s : {"prefix00C", "prefix00AC", "zzz", "prefix"}) {
      set.atomic.push_back(AtomicFilter::Equals(attr, Value::String(s)));
    }
    set.atomic.push_back(
        AtomicFilter::Equals(attr, Value::DnRef("dc=ref, dc=t")));
    for (const char* pattern :
         {"prefix00*", "prefix00A*", "prefix00AB*", "prefix00C*",
          "prefix0*", "pre*", "p*x*", "*", "**", "*00A", "*x*", "ab*c",
          "dc=ref*", "9*", "zz*", "*zz"}) {
      set.atomic.push_back(AtomicFilter::Substring(attr, pattern));
    }
  }
  for (const char* text :
       {"(&(a>=0)(s=prefix00A))", "(|(a<-5)(m=5))", "(!(a=5))",
        "(&(|(s=ab*)(d=dc=ref, dc=t))(!(m=*)))", "(&(a=*)(big=*))",
        "(|(absent=1)(s=zzz))", "(&(s=prefix00B)(|(a=42)(a=-5)))",
        "(&(objectClass=odd)(a<=-1000))"}) {
    set.ldap.push_back(LdapFilter::Parse(text).TakeValue());
  }
  return set;
}

// The records of `store`, in order, and each one's start page.
struct Records {
  std::vector<std::string> records;
  std::vector<size_t> page;
};

Records ReadRecords(const EntryStore& store) {
  Records out;
  EXPECT_TRUE(store
                  .ScanRange("", "",
                             [&](std::string_view record) -> Status {
                               out.records.emplace_back(record);
                               return Status::OK();
                             })
                  .ok());
  // A page's records run from its first restart to the next page's.
  const Run& run = store.run();
  const uint64_t page_size = store.disk()->page_size();
  out.page.resize(out.records.size());
  size_t page = 0;
  size_t r = 0;
  for (const RunRestart& restart : run.restarts) {
    for (; r < restart.record; ++r) out.page[r] = page;
    page = restart.offset / page_size;
  }
  for (; r < out.records.size(); ++r) out.page[r] = page;
  return out;
}

TEST(PageSynopsisTest, AdmissionNeverDropsAMatch) {
  const FilterSet filters = AllFilters();
  uint64_t checks = 0, rejected = 0;
  size_t no_start_pages = 0, spanning = 0;
  for (uint32_t seed : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const DirectoryInstance inst = RandomStore(seed, 400);
    SimDisk disk(256);
    const EntryStore store = EntryStore::BulkLoad(&disk, inst).TakeValue();
    ASSERT_NE(store.synopses(), nullptr);
    ASSERT_EQ(store.synopses()->num_pages(), store.num_pages());
    const Records recs = ReadRecords(store);
    ASSERT_EQ(recs.records.size(), inst.size());
    std::vector<bool> starts(store.num_pages(), false);
    for (size_t p : recs.page) starts[p] = true;
    for (size_t p = 0; p < starts.size(); ++p) no_start_pages += !starts[p];
    for (size_t r = 0; r + 1 < recs.page.size(); ++r) {
      spanning += recs.page[r + 1] > recs.page[r] + 1;
    }
    std::vector<Entry> entries;
    for (const std::string& rec : recs.records) {
      entries.push_back(DeserializeEntry(rec).TakeValue());
    }
    auto check = [&](const ScanFilter& filter, auto matches,
                     const std::string& text) {
      const PageSynopses::Probe probe(store.synopses(), {&filter, 1});
      std::vector<bool> match(store.num_pages(), false);
      for (size_t r = 0; r < entries.size(); ++r) {
        if (matches(entries[r])) match[recs.page[r]] = true;
      }
      for (size_t p = 0; p < starts.size(); ++p) {
        if (!starts[p]) continue;
        ++checks;
        const bool admitted = probe.MayMatch(p);
        rejected += !admitted;
        if (match[p]) {
          EXPECT_TRUE(admitted) << text << " page " << p;
        }
      }
    };
    for (const AtomicFilter& f : filters.atomic) {
      check(ScanFilter{&f, nullptr},
            [&](const Entry& e) { return f.Matches(e); }, f.ToString());
    }
    for (const LdapFilterPtr& f : filters.ldap) {
      check(ScanFilter{nullptr, f.get()},
            [&](const Entry& e) { return f->Matches(e); }, f->ToString());
    }
  }
  // The stores hold what the rules must survive, and the synopses do
  // rule pages out.
  EXPECT_GT(no_start_pages, 0u);
  EXPECT_GT(spanning, 0u);
  EXPECT_GT(rejected, checks / 4);
}

TEST(PageSynopsisTest, ProbeWithoutSynopsesOrFiltersAdmitsEveryPage) {
  const AtomicFilter absent = AtomicFilter::Presence("absent");
  const ScanFilter filter{&absent, nullptr};
  const PageSynopses::Probe none(nullptr, {&filter, 1});
  EXPECT_FALSE(none.selective());
  EXPECT_TRUE(none.MayMatch(0));
  const DirectoryInstance inst = RandomStore(7, 50);
  SimDisk disk(256);
  const EntryStore store = EntryStore::BulkLoad(&disk, inst).TakeValue();
  const PageSynopses::Probe all(store.synopses(), {});
  EXPECT_FALSE(all.selective());
  // objectClass=* admits every page, so the probe reads like a plain one.
  const AtomicFilter true_filter = AtomicFilter::True();
  const ScanFilter both[] = {{&absent, nullptr}, {&true_filter, nullptr}};
  EXPECT_FALSE(PageSynopses::Probe(store.synopses(), both).selective());
  EXPECT_TRUE(
      PageSynopses::Probe(store.synopses(), {&filter, 1}).selective());
  EXPECT_GT(store.synopses()->bytes(), 0u);
}

// The DIF at 512-byte pages, bulk-loaded (with synopses) and streamed in
// by FromEntries (without), on disks of their own.
struct ScanFixture {
  SimDisk disk{512};
  SimDisk plain_disk{512};
  SimDisk scratch{512};
  DirectoryInstance inst;
  EntryStore store;
  EntryStore plain;

  ScanFixture() : inst(Schema(), false) {
    gen::DifOptions opt;
    opt.num_orgs = 2;
    inst = gen::GenerateDif(opt);
    store = EntryStore::BulkLoad(&disk, inst).TakeValue();
    auto it = inst.begin();
    plain = EntryStore::FromEntries(&plain_disk, [&]() -> const Entry* {
              return it == inst.end() ? nullptr : &(it++)->second;
            }).TakeValue();
  }
};

std::vector<std::string> ListRecords(Disk* disk, EntryList list) {
  std::vector<std::string> out;
  RunReader reader(disk, list);
  std::string record;
  while (reader.Next(&record).ValueOrDie()) out.push_back(record);
  EXPECT_TRUE(FreeRun(disk, &list).ok());
  return out;
}

// Scans of every shape: (base, leaves' scopes and filter texts).
struct ScanCase {
  const char* base;
  std::vector<std::pair<Scope, const char*>> leaves;
};

std::vector<ScanCase> ScanCases() {
  const char* org = "dc=org0, dc=com";
  const char* sub = "dc=sub1, dc=org0, dc=com";
  const char* ou = "ou=userProfiles, dc=sub0, dc=org1, dc=com";
  std::vector<ScanCase> cases;
  for (const char* base : {"dc=com", org, sub, ou}) {
    for (Scope scope : {Scope::kBase, Scope::kOne, Scope::kSub}) {
      for (const char* filter :
           {"surName=sn42", "CANumber=9731000005", "objectClass=SLADSAction",
            "DSInProfilePeakRate>=95", "uid=user7*", "priority>=3",
            "nosuchattr=1", "dc=*", "(&(objectClass=QHP)(startTime<=700))",
            "(|(uid=user3)(surName=sn1*))", "(!(objectClass=QHP))"}) {
        cases.push_back({base, {{scope, filter}}});
      }
    }
    // Shared units: leaves of different scopes and filters over one base.
    cases.push_back({base,
                     {{Scope::kSub, "surName=sn42"},
                      {Scope::kOne, "objectClass=organizationalUnit"},
                      {Scope::kSub, "objectClass=SLADSAction"}}});
    cases.push_back({base,
                     {{Scope::kBase, "dc=*"},
                      {Scope::kSub, "CANumber=9731000005"}}});
  }
  return cases;
}

// A leaf per (scope, text): atomic when the text parses as one, else LDAP.
struct Leaves {
  std::vector<AtomicFilter> atomic;
  std::vector<LdapFilterPtr> ldap;
  std::vector<ScanLeaf> leaves;
  std::vector<ScanFilter> filters;

  explicit Leaves(const ScanCase& c) {
    atomic.reserve(c.leaves.size());
    for (const auto& [scope, text] : c.leaves) {
      if (text[0] == '(') {
        ldap.push_back(LdapFilter::Parse(text).TakeValue());
        leaves.push_back({scope, nullptr, ldap.back().get(), nullptr});
      } else {
        atomic.push_back(AtomicFilter::Parse(text).TakeValue());
        leaves.push_back({scope, &atomic.back(), nullptr, nullptr});
      }
      filters.push_back({leaves.back().filter, leaves.back().ldap_filter});
    }
  }
};

std::string RangeEnd(const ScanCase& c) {
  const std::string key = D(c.base).HierKey();
  for (const auto& leaf : c.leaves) {
    if (leaf.first != Scope::kBase) return KeySubtreeEnd(key);
  }
  return KeyExactEnd(key);
}

TEST(PageSynopsisTest, SkippingScansListWhatAPlainSegmentLists) {
  ScanFixture f;
  ASSERT_EQ(f.plain.synopses(), nullptr);
  uint64_t skipped = 0;
  for (const ScanCase& c : ScanCases()) {
    SCOPED_TRACE(std::string(c.base) + " / " + c.leaves.front().second);
    Leaves leaves(c);
    std::vector<OpTrace> traces(leaves.leaves.size());
    for (size_t i = 0; i < traces.size(); ++i) {
      leaves.leaves[i].trace = &traces[i];
    }
    std::vector<EntryList> got =
        ScanLeaves(&f.scratch, f.store, D(c.base), leaves.leaves).TakeValue();
    for (ScanLeaf& leaf : leaves.leaves) leaf.trace = nullptr;
    std::vector<EntryList> want =
        ScanLeaves(&f.scratch, f.plain, D(c.base), leaves.leaves).TakeValue();
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(ListRecords(&f.scratch, got[i]),
                ListRecords(&f.scratch, want[i]));
    }
    skipped += traces.front().skipped_pages;
  }
  EXPECT_GT(skipped, 0u);
  EXPECT_EQ(f.scratch.live_pages(), 0u);
}

TEST(PageSynopsisTest, ScansReadTheAdmittedPagesOnceEach) {
  ScanFixture f;
  for (const ScanCase& c : ScanCases()) {
    SCOPED_TRACE(std::string(c.base) + " / " +
                 ScopeToString(c.leaves.front().first) + " " +
                 c.leaves.front().second);
    Leaves leaves(c);
    const std::string start = D(c.base).HierKey();
    const std::string end = RangeEnd(c);
    const std::vector<size_t> pages =
        testing::ScanPages(f.store, start, end, leaves.filters);
    // The pages of the range a plain scan reads and this one does not.
    const std::vector<size_t> plain_pages =
        testing::ScanPages(f.store, start, end, {});
    uint64_t passed = 0;
    for (size_t p : plain_pages) {
      passed += !std::binary_search(pages.begin(), pages.end(), p);
    }
    for (size_t depth : {0u, 2u}) {
      SCOPED_TRACE("io_depth " + std::to_string(depth));
      f.disk.SetIoDepth(depth);
      f.disk.ResetStats();
      OpTrace trace;
      leaves.leaves.front().trace = &trace;
      std::vector<EntryList> lists =
          ScanLeaves(&f.scratch, f.store, D(c.base), leaves.leaves)
              .TakeValue();
      leaves.leaves.front().trace = nullptr;
      for (EntryList& l : lists) ASSERT_TRUE(FreeRun(&f.scratch, &l).ok());
      EXPECT_EQ(f.disk.stats().page_reads.load(), pages.size());
      EXPECT_EQ(trace.io.page_reads.load(), pages.size());
      EXPECT_EQ(f.disk.stats().prefetch_wasted.load(), 0u);
      // Every page of the plain scan's that was not read is a skip, save
      // the one past the range a plain scan reads to find its end.
      EXPECT_LE(trace.skipped_pages, passed);
      EXPECT_GE(trace.skipped_pages + 1, passed);
    }
    f.disk.SetIoDepth(0);
    // The estimate counts the same pages, up to a last record that runs
    // past the range's last page.
    const uint64_t est =
        f.store.EstimateRange(start, end, leaves.filters).pages;
    EXPECT_LE(est, pages.size());
    EXPECT_GE(est + 1, pages.size());
  }
}

TEST(PageSynopsisTest, ReplicaScansTheSameLists) {
  ScanFixture f;
  SimDisk replica_disk(512);
  const EntryStore replica = f.store.CopyTo(&replica_disk).TakeValue();
  EXPECT_EQ(replica.synopses(), f.store.synopses());
  for (const ScanCase& c : ScanCases()) {
    SCOPED_TRACE(std::string(c.base) + " / " + c.leaves.front().second);
    Leaves leaves(c);
    f.disk.ResetStats();
    replica_disk.ResetStats();
    std::vector<EntryList> got =
        ScanLeaves(&f.scratch, replica, D(c.base), leaves.leaves).TakeValue();
    std::vector<EntryList> want =
        ScanLeaves(&f.scratch, f.store, D(c.base), leaves.leaves).TakeValue();
    EXPECT_EQ(replica_disk.stats().page_reads.load(),
              f.disk.stats().page_reads.load());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(ListRecords(&f.scratch, got[i]),
                ListRecords(&f.scratch, want[i]));
    }
  }
}

TEST(PageSynopsisTest, FailedOperationsInASkippingScanLeaveNoPage) {
  ScanFixture f;
  const AtomicFilter sn = AtomicFilter::Parse("surName=sn4*").TakeValue();
  const AtomicFilter act =
      AtomicFilter::Parse("objectClass=SLADSAction").TakeValue();
  const LdapFilterPtr ldap =
      LdapFilter::Parse("(&(objectClass=QHP)(startTime<=700))").TakeValue();
  const Dn base = D("dc=com");
  OpTrace trace;
  testing::FaultCampaignReport report;
  testing::RunFaultCampaign(
      {&f.disk, &f.scratch},
      [&]() -> Result<std::vector<Entry>> {
        NDQ_ASSIGN_OR_RETURN(
            std::vector<EntryList> lists,
            ScanLeaves(&f.scratch, f.store, base,
                       {ScanLeaf{Scope::kSub, &sn, nullptr, &trace},
                        ScanLeaf{Scope::kSub, &act, nullptr, nullptr},
                        ScanLeaf{Scope::kOne, nullptr, ldap.get(), nullptr}}));
        // Every list is guarded before any is read.
        std::vector<ScopedRun> guards;
        for (EntryList& list : lists) guards.emplace_back(&f.scratch, list);
        std::vector<Entry> all;
        for (ScopedRun& guard : guards) {
          NDQ_ASSIGN_OR_RETURN(std::vector<Entry> entries,
                               ReadEntryList(&f.scratch, guard.get()));
          NDQ_RETURN_IF_ERROR(guard.Free());
          all.insert(all.end(), entries.begin(), entries.end());
        }
        return all;
      },
      nullptr, {}, &report);
  EXPECT_GT(trace.skipped_pages, 0u);
  EXPECT_GT(report.clean_failures, 10u);
}

}  // namespace
}  // namespace ndq
