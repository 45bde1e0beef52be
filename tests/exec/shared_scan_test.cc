// Shared leaf scans: one pass over a base's range evaluates every sibling
// leaf over that base (exec/atomic.h ScanLeaves, and the evaluator's
// sibling groups). Each list must be byte-identical to the leaf's own
// scan; a sibling the operand cache answered is not scanned again; results do not depend on parallelism; the range is read
// once; any failed I/O operation surfaces as a Status with no page left
// allocated; and the traces stay within their theorem bounds.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exec/atomic.h"
#include "exec/cost.h"
#include "exec/operand_cache.h"
#include "exec/parallel_evaluator.h"
#include "gen/dif_gen.h"
#include "query/parser.h"
#include "testing/fault_campaign.h"
#include "testing/paper_fixture.h"
#include "testing/scan_pages.h"
#include "theorem_check.h"

namespace ndq {
namespace {

using testing::D;

struct Fixture {
  SimDisk disk{512};
  SimDisk scratch{512};
  DirectoryInstance inst;
  EntryStore store;

  explicit Fixture(int num_orgs = 2) : inst(Schema(), false) {
    gen::DifOptions opt;
    opt.num_orgs = num_orgs;
    inst = gen::GenerateDif(opt);
    store = EntryStore::BulkLoad(&disk, inst).TakeValue();
  }

  QueryPtr Parse(const std::string& text) {
    Result<QueryPtr> q = ParseQuery(text);
    EXPECT_TRUE(q.ok()) << text << ": " << q.status().ToString();
    return q.TakeValue();
  }
};

// Everything that makes two runs the same bytes: the metadata and every
// page's contents.
std::string RunImage(Disk* disk, const Run& run) {
  std::string image = std::to_string(run.num_records) + "/" +
                      std::to_string(run.payload_bytes) + "/" +
                      std::to_string(static_cast<int>(run.format));
  for (const RunRestart& r : run.restarts) {
    image += "|" + std::to_string(r.record) + "@" + std::to_string(r.offset);
  }
  std::string page(disk->page_size(), '\0');
  for (PageId id : run.pages) {
    EXPECT_TRUE(
        disk->ReadPage(id, reinterpret_cast<uint8_t*>(page.data())).ok());
    image += page;
  }
  return image;
}

// The range a leaf over `base` with `scope` reads alone.
uint64_t RangePages(const EntrySource& store, const Dn& base, Scope scope) {
  const std::string& key = base.HierKey();
  return store.EstimateRangePages(
      key, scope == Scope::kBase ? KeyExactEnd(key) : KeySubtreeEnd(key));
}

// The pages one scan of `base`'s subtree reads for leaves with `filters`:
// the pages their synopses admit (testing::ScanPages).
uint64_t AdmittedPages(const EntryStore& store, const Dn& base,
                       const std::vector<const AtomicFilter*>& filters) {
  std::vector<ScanFilter> scan;
  for (const AtomicFilter* filter : filters) scan.push_back({filter, nullptr});
  const std::string& key = base.HierKey();
  return testing::ScanPages(store, key, KeySubtreeEnd(key), scan).size();
}

TEST(SharedScanTest, ListsMatchSeparateScansForEveryScopePairing) {
  Fixture f;
  const AtomicFilter atomic = AtomicFilter::True();
  const LdapFilterPtr ldap =
      LdapFilter::Parse("(|(objectClass=QHP)(objectClass=dcObject))")
          .TakeValue();
  const Scope scopes[] = {Scope::kBase, Scope::kOne, Scope::kSub};
  for (const char* base_text :
       {"", "dc=com", "dc=org0, dc=com", "dc=sub1, dc=org0, dc=com",
        "ou=userProfiles, dc=sub0, dc=org1, dc=com"}) {
    const Dn base = base_text[0] == '\0' ? Dn() : D(base_text);
    for (Scope s1 : scopes) {
      for (Scope s2 : scopes) {
        for (int kinds = 0; kinds < 4; ++kinds) {
          SCOPED_TRACE(std::string("base='") + base_text + "' scopes " +
                       ScopeToString(s1) + "," + ScopeToString(s2) +
                       " kinds " + std::to_string(kinds));
          std::vector<ScanLeaf> leaves;
          std::vector<std::string> alone;
          for (int i = 0; i < 2; ++i) {
            const Scope scope = i == 0 ? s1 : s2;
            const bool is_ldap = (kinds >> i) & 1;
            leaves.push_back(ScanLeaf{scope, is_ldap ? nullptr : &atomic,
                                      is_ldap ? ldap.get() : nullptr,
                                      nullptr});
            EntryList one =
                (is_ldap ? EvalLdap(&f.scratch, f.store, base, scope, *ldap)
                         : EvalAtomic(&f.scratch, f.store, base, scope,
                                      atomic))
                    .TakeValue();
            alone.push_back(RunImage(&f.scratch, one));
            ASSERT_TRUE(FreeRun(&f.scratch, &one).ok());
          }
          std::vector<EntryList> lists =
              ScanLeaves(&f.scratch, f.store, base, leaves).TakeValue();
          ASSERT_EQ(lists.size(), 2u);
          for (int i = 0; i < 2; ++i) {
            EXPECT_EQ(RunImage(&f.scratch, lists[i]), alone[i])
                << "leaf " << i;
            ASSERT_TRUE(FreeRun(&f.scratch, &lists[i]).ok());
          }
        }
      }
    }
  }
  EXPECT_EQ(f.scratch.live_pages(), 0u);
}

TEST(SharedScanTest, ThreeLeavesReadTheWidestRangeOnce) {
  Fixture f;
  const Dn base = D("dc=org0, dc=com");
  const AtomicFilter all = AtomicFilter::True();
  const AtomicFilter qhp =
      AtomicFilter::Parse("objectClass=QHP").TakeValue();
  const LdapFilterPtr ldap =
      LdapFilter::Parse("(!(objectClass=QHP))").TakeValue();
  OpTrace traces[3];
  std::vector<ScanLeaf> leaves = {
      ScanLeaf{Scope::kBase, &all, nullptr, &traces[0]},
      ScanLeaf{Scope::kOne, nullptr, ldap.get(), &traces[1]},
      ScanLeaf{Scope::kSub, &qhp, nullptr, &traces[2]}};
  f.disk.ResetStats();
  f.scratch.ResetStats();
  std::vector<EntryList> lists =
      ScanLeaves(&f.scratch, f.store, base, leaves).TakeValue();
  // One pass over the subtree range; every list written once.
  const uint64_t range = RangePages(f.store, base, Scope::kSub);
  EXPECT_EQ(f.disk.stats().page_reads, range);
  uint64_t out_pages = 0;
  for (const EntryList& l : lists) out_pages += l.pages.size();
  EXPECT_EQ(f.scratch.stats().page_writes, out_pages);
  // The reads and the scanned records land on the first leaf; each leaf
  // keeps its own writes.
  EXPECT_EQ(traces[0].io.page_reads, range);
  EXPECT_GT(traces[0].scanned_records, 0u);
  for (int i = 0; i < 3; ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(traces[i].shared_scan, 3u);
    EXPECT_EQ(traces[i].io.page_writes, lists[i].pages.size());
    EXPECT_EQ(traces[i].output_records, lists[i].num_records);
    if (i > 0) {
      EXPECT_EQ(traces[i].io.page_reads, 0u);
      EXPECT_EQ(traces[i].scanned_records, 0u);
    }
  }
  EXPECT_EQ(traces[0].op, QueryOp::kAtomic);
  EXPECT_EQ(traces[1].op, QueryOp::kLdap);
  EXPECT_EQ(lists[0].num_records, 1u);
  EXPECT_GT(lists[1].num_records, 1u);
  EXPECT_GT(lists[2].num_records, 0u);
  for (EntryList& l : lists) ASSERT_TRUE(FreeRun(&f.scratch, &l).ok());
}

TEST(SharedScanTest, RootTransfersAreOneRangeScanPlusTheLists) {
  Fixture f;
  const char* text =
      "(c (dc=org0, dc=com ? sub ? objectClass=TOPSSubscriber)"
      "   (dc=org0, dc=com ? sub ? objectClass=QHP))";
  QueryPtr q = f.Parse(text);
  const Dn& base = q->q1()->base();
  const AtomicFilter* subscriber = &q->q1()->filter();
  const AtomicFilter* qhp = &q->q2()->filter();
  // The range's pages the synopses admit for either filter.
  const uint64_t range = AdmittedPages(f.store, base, {subscriber, qhp});
  ASSERT_LT(range, RangePages(f.store, base, Scope::kSub));

  // Scanned one at a time, as before the scan was shared, the two leaves
  // read the range twice: each the pages its own filter admits.
  const uint64_t alone = AdmittedPages(f.store, base, {subscriber}) +
                         AdmittedPages(f.store, base, {qhp});
  f.disk.ResetStats();
  for (const QueryPtr& leaf : {q->q1(), q->q2()}) {
    EntryList l = EvalAtomic(&f.scratch, f.store, leaf->base(),
                             leaf->scope(), leaf->filter())
                      .TakeValue();
    ASSERT_TRUE(FreeRun(&f.scratch, &l).ok());
  }
  EXPECT_EQ(f.disk.stats().page_reads, alone);

  ParallelEvaluator evaluator(&f.scratch, &f.store);
  f.disk.ResetStats();
  OpTrace trace;
  EntryList out = evaluator.Evaluate(*q, &trace).TakeValue();
  EXPECT_EQ(f.disk.stats().page_reads, range);
  ASSERT_EQ(trace.children.size(), 2u);
  const OpTrace& a = trace.children[0];
  const OpTrace& b = trace.children[1];
  EXPECT_EQ(a.shared_scan, 2u);
  EXPECT_EQ(b.shared_scan, 2u);
  EXPECT_EQ(trace.io.TotalTransfers(),
            range + a.output_pages + b.output_pages + trace.SelfTransfers());
  // The cost model prices the range once as well.
  EXPECT_DOUBLE_EQ(EstimateCost(f.store, *q).leaf_pages,
                   static_cast<double>(range));
  testing::ExpectWithinTheoremBounds(trace);
  testing::ExpectIoAccountingConsistent(trace);
  ASSERT_TRUE(FreeRun(&f.scratch, &out).ok());
}

TEST(SharedScanTest, CachedSiblingIsNotScannedAgain) {
  Fixture f;
  const char* cached_leaf = "(dc=org0, dc=com ? sub ? objectClass=QHP)";
  const std::string pair = std::string("(c ") +
                           "(dc=org0, dc=com ? sub ? "
                           "objectClass=TOPSSubscriber) " +
                           cached_leaf + ")";
  // The pages the first leaf's filter admits, which it reads alone.
  const AtomicFilter subscriber =
      AtomicFilter::Parse("objectClass=TOPSSubscriber").TakeValue();
  const uint64_t range =
      AdmittedPages(f.store, D("dc=org0, dc=com"), {&subscriber});

  // The operand cache holds the second leaf: only the first is scanned,
  // alone.
  {
    OperandCache cache(&f.scratch, /*capacity_pages=*/4096);
    ParallelEvaluator evaluator(&f.scratch, &f.store, ExecOptions{}, &cache);
    ASSERT_TRUE(evaluator.EvaluateToEntries(*f.Parse(cached_leaf)).ok());
    f.disk.ResetStats();
    OpTrace trace;
    ASSERT_TRUE(evaluator.EvaluateToEntries(*f.Parse(pair), &trace).ok());
    EXPECT_EQ(f.disk.stats().page_reads, range);
    ASSERT_EQ(trace.children.size(), 2u);
    EXPECT_EQ(trace.children[0].cache_misses, 1u);
    EXPECT_EQ(trace.children[0].shared_scan, 0u);
    EXPECT_GT(trace.children[0].scanned_records, 0u);
    EXPECT_EQ(trace.children[1].cache_hits, 1u);
    EXPECT_EQ(trace.children[1].shared_scan, 0u);
    EXPECT_EQ(trace.children[1].scanned_records, 0u);
  }

  // With a third sibling the two leaves the cache does not hold still
  // share a scan.
  const std::string triple =
      "(dc (dc=org0, dc=com ? sub ? objectClass=TOPSSubscriber) " +
      std::string(cached_leaf) +
      " (dc=org0, dc=com ? one ? objectClass=*))";
  {
    OperandCache cache(&f.scratch, /*capacity_pages=*/4096);
    ParallelEvaluator evaluator(&f.scratch, &f.store, ExecOptions{}, &cache);
    ASSERT_TRUE(evaluator.EvaluateToEntries(*f.Parse(cached_leaf)).ok());
    OpTrace trace;
    std::vector<Entry> got =
        evaluator.EvaluateToEntries(*f.Parse(triple), &trace).TakeValue();
    ASSERT_EQ(trace.children.size(), 3u);
    EXPECT_EQ(trace.children[0].shared_scan, 2u);
    EXPECT_EQ(trace.children[1].cache_hits, 1u);
    EXPECT_EQ(trace.children[1].shared_scan, 0u);
    EXPECT_EQ(trace.children[2].shared_scan, 2u);
    // The scan counts on the first of the two; the third reads only its
    // own list, which the cache copies in.
    EXPECT_GT(trace.children[0].scanned_records, 0u);
    EXPECT_EQ(trace.children[2].scanned_records, 0u);
    EXPECT_EQ(trace.children[2].io.page_reads,
              trace.children[2].output_pages);
    ParallelEvaluator plain(&f.scratch, &f.store);
    EXPECT_EQ(got, plain.EvaluateToEntries(*f.Parse(triple)).TakeValue());
  }
  EXPECT_EQ(f.scratch.live_pages(), 0u);
}

// Operators whose operands include sibling leaves over one base, in every
// operand position and language level, with mixed scopes, LDAP leaves, a
// repeated leaf and a leaf of another base.
const char* kSharedQueries[] = {
    "(c (dc=org0, dc=com ? sub ? objectClass=TOPSSubscriber)"
    "   (dc=org0, dc=com ? sub ? objectClass=QHP) count($2)>=2)",
    "(d (dc=com ? one ? objectClass=*) (dc=com ? sub ? objectClass=QHP))",
    "(- (dc=org1, dc=com ? sub ? objectClass=*)"
    "   (dc=org1, dc=com ? base ? objectClass=*))",
    "(& (dc=org0, dc=com ? sub ? objectClass=QHP)"
    "   (dc=org0, dc=com ? one ? objectClass=*))",
    "(ac (dc=com ? sub ? objectClass=QHP)"
    "    (dc=com ? sub ? objectClass=organizationalUnit)"
    "    (dc=com ? sub ? objectClass=dcObject))",
    "(dc (dc=sub0, dc=org0, dc=com ? sub ? objectClass=dcObject)"
    "    (dc=sub0, dc=org0, dc=com ? sub ? objectClass=QHP)"
    "    (dc=org0, dc=com ? sub ? objectClass=*))",
    "(vd (dc=com ? sub ? objectClass=SLAPolicyRules)"
    "    (dc=com ? sub ? objectClass=trafficProfile) SLATPRef)",
    "(dv (dc=com ? sub ? objectClass=SLAPolicyRules)"
    "    (ldap dc=com ? sub ? (|(objectClass=trafficProfile)"
    "                           (objectClass=SLADSAction))) SLATPRef)",
    "(p (dc=com ? sub ? objectClass=QHP) (dc=com ? sub ? objectClass=QHP))",
    "(a (ldap dc=org1, dc=com ? one ? (objectClass=*))"
    "   (dc=org1, dc=com ? sub ? objectClass=QHP))",
};

TEST(SharedScanTest, ParallelismOneAndFourAgree) {
  Fixture f;
  for (bool with_cache : {false, true}) {
    std::vector<std::vector<Entry>> results[2];
    uint64_t store_reads[2] = {0, 0};
    for (int run = 0; run < 2; ++run) {
      ExecOptions options;
      options.parallelism = run == 0 ? 1 : 4;
      OperandCache cache(&f.scratch, /*capacity_pages=*/4096);
      ParallelEvaluator evaluator(&f.scratch, &f.store, options,
                                  with_cache ? &cache : nullptr);
      f.disk.ResetStats();
      for (const char* text : kSharedQueries) {
        SCOPED_TRACE(text);
        Result<std::vector<Entry>> r =
            evaluator.EvaluateToEntries(*f.Parse(text));
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        results[run].push_back(r.TakeValue());
      }
      store_reads[run] = f.disk.stats().page_reads;
    }
    EXPECT_EQ(results[0], results[1]) << "cache " << with_cache;
    // Without a cache the transfers do not depend on scheduling either.
    if (!with_cache) {
      EXPECT_EQ(store_reads[0], store_reads[1]);
    }
  }
  EXPECT_EQ(f.scratch.live_pages(), 0u);
}

TEST(SharedScanTest, TracesStayWithinTheoremBounds) {
  Fixture f(/*num_orgs=*/4);
  for (int parallelism : {1, 4}) {
    ExecOptions options;
    options.parallelism = parallelism;
    OperandCache cache(&f.scratch, /*capacity_pages=*/4096);
    ParallelEvaluator evaluator(&f.scratch, &f.store, options, &cache);
    for (const char* text : kSharedQueries) {
      SCOPED_TRACE(text);
      QueryPtr q = f.Parse(text);
      OpTrace trace;
      EntryList out = evaluator.Evaluate(*q, &trace).TakeValue();
      testing::ExpectWithinTheoremBounds(trace);
      testing::ExpectIoAccountingConsistent(trace);
      testing::ExpectCardinalityWithinEstimate(f.store, *q, trace);
      ASSERT_TRUE(FreeRun(&f.scratch, &out).ok());
    }
  }
}

// Reads every list and frees it; the entries of all lists in order.
Result<std::vector<Entry>> Drain(Disk* disk, std::vector<EntryList> lists) {
  std::vector<ScopedRun> guards;
  for (EntryList& l : lists) guards.emplace_back(disk, l);
  std::vector<Entry> all;
  for (ScopedRun& g : guards) {
    NDQ_ASSIGN_OR_RETURN(std::vector<Entry> one, ReadEntryList(disk, g.get()));
    all.insert(all.end(), one.begin(), one.end());
    NDQ_RETURN_IF_ERROR(g.Free());
  }
  return all;
}

TEST(SharedScanTest, FailedOperationsLeaveNoPageAllocated) {
  Fixture f;
  const Dn base = D("dc=org0, dc=com");
  const AtomicFilter all = AtomicFilter::True();
  const AtomicFilter qhp =
      AtomicFilter::Parse("objectClass=QHP").TakeValue();
  const LdapFilterPtr ldap =
      LdapFilter::Parse("(!(objectClass=QHP))").TakeValue();
  // Every read of the scan, and every allocation and write of each of the
  // three writers (and of the reads that check the lists).
  testing::FaultCampaignReport report;
  testing::RunFaultCampaign(
      {&f.disk, &f.scratch},
      [&]() -> Result<std::vector<Entry>> {
        NDQ_ASSIGN_OR_RETURN(
            std::vector<EntryList> lists,
            ScanLeaves(&f.scratch, f.store, base,
                       {ScanLeaf{Scope::kSub, &all, nullptr, nullptr},
                        ScanLeaf{Scope::kOne, nullptr, ldap.get(), nullptr},
                        ScanLeaf{Scope::kSub, &qhp, nullptr, nullptr}}));
        return Drain(&f.scratch, std::move(lists));
      },
      nullptr, {}, &report);
  EXPECT_GT(report.clean_failures, 10u);

  // The same through the evaluator, where each leaf then publishes its
  // list to the operand cache.
  OperandCache cache(&f.scratch, /*capacity_pages=*/4096);
  ParallelEvaluator evaluator(&f.scratch, &f.store, ExecOptions{}, &cache);
  QueryPtr q = f.Parse(kSharedQueries[0]);
  testing::RunFaultCampaign(
      {&f.disk, &f.scratch},
      [&]() { return evaluator.EvaluateToEntries(*q); },
      [&] { cache.Clear(); }, {}, &report);
  EXPECT_GT(report.clean_failures, 10u);
}

}  // namespace
}  // namespace ndq
