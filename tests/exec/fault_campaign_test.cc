// The tentpole fault campaign (ISSUE 3, part 4): sweep "fail I/O op #k"
// for EVERY k over a reference query mix spanning L0–L3 (atomic scopes,
// booleans, hierarchy operators, aggregation, embedded references, LDAP
// baseline) on the paper instance, and assert for each k that the
// evaluator either absorbs the fault (identical results) or fails with a
// clean Unavailable — never crashing, never leaking a page, and always
// recovering byte-identically on retry. Runs against the evaluator
// sequential and uncached, at parallelism 3 with an OperandCache, and a
// separate free-fault sweep (where stranded pages are the expected
// outcome and only clean Status + clean recovery are required).

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exec/operand_cache.h"
#include "exec/parallel_evaluator.h"
#include "query/parser.h"
#include "testing/fault_campaign.h"
#include "testing/paper_fixture.h"

namespace ndq {
namespace {

// Reference mix, one query per language level / operator family. Kept
// small so the exhaustive per-op sweep stays fast: the sweep re-evaluates
// the whole mix once (sometimes twice) per eligible device operation.
const char* kCampaignQueries[] = {
    // L0: atomic, each scope.
    "(dc=att, dc=com ? sub ? surName=jagadish)",
    "(dc=research, dc=att, dc=com ? one ? objectClass=*)",
    // L1: booleans.
    "(& (dc=com ? sub ? objectClass=dcObject) (dc=att, dc=com ? sub ? "
    "objectClass=*))",
    "(- (dc=att, dc=com ? sub ? surName=jagadish)"
    "   (dc=research, dc=att, dc=com ? sub ? surName=jagadish))",
    // L2: hierarchy.
    "(c (dc=att, dc=com ? sub ? objectClass=organizationalUnit)"
    "   (dc=att, dc=com ? sub ? surName=jagadish))",
    "(dc (dc=att, dc=com ? sub ? objectClass=dcObject)"
    "    (& (dc=att, dc=com ? sub ? sourcePort=25)"
    "       (dc=att, dc=com ? sub ? objectClass=trafficProfile))"
    "    (dc=att, dc=com ? sub ? objectClass=dcObject))",
    // A descendant pass whose filter needs the globals pre-scan: both of
    // the filter phase's backward reads of the annotated list.
    "(d (dc=att, dc=com ? sub ? objectClass=*)"
    "   (dc=att, dc=com ? sub ? surName=*)"
    "   count($2)=max(count($2)))",
    // L3: aggregation + embedded references.
    "(g (dc=research, dc=att, dc=com ? sub ? objectClass=SLAPolicyRules)"
    "   count(SLAPVPRef) > 1)",
    "(vd (dc=att, dc=com ? sub ? objectClass=SLAPolicyRules)"
    "    (& (dc=att, dc=com ? sub ? sourcePort=25)"
    "       (dc=att, dc=com ? sub ? objectClass=trafficProfile))"
    "    SLATPRef)",
    // LDAP baseline.
    "(ldap dc=com ? sub ? (&(objectClass=QHP)(!(priority>1))))",
};

std::vector<QueryPtr> ParseMix() {
  std::vector<QueryPtr> mix;
  for (const char* text : kCampaignQueries) {
    Result<QueryPtr> q = ParseQuery(text);
    EXPECT_TRUE(q.ok()) << text << ": " << q.status().ToString();
    if (q.ok()) mix.push_back(q.TakeValue());
  }
  return mix;
}

// Evaluates the whole mix, concatenating results; the first error aborts
// the run (exactly what a client driving these queries would see).
Result<std::vector<Entry>> EvaluateMix(ParallelEvaluator& evaluator,
                                       const std::vector<QueryPtr>& mix) {
  std::vector<Entry> all;
  for (const QueryPtr& q : mix) {
    Result<std::vector<Entry>> one = evaluator.EvaluateToEntries(*q);
    if (!one.ok()) return one.status();
    all.insert(all.end(), one->begin(), one->end());
  }
  return all;
}

TEST(FaultCampaignTest, SequentialEvaluatorSurvivesEveryFault) {
  DirectoryInstance inst = testing::PaperInstance();
  SimDisk disk(1024);
  EntryStore store = EntryStore::BulkLoad(&disk, inst).TakeValue();
  ParallelEvaluator evaluator(&disk, &store);
  std::vector<QueryPtr> mix = ParseMix();
  ASSERT_FALSE(mix.empty());

  testing::FaultCampaignReport report;
  testing::RunFaultCampaign(
      &disk, [&] { return EvaluateMix(evaluator, mix); },
      /*after_run=*/nullptr, testing::FaultCampaignOptions(), &report);
  // The sweep must actually have exercised faults: every k but the final
  // exhaustion probe fires one.
  EXPECT_GT(report.ks_tested, 1u);
  EXPECT_EQ(report.clean_failures + report.absorbed_successes,
            report.ks_tested - 1);
  EXPECT_GT(report.clean_failures, 0u);
}

TEST(FaultCampaignTest, ParallelEvaluatorWithCacheSurvivesEveryFault) {
  DirectoryInstance inst = testing::PaperInstance();
  SimDisk disk(1024);
  EntryStore store = EntryStore::BulkLoad(&disk, inst).TakeValue();
  ExecOptions options;
  options.parallelism = 3;
  OperandCache cache(&disk, /*capacity_pages=*/4096);
  ParallelEvaluator evaluator(&disk, &store, options, &cache);
  std::vector<QueryPtr> mix = ParseMix();
  ASSERT_FALSE(mix.empty());

  testing::FaultCampaignReport report;
  testing::RunFaultCampaign(
      &disk, [&] { return EvaluateMix(evaluator, mix); },
      // Cached operand runs are live pages; drop them so the leak
      // baseline compares equal across runs.
      /*after_run=*/[&] { cache.Clear(); },
      testing::FaultCampaignOptions(), &report);
  EXPECT_GT(report.ks_tested, 1u);
  EXPECT_GT(report.clean_failures + report.absorbed_successes, 0u);
}

// The async variant of the sweep: with an io-depth attached, every read
// the workload consumes arrives through the prefetch queue, so the k-th
// read fault fires at the k-th ASYNC COMPLETION (consumption time). The
// deferred-accounting contract (Disk::FinishAsyncRead) makes that op
// stream identical to the synchronous sweep's, so the same exhaustive
// guarantees must hold: absorb or fail cleanly, never leak, always
// recover byte-identically.
TEST(FaultCampaignTest, AsyncCompletionsSurviveEveryFault) {
  DirectoryInstance inst = testing::PaperInstance();
  SimDisk disk(1024);
  EntryStore store = EntryStore::BulkLoad(&disk, inst).TakeValue();
  ParallelEvaluator evaluator(&disk, &store);
  std::vector<QueryPtr> mix = ParseMix();
  ASSERT_FALSE(mix.empty());

  // Reference sweep, synchronous reads.
  testing::FaultCampaignReport sync_report;
  testing::RunFaultCampaign(
      &disk, [&] { return EvaluateMix(evaluator, mix); },
      /*after_run=*/nullptr, testing::FaultCampaignOptions(), &sync_report);
  EXPECT_GT(sync_report.ks_tested, 1u);

  disk.SetIoDepth(4);
  testing::FaultCampaignReport report;
  testing::RunFaultCampaign(
      &disk, [&] { return EvaluateMix(evaluator, mix); },
      /*after_run=*/nullptr, testing::FaultCampaignOptions(), &report);
  EXPECT_EQ(report.clean_failures + report.absorbed_successes,
            report.ks_tested - 1);
  EXPECT_GT(report.clean_failures, 0u);
  // Deferred accounting makes the async op stream identical to the sync
  // one, so both sweeps self-terminate after the same number of probes
  // with the same absorb/fail split.
  EXPECT_EQ(report.ks_tested, sync_report.ks_tested);
  EXPECT_EQ(report.clean_failures, sync_report.clean_failures);
  EXPECT_EQ(report.absorbed_successes, sync_report.absorbed_successes);
  disk.SetIoDepth(0);
}

TEST(FaultCampaignTest, FreeFaultsFailCleanlyAndRecover) {
  DirectoryInstance inst = testing::PaperInstance();
  SimDisk disk(1024);
  EntryStore store = EntryStore::BulkLoad(&disk, inst).TakeValue();
  ParallelEvaluator evaluator(&disk, &store);
  std::vector<QueryPtr> mix = ParseMix();
  ASSERT_FALSE(mix.empty());

  // A failed Free strands the page by definition, so the leak check is
  // off; what must hold is a clean Status (or absorbed success) and a
  // byte-identical retry — the store itself is never corrupted.
  testing::FaultCampaignOptions options;
  options.ops = FaultOpBit(FaultOp::kFree);
  options.check_leaks = false;
  testing::FaultCampaignReport report;
  testing::RunFaultCampaign(
      &disk, [&] { return EvaluateMix(evaluator, mix); },
      /*after_run=*/nullptr, options, &report);
  EXPECT_GT(report.ks_tested, 1u);
}

}  // namespace
}  // namespace ndq
