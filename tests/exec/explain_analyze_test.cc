// EXPLAIN ANALYZE end-to-end: the execution trace must (a) stay within the
// cost model's cardinality upper bounds node by node, (b) reconcile its
// per-node I/O deltas with the disks' global IoStats, (c) render a stable,
// machine-parsable report, and (d) stay within the paper's per-operator
// I/O theorems on both the paper fixture and generated directories.

#include <algorithm>
#include <cctype>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dist/distributed.h"
#include "exec/cost.h"
#include "exec/parallel_evaluator.h"
#include "exec/trace.h"
#include "gen/dif_gen.h"
#include "query/parser.h"
#include "testing/paper_fixture.h"
#include "theorem_check.h"

namespace ndq {
namespace {

using testing::ExpectCardinalityWithinEstimate;
using testing::ExpectIoAccountingConsistent;
using testing::ExpectWithinTheoremBounds;

// Paper-style queries covering every language level: L1 atomic + boolean,
// L2 hierarchy + simple aggregate, L3 embedded references (Figs. 7-10).
const char* kQueries[] = {
    "(dc=com ? sub ? objectClass=QHP)",
    "(c (dc=com ? sub ? objectClass=organizationalUnit)"
    "   (dc=com ? sub ? objectClass=QHP))",
    "(a (dc=com ? sub ? objectClass=QHP)"
    "   (dc=com ? sub ? objectClass=organizationalUnit))",
    "(g (dc=com ? sub ? objectClass=SLAPolicyRules) count(SLAPVPRef) > 0)",
    "(vd (dc=com ? sub ? objectClass=SLAPolicyRules)"
    "    (dc=com ? sub ? objectClass=trafficProfile) SLATPRef)",
};

struct TraceFixture {
  SimDisk disk{1024};
  DirectoryInstance inst;
  EntryStore store;

  explicit TraceFixture(int num_orgs = 0) : inst(Schema(), false) {
    if (num_orgs > 0) {
      gen::DifOptions opt;
      opt.num_orgs = num_orgs;
      inst = gen::GenerateDif(opt);
    } else {
      inst = testing::PaperInstance();
    }
    store = EntryStore::BulkLoad(&disk, inst).TakeValue();
  }

  // Evaluates with tracing on a fresh scratch disk; frees the result.
  OpTrace Trace(const std::string& text, QueryPtr* out_query = nullptr) {
    QueryPtr q = ParseQuery(text).TakeValue();
    SimDisk scratch(1024);
    ParallelEvaluator evaluator(&scratch, &store);
    OpTrace trace;
    EntryList r = evaluator.Evaluate(*q, &trace).TakeValue();
    EXPECT_TRUE(FreeRun(&scratch, &r).ok());
    if (out_query != nullptr) *out_query = std::move(q);
    return trace;
  }
};

TEST(ExplainAnalyzeTest, ActualCardinalityWithinEstimateBounds) {
  TraceFixture f;
  for (const char* text : kQueries) {
    SCOPED_TRACE(text);
    QueryPtr q;
    OpTrace trace = f.Trace(text, &q);
    ExpectCardinalityWithinEstimate(f.store, *q, trace);
  }
}

TEST(ExplainAnalyzeTest, ActualCardinalityWithinEstimateBoundsGenerated) {
  TraceFixture f(/*num_orgs=*/4);
  for (const char* text : kQueries) {
    SCOPED_TRACE(text);
    QueryPtr q;
    OpTrace trace = f.Trace(text, &q);
    ExpectCardinalityWithinEstimate(f.store, *q, trace);
  }
}

TEST(ExplainAnalyzeTest, RootIoReconcilesWithGlobalIoStats) {
  TraceFixture f(/*num_orgs=*/4);
  for (const char* text : kQueries) {
    SCOPED_TRACE(text);
    QueryPtr q = ParseQuery(text).TakeValue();
    SimDisk scratch(1024);
    ParallelEvaluator evaluator(&scratch, &f.store);
    IoStats store_before = f.disk.stats();
    IoStats scratch_before = scratch.stats();
    OpTrace trace;
    EntryList r = evaluator.Evaluate(*q, &trace).TakeValue();
    IoStats sd = f.disk.stats() - store_before;
    IoStats cd = scratch.stats() - scratch_before;
    // The root's cumulative delta is exactly what the two disks saw.
    EXPECT_EQ(trace.io.page_reads, sd.page_reads + cd.page_reads);
    EXPECT_EQ(trace.io.page_writes, sd.page_writes + cd.page_writes);
    EXPECT_EQ(trace.io.pages_allocated,
              sd.pages_allocated + cd.pages_allocated);
    EXPECT_EQ(trace.io.pages_freed, sd.pages_freed + cd.pages_freed);
    // And the tree's self-deltas telescope back to that total.
    ExpectIoAccountingConsistent(trace);
    EXPECT_TRUE(FreeRun(&scratch, &r).ok());
  }
}

TEST(ExplainAnalyzeTest, TraceShapeMirrorsQueryTree) {
  TraceFixture f;
  for (const char* text : kQueries) {
    SCOPED_TRACE(text);
    QueryPtr q;
    OpTrace trace = f.Trace(text, &q);
    EXPECT_EQ(trace.NodeCount(), q->NodeCount());
    EXPECT_EQ(trace.op, q->op());
    EXPECT_EQ(trace.label, QueryNodeLabel(*q));
  }
}

TEST(ExplainAnalyzeTest, OperatorsStayWithinTheoremBounds) {
  // Generated data is large enough that a complexity-class regression
  // (quadratic merge, unamortized spills) would blow the linear bounds.
  TraceFixture f(/*num_orgs=*/6);
  for (const char* text : kQueries) {
    SCOPED_TRACE(text);
    ExpectWithinTheoremBounds(f.Trace(text));
  }
}

TEST(ExplainAnalyzeTest, HierarchyTraceRecordsStackActivity) {
  TraceFixture f(/*num_orgs=*/4);
  OpTrace trace = f.Trace(
      "(d (dc=com ? sub ? objectClass=organizationalUnit)"
      "   (dc=com ? sub ? objectClass=QHP))");
  EXPECT_EQ(trace.op, QueryOp::kDescendants);
  EXPECT_GT(trace.output_records, 0u);
  // The backward pass pushed candidate ancestors through the stack.
  EXPECT_GT(trace.peak_stack_items, 0u);
  ASSERT_EQ(trace.children.size(), 2u);
  EXPECT_GT(trace.children[0].output_records, 0u);
  EXPECT_GT(trace.children[1].output_records, 0u);
}

// Strips every wall_us=... token so two runs of the same query compare
// equal (wall time is the only nondeterministic field).
std::string StripWallTime(const std::string& report) {
  std::string out;
  std::istringstream in(report);
  std::string line;
  while (std::getline(in, line)) {
    size_t pos = line.find(" wall_us=");
    out.append(pos == std::string::npos ? line : line.substr(0, pos));
    out.push_back('\n');
  }
  return out;
}

TEST(ExplainAnalyzeTest, ReportIsStableAndParsable) {
  TraceFixture f;
  const char* text = kQueries[4];  // the L3 vd query
  QueryPtr q;
  OpTrace trace = f.Trace(text, &q);
  std::string report = ExplainAnalyze(f.store, *q, trace);

  // One line per plan node, each of the form "<indent><label>  {k=v ...}".
  std::istringstream in(report);
  std::string line;
  size_t lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    SCOPED_TRACE(line);
    size_t open = line.find('{');
    ASSERT_NE(open, std::string::npos);
    ASSERT_EQ(line.back(), '}');
    // The four headline fields, in order, then wall time last.
    size_t ep = line.find("est_pages=", open);
    size_t ap = line.find("act_pages=", open);
    size_t er = line.find("est_recs=", open);
    size_t ar = line.find("act_recs=", open);
    size_t wu = line.find("wall_us=", open);
    EXPECT_NE(ep, std::string::npos);
    EXPECT_NE(ap, std::string::npos);
    EXPECT_NE(er, std::string::npos);
    EXPECT_NE(ar, std::string::npos);
    EXPECT_NE(wu, std::string::npos);
    EXPECT_TRUE(ep < ap && ap < er && er < ar && ar < wu);
    // Every key=value token parses: keys are [a-z_]+, values numeric.
    std::istringstream body(line.substr(open + 1, line.size() - open - 2));
    std::string token;
    while (body >> token) {
      size_t eq = token.find('=');
      ASSERT_NE(eq, std::string::npos) << token;
      for (char c : token.substr(0, eq)) {
        EXPECT_TRUE(std::islower(static_cast<unsigned char>(c)) || c == '_')
            << token;
      }
      for (char c : token.substr(eq + 1)) {
        EXPECT_TRUE(std::isdigit(static_cast<unsigned char>(c)) || c == '.')
            << token;
      }
    }
  }
  EXPECT_EQ(lines, q->NodeCount());

  // Same query, same store: everything but wall time is deterministic.
  OpTrace again = f.Trace(text);
  EXPECT_EQ(StripWallTime(report),
            StripWallTime(ExplainAnalyze(f.store, *q, again)));

  // The raw trace rendering obeys the same key discipline.
  std::string raw = trace.ToString();
  EXPECT_NE(raw.find("in_recs="), std::string::npos);
  EXPECT_NE(raw.find("wall_us="), std::string::npos);
}

// The keys of the one-line rendering `line`'s {...} body, in order.
std::vector<std::string> BodyKeys(const std::string& line) {
  const size_t open = line.find('{');
  const size_t close = line.rfind('}');
  std::vector<std::string> keys;
  if (open == std::string::npos || close == std::string::npos) return keys;
  std::istringstream body(line.substr(open + 1, close - open - 1));
  std::string token;
  while (body >> token) keys.push_back(token.substr(0, token.find('=')));
  return keys;
}

// The keys between "writes" and "wall_us": a node's optional counters.
std::vector<std::string> OptionalKeys(const std::vector<std::string>& keys) {
  auto from = std::find(keys.begin(), keys.end(), "writes");
  auto to = std::find(keys.begin(), keys.end(), "wall_us");
  if (from == keys.end() || to == keys.end() || from > to) return {};
  return std::vector<std::string>(from + 1, to);
}

// OpTrace::ToString and EXPLAIN ANALYZE render a node's optional counters
// from one list: with every one of them nonzero, both print all of them,
// in the same order.
TEST(ExplainAnalyzeTest, OptionalCountersRenderAlikeInBothOutputs) {
  TraceFixture f;
  QueryPtr q = ParseQuery(kQueries[0]).TakeValue();
  OpTrace t;
  t.label = QueryNodeLabel(*q);
  t.op = q->op();
  uint64_t next = 1;
  for (uint64_t* counter :
       {&t.scanned_records, &t.shared_scan, &t.skipped_pages,
        &t.peak_stack_items, &t.stack_spills, &t.sort_merge_passes,
        &t.shipped_records, &t.shipped_bytes, &t.plan_rewrites,
        &t.cache_hits, &t.cache_misses, &t.retries, &t.failovers,
        &t.degraded_shards, &t.io_depth}) {
    *counter = next++;
  }
  t.worker = 2;
  t.io.page_reads = 3;
  t.io.page_writes = 4;
  t.io.faults_injected = 5;
  t.io.prefetch_hits = 6;
  t.io.prefetch_wasted = 7;
  t.io.io_wait_us = 8;

  const std::vector<std::string> want = {
      "scanned",       "shared_scan", "skipped",       "stack_peak",
      "spills",        "sort_passes", "shipped_recs",  "shipped_bytes",
      "plan_rewrites", "cache_hits",  "cache_misses",  "faults",
      "retries",       "failovers",   "degraded",      "worker",
      "io_depth",      "prefetch_hits", "prefetch_wasted", "io_wait_us"};
  EXPECT_EQ(OptionalKeys(BodyKeys(t.ToString())), want);
  EXPECT_EQ(OptionalKeys(BodyKeys(ExplainAnalyze(f.store, *q, t))), want);
}

TEST(ExplainAnalyzeTest, DistributedTraceRecordsShippingAndFleetIo) {
  DirectoryInstance inst = testing::PaperInstance();
  DistributedDirectory fleet =
      DistributedDirectory::Build(
          inst, TopologyConfig::Parse(
                    "shard root-server dc=com\n"
                    "shard research-server dc=research, dc=att, dc=com\n")
                    .TakeValue())
          .TakeValue();
  QueryPtr q = ParseQuery(
                   "(c (dc=com ? sub ? objectClass=organizationalUnit)"
                   "   (dc=com ? sub ? objectClass=QHP))")
                   .TakeValue();
  OpTrace trace;
  std::vector<Entry> r = fleet.Execute(*q, &trace).TakeValue();
  EXPECT_EQ(trace.NodeCount(), q->NodeCount());
  EXPECT_EQ(trace.output_records, r.size());
  // Both atomic leaves span both servers, so records crossed the wire and
  // the leaf traces say so.
  ASSERT_EQ(trace.children.size(), 2u);
  for (const OpTrace& leaf : trace.children) {
    EXPECT_GT(leaf.shipped_records, 0u) << leaf.label;
    EXPECT_GT(leaf.shipped_bytes, 0u) << leaf.label;
  }
  EXPECT_GE(trace.shipped_records,
            trace.children[0].shipped_records +
                trace.children[1].shipped_records);
  ExpectIoAccountingConsistent(trace);
}

}  // namespace
}  // namespace ndq
