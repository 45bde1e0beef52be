// Cross-validation of the external-memory engine against the definitional
// reference evaluator: every paper example plus randomized queries in all
// language levels over random forests.

#include <random>

#include <gtest/gtest.h>

#include "exec/parallel_evaluator.h"
#include "gen/random_forest.h"
#include "gen/random_query.h"
#include "query/parser.h"
#include "query/reference.h"
#include "testing/paper_fixture.h"

namespace ndq {
namespace {

// Evaluates `query` both ways over `inst` and expects identical ordered
// results.
void ExpectAgreement(const DirectoryInstance& inst, const Query& query) {
  SimDisk disk(1024);
  EntryStore store = EntryStore::BulkLoad(&disk, inst).TakeValue();
  ParallelEvaluator evaluator(&disk, &store);

  Result<std::vector<Entry>> exec_r = evaluator.EvaluateToEntries(query);
  Result<std::vector<const Entry*>> ref_r = EvaluateReference(query, inst);
  ASSERT_EQ(exec_r.ok(), ref_r.ok()) << query.ToString();
  if (!exec_r.ok()) return;

  const std::vector<Entry>& exec_entries = *exec_r;
  const std::vector<const Entry*>& ref_entries = *ref_r;
  ASSERT_EQ(exec_entries.size(), ref_entries.size()) << query.ToString();
  for (size_t i = 0; i < exec_entries.size(); ++i) {
    EXPECT_EQ(exec_entries[i], *ref_entries[i])
        << query.ToString() << " at index " << i;
  }
}

void ExpectAgreementText(const DirectoryInstance& inst,
                         const std::string& text) {
  Result<QueryPtr> q = ParseQuery(text);
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ExpectAgreement(inst, **q);
}

TEST(ExecOracleTest, PaperExampleQueries) {
  DirectoryInstance inst = testing::PaperInstance();
  const char* queries[] = {
      // Atomic, every scope.
      "(dc=att, dc=com ? sub ? surName=jagadish)",
      "(dc=att, dc=com ? base ? objectClass=*)",
      "(dc=research, dc=att, dc=com ? one ? objectClass=*)",
      "(null-dn ? sub ? objectClass=QHP)",
      "(dc=void, dc=com ? sub ? objectClass=*)",
      // Example 4.1.
      "(- (dc=att, dc=com ? sub ? surName=jagadish)"
      "   (dc=research, dc=att, dc=com ? sub ? surName=jagadish))",
      "(& (dc=com ? sub ? objectClass=dcObject) (dc=att, dc=com ? sub ? "
      "objectClass=*))",
      "(| (dc=com ? base ? objectClass=*) (dc=att, dc=com ? one ? "
      "objectClass=*))",
      // Examples 5.1-5.3.
      "(c (dc=att, dc=com ? sub ? objectClass=organizationalUnit)"
      "   (dc=att, dc=com ? sub ? surName=jagadish))",
      "(p (dc=com ? sub ? objectClass=QHP)"
      "   (dc=com ? sub ? objectClass=TOPSSubscriber))",
      "(a (dc=att, dc=com ? sub ? objectClass=trafficProfile)"
      "   (dc=att, dc=com ? sub ? ou=networkPolicies))",
      "(d (dc=com ? sub ? objectClass=dcObject)"
      "   (dc=com ? sub ? objectClass=QHP))",
      "(dc (dc=att, dc=com ? sub ? objectClass=dcObject)"
      "    (& (dc=att, dc=com ? sub ? sourcePort=25)"
      "       (dc=att, dc=com ? sub ? objectClass=trafficProfile))"
      "    (dc=att, dc=com ? sub ? objectClass=dcObject))",
      "(ac (dc=com ? sub ? uid=jag) (dc=com ? sub ? objectClass=dcObject)"
      "    (dc=com ? sub ? objectClass=dcObject))",
      // Examples 6.1, 6.2 and variants.
      "(g (dc=research, dc=att, dc=com ? sub ? objectClass=SLAPolicyRules)"
      "   count(SLAPVPRef) > 1)",
      "(c (dc=att, dc=com ? sub ? objectClass=TOPSSubscriber)"
      "   (dc=att, dc=com ? sub ? objectClass=QHP) count($2) > 1)",
      "(c (dc=com ? sub ? objectClass=QHP)"
      "   (dc=com ? sub ? objectClass=callAppearance) max($2.timeOut)<=30)",
      "(d (dc=com ? sub ? objectClass=dcObject)"
      "   (dc=com ? sub ? objectClass=organizationalUnit)"
      "   count($2)=max(count($2)))",
      "(g (dc=com ? sub ? objectClass=SLAPolicyRules)"
      "   min(SLARulePriority)=min(min(SLARulePriority)))",
      // Section 7.
      "(vd (dc=att, dc=com ? sub ? objectClass=SLAPolicyRules)"
      "    (& (dc=att, dc=com ? sub ? sourcePort=25)"
      "       (dc=att, dc=com ? sub ? objectClass=trafficProfile))"
      "    SLATPRef)",
      "(dv (dc=att, dc=com ? sub ? objectClass=SLADSAction)"
      "    (g (vd (dc=att, dc=com ? sub ? objectClass=SLAPolicyRules)"
      "           (& (dc=att, dc=com ? sub ? sourcePort=25)"
      "              (dc=att, dc=com ? sub ? objectClass=trafficProfile))"
      "           SLATPRef)"
      "       min(SLARulePriority)=min(min(SLARulePriority)))"
      "    SLADSActRef)",
      "(dv (dc=com ? sub ? objectClass=trafficProfile)"
      "    (dc=com ? sub ? objectClass=SLAPolicyRules) SLATPRef "
      "count($2)>=1)",
      "(vd (dc=com ? sub ? objectClass=SLAPolicyRules)"
      "    (dc=com ? sub ? objectClass=policyValidityPeriod) SLAPVPRef "
      "count($2)=2)",
      // LDAP baseline.
      "(ldap dc=com ? sub ? (&(objectClass=QHP)(!(priority>1))))",
  };
  for (const char* text : queries) {
    SCOPED_TRACE(text);
    ExpectAgreementText(inst, text);
  }
}

TEST(ExecOracleTest, EmptyOperands) {
  DirectoryInstance inst = testing::PaperInstance();
  const char* queries[] = {
      "(c (dc=com ? sub ? objectClass=nothing) (dc=com ? sub ? "
      "objectClass=*))",
      "(c (dc=com ? sub ? objectClass=*) (dc=com ? sub ? "
      "objectClass=nothing))",
      "(a (dc=com ? sub ? objectClass=nothing) (dc=com ? sub ? "
      "objectClass=nothing))",
      "(dc (dc=com ? sub ? objectClass=*) (dc=com ? sub ? objectClass=*)"
      "    (dc=com ? sub ? objectClass=nothing))",
      "(vd (dc=com ? sub ? objectClass=nothing) (dc=com ? sub ? "
      "objectClass=*) SLATPRef)",
      "(g (dc=com ? sub ? objectClass=nothing) count(x) > 0)",
      "(- (dc=com ? sub ? objectClass=nothing) (dc=com ? sub ? "
      "objectClass=*))",
  };
  for (const char* text : queries) {
    SCOPED_TRACE(text);
    ExpectAgreementText(inst, text);
  }
}

TEST(ExecOracleTest, SelfWitnessExcluded) {
  // An entry matching both operands must not witness itself (ancestry is
  // proper); overlap of L1 and L2 exercises the label-union path.
  DirectoryInstance inst = testing::PaperInstance();
  const char* queries[] = {
      "(a (dc=com ? sub ? objectClass=dcObject) (dc=com ? sub ? "
      "objectClass=dcObject))",
      "(d (dc=com ? sub ? objectClass=dcObject) (dc=com ? sub ? "
      "objectClass=dcObject))",
      "(p (dc=com ? sub ? objectClass=dcObject) (dc=com ? sub ? "
      "objectClass=dcObject))",
      "(c (dc=com ? sub ? objectClass=dcObject) (dc=com ? sub ? "
      "objectClass=dcObject))",
      "(ac (dc=com ? sub ? objectClass=*) (dc=com ? sub ? objectClass=*)"
      "    (dc=com ? sub ? objectClass=*))",
      "(dc (dc=com ? sub ? objectClass=*) (dc=com ? sub ? objectClass=*)"
      "    (dc=com ? sub ? objectClass=*))",
  };
  for (const char* text : queries) {
    SCOPED_TRACE(text);
    ExpectAgreementText(inst, text);
  }
}

// Property test: random queries at each language level over random
// forests must agree with the oracle.
struct PropertyParams {
  int seed;
  Language max_language;
};

class ExecPropertyTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ExecPropertyTest, RandomQueriesAgreeWithOracle) {
  auto [seed, lang_int] = GetParam();
  std::mt19937 rng(seed);
  gen::RandomForestOptions fopt;
  fopt.seed = static_cast<uint32_t>(seed);
  fopt.num_entries = 150;
  DirectoryInstance inst = gen::RandomForest(fopt);

  gen::RandomQueryOptions qopt;
  qopt.max_language = static_cast<Language>(lang_int);
  qopt.max_depth = 3;

  for (int i = 0; i < 40; ++i) {
    QueryPtr q = gen::RandomQuery(&rng, inst, qopt);
    SCOPED_TRACE(q->ToString());
    // The generated query must also round-trip through the parser.
    Result<QueryPtr> reparsed = ParseQuery(q->ToString());
    ASSERT_TRUE(reparsed.ok())
        << q->ToString() << ": " << reparsed.status().ToString();
    ASSERT_EQ((*reparsed)->ToString(), q->ToString());
    ExpectAgreement(inst, *q);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndLanguages, ExecPropertyTest,
    ::testing::Combine(::testing::Values(11, 22, 33, 44),
                       ::testing::Values(1, 2, 3, 4)));

TEST(ExecOracleTest, DeepChainForestWithTinyStackWindow) {
  // A pathological root-to-leaf chain with a stack window far smaller than
  // the chain forces spilling; results must be unaffected.
  DirectoryInstance inst(Schema(), /*validate=*/false);
  Dn dn;
  for (int i = 0; i < 300; ++i) {
    dn = dn.IsNull() ? Dn::Make({Rdn::Single("dc", "n0").TakeValue()})
                           .TakeValue()
                     : dn.Child(Rdn::Single("cn", "n" + std::to_string(i))
                                    .TakeValue());
    Entry e(dn);
    e.AddClass(i % 2 == 0 ? "even" : "odd");
    e.AddInt("x", i);
    ASSERT_TRUE(inst.Add(std::move(e)).ok());
  }
  SimDisk disk(512);
  EntryStore store = EntryStore::BulkLoad(&disk, inst).TakeValue();
  ExecOptions opt;
  opt.stack_window = 4;  // far smaller than the 300-deep chain
  ParallelEvaluator evaluator(&disk, &store, opt);

  for (const char* text : {
           "(a ( ? sub ? objectClass=even) ( ? sub ? objectClass=odd))",
           "(d ( ? sub ? objectClass=even) ( ? sub ? objectClass=odd))",
           "(c ( ? sub ? objectClass=even) ( ? sub ? objectClass=odd))",
           "(p ( ? sub ? objectClass=even) ( ? sub ? objectClass=odd))",
           "(a ( ? sub ? objectClass=even) ( ? sub ? objectClass=odd) "
           "count($2)=149)",
           "(d ( ? sub ? objectClass=even) ( ? sub ? objectClass=odd) "
           "sum($2.x)>=22201)",
           "(ac ( ? sub ? objectClass=even) ( ? sub ? x<10) "
           "( ? sub ? x=20))",
           "(dc ( ? sub ? objectClass=even) ( ? sub ? x>290) "
           "( ? sub ? x=295))",
       }) {
    SCOPED_TRACE(text);
    Result<QueryPtr> q = ParseQuery(text);
    ASSERT_TRUE(q.ok());
    Result<std::vector<Entry>> exec_r = evaluator.EvaluateToEntries(**q);
    Result<std::vector<const Entry*>> ref_r = EvaluateReference(**q, inst);
    ASSERT_TRUE(exec_r.ok()) << exec_r.status().ToString();
    ASSERT_TRUE(ref_r.ok());
    ASSERT_EQ(exec_r->size(), ref_r->size());
    for (size_t i = 0; i < exec_r->size(); ++i) {
      EXPECT_EQ((*exec_r)[i], *(*ref_r)[i]);
    }
  }
}

// Page-size sweep: tiny pages force records to span page boundaries in
// every structure (store, runs, spilled stacks); results must not change.
class PageSizeOracleTest : public ::testing::TestWithParam<size_t> {};

TEST_P(PageSizeOracleTest, ResultsIndependentOfPageSize) {
  DirectoryInstance inst = testing::PaperInstance();
  SimDisk disk(GetParam());
  EntryStore store = EntryStore::BulkLoad(&disk, inst).TakeValue();
  ExecOptions opt;
  opt.stack_window = 8;
  ParallelEvaluator evaluator(&disk, &store, opt);
  const char* queries[] = {
      "(dc=com ? sub ? objectClass=*)",
      "(dc (dc=att, dc=com ? sub ? objectClass=dcObject)"
      "    (& (dc=att, dc=com ? sub ? sourcePort=25)"
      "       (dc=att, dc=com ? sub ? objectClass=trafficProfile))"
      "    (dc=att, dc=com ? sub ? objectClass=dcObject))",
      "(dv (dc=att, dc=com ? sub ? objectClass=SLADSAction)"
      "    (g (vd (dc=att, dc=com ? sub ? objectClass=SLAPolicyRules)"
      "           (& (dc=att, dc=com ? sub ? sourcePort=25)"
      "              (dc=att, dc=com ? sub ? objectClass=trafficProfile))"
      "           SLATPRef)"
      "       min(SLARulePriority)=min(min(SLARulePriority)))"
      "    SLADSActRef)",
      "(d (dc=com ? sub ? objectClass=dcObject)"
      "   (dc=com ? sub ? objectClass=organizationalUnit)"
      "   count($2)=max(count($2)))",
  };
  for (const char* text : queries) {
    SCOPED_TRACE(text);
    QueryPtr q = ParseQuery(text).TakeValue();
    Result<std::vector<Entry>> exec_r = evaluator.EvaluateToEntries(*q);
    ASSERT_TRUE(exec_r.ok()) << exec_r.status().ToString();
    std::vector<const Entry*> ref =
        EvaluateReference(*q, inst).TakeValue();
    ASSERT_EQ(exec_r->size(), ref.size());
    for (size_t i = 0; i < ref.size(); ++i) {
      EXPECT_EQ((*exec_r)[i], *ref[i]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(PageSizes, PageSizeOracleTest,
                         ::testing::Values(96, 256, 1024, 8192));

TEST(ExecOracleTest, NoDiskPagesLeak) {
  // Whole-query evaluation frees every intermediate list.
  DirectoryInstance inst = testing::PaperInstance();
  SimDisk disk(1024);
  EntryStore store = EntryStore::BulkLoad(&disk, inst).TakeValue();
  size_t baseline = disk.live_pages();
  ParallelEvaluator evaluator(&disk, &store);
  Result<QueryPtr> q = ParseQuery(
      "(dv (dc=att, dc=com ? sub ? objectClass=SLADSAction)"
      "    (g (vd (dc=att, dc=com ? sub ? objectClass=SLAPolicyRules)"
      "           (& (dc=att, dc=com ? sub ? sourcePort=25)"
      "              (dc=att, dc=com ? sub ? objectClass=trafficProfile))"
      "           SLATPRef)"
      "       min(SLARulePriority)=min(min(SLARulePriority)))"
      "    SLADSActRef)");
  ASSERT_TRUE(q.ok());
  for (int i = 0; i < 3; ++i) {
    Result<std::vector<Entry>> r = evaluator.EvaluateToEntries(**q);
    ASSERT_TRUE(r.ok());
    ASSERT_EQ(r->size(), 1u);
  }
  EXPECT_EQ(disk.live_pages(), baseline);
}

}  // namespace
}  // namespace ndq
