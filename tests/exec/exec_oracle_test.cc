// Cross-validation of the external-memory engine against the definitional
// reference evaluator: every paper example plus randomized queries in all
// language levels over random forests.

#include <algorithm>
#include <random>

#include <gtest/gtest.h>

#include "exec/atomic.h"
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

// Serialized records served as they are, in key order: a store whose
// pages hold records SerializeEntry would not write.
class RecordSource : public EntrySource {
 public:
  explicit RecordSource(std::vector<std::string> records)
      : records_(std::move(records)) {}

  Status ScanRange(std::string_view start_key, std::string_view end_key,
                   ScanFilters, const RecordFn& fn,
                   uint64_t*) const override {
    for (const std::string& rec : records_) {
      NDQ_ASSIGN_OR_RETURN(std::string_view key, PeekEntryKey(rec));
      if (key < start_key || (!end_key.empty() && key >= end_key)) continue;
      NDQ_RETURN_IF_ERROR(fn(rec));
    }
    return Status::OK();
  }
  uint64_t num_entries() const override { return records_.size(); }

 private:
  std::vector<std::string> records_;
};

// An atomic scan matches each in-scope record in place, as the Entry it
// decodes to: a non-canonical record (values out of order and repeated)
// matches as its canonical entry and is written out as read, and a
// record DeserializeEntry rejects still fails the scan that reaches it.
TEST(ExecRecordTest, ScansMatchRecordsAsTheirEntries) {
  auto record = [](const char* dn, std::vector<int64_t> xs,
                   uint8_t kind = 0) {
    std::string rec;
    ByteWriter w(&rec);
    w.PutString(testing::D(dn).HierKey());
    w.PutVarint(1);
    w.PutString("x");
    w.PutVarint(xs.size());
    for (int64_t x : xs) {
      w.PutU8(kind);
      w.PutSigned(x);
    }
    return rec;
  };
  const std::string odd = record("cn=b, dc=com", {9, 2, 9});
  std::vector<std::string> records = {
      record("dc=com", {1}), record("cn=a, dc=org", {3}), odd,
      record("cn=c, dc=com", {2}), record("cn=z, dc=org", {2}, /*kind=*/7)};
  std::sort(records.begin(), records.end(),
            [](const std::string& a, const std::string& b) {
              return *PeekEntryKey(a) < *PeekEntryKey(b);
            });
  RecordSource source(std::move(records));
  SimDisk disk(1024);
  auto scan = [&](const char* base, Scope scope, const char* filter) {
    return EvalAtomic(&disk, source, testing::D(base), scope,
                      AtomicFilter::Parse(filter).TakeValue());
  };

  Result<EntryList> high = scan("dc=com", Scope::kSub, "x>=9");
  ASSERT_TRUE(high.ok()) << high.status().ToString();
  Result<std::vector<Entry>> got = ReadEntryList(&disk, *high);
  ASSERT_TRUE(got.ok());
  ASSERT_EQ(got->size(), 1u);
  Entry want(testing::D("cn=b, dc=com"));
  want.AddInt("x", 2);
  want.AddInt("x", 9);
  EXPECT_EQ((*got)[0], want);
  RunReader reader(&disk, *high);
  std::string rec;
  ASSERT_TRUE(reader.Next(&rec).ValueOrDie());
  EXPECT_EQ(rec, odd);

  Result<EntryList> twos = scan("dc=com", Scope::kSub, "x=2");
  ASSERT_TRUE(twos.ok());
  EXPECT_EQ(twos->num_records, 2u);

  // dc=org's subtree reaches the record with a bad kind byte; the base
  // scope of its sibling does not.
  EXPECT_EQ(scan("dc=org", Scope::kSub, "x=3").status().code(),
            StatusCode::kCorruption);
  Result<EntryList> sibling = scan("cn=a, dc=org", Scope::kBase, "x=3");
  ASSERT_TRUE(sibling.ok());
  EXPECT_EQ(sibling->num_records, 1u);
}

}  // namespace
}  // namespace ndq
