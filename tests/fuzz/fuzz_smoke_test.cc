// Smoke tests for the differential fuzzer itself: determinism of case
// generation, a small clean fuzzing run through every oracle, the
// delta-debugging shrinkers against synthetic failure predicates (so they
// are testable without a real engine bug), and the .ndqrepro round trip.

#include <cstdint>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/dn.h"
#include "core/instance.h"
#include "filter/atomic_filter.h"
#include "fuzz/fuzz.h"
#include "fuzz/repro.h"
#include "query/ast.h"
#include "query/parser.h"

namespace ndq {
namespace fuzz {
namespace {

Dn MustDn(const std::string& text) {
  Result<Dn> dn = Dn::Parse(text);
  EXPECT_TRUE(dn.ok()) << text << ": " << dn.status().ToString();
  return *dn;
}

Entry MakeEntry(const std::string& dn_text,
                const std::string& cls = "class0") {
  Entry e(MustDn(dn_text));
  e.AddClass(cls);
  return e;
}

// A five-entry forest: two children under the root, one grandchild each.
DirectoryInstance SmallInstance() {
  DirectoryInstance inst(Schema(), /*validate=*/false);
  EXPECT_TRUE(inst.Add(MakeEntry("dc=n0")).ok());
  EXPECT_TRUE(inst.Add(MakeEntry("cn=a, dc=n0")).ok());
  EXPECT_TRUE(inst.Add(MakeEntry("cn=b, dc=n0")).ok());
  EXPECT_TRUE(inst.Add(MakeEntry("cn=g, cn=a, dc=n0")).ok());
  EXPECT_TRUE(inst.Add(MakeEntry("cn=h, cn=b, dc=n0")).ok());
  return inst;
}

TEST(CaseSeedTest, DeterministicAndWellSpread) {
  EXPECT_EQ(CaseSeed(42, 7), CaseSeed(42, 7));
  std::set<uint64_t> seen;
  for (uint64_t i = 0; i < 256; ++i) {
    seen.insert(CaseSeed(1, i));
  }
  EXPECT_EQ(seen.size(), 256u);
  EXPECT_NE(CaseSeed(1, 0), CaseSeed(2, 0));
}

TEST(GenTest, SameCaseSeedSameCase) {
  FuzzCaseOptions gen;
  gen.num_entries = 30;
  const uint64_t cs = CaseSeed(9, 3);
  DirectoryInstance a = GenInstance(cs, gen);
  DirectoryInstance b = GenInstance(cs, gen);
  ASSERT_EQ(a.size(), b.size());
  for (const Entry* e : a.EntriesInScope(Dn(), Scope::kSub)) {
    EXPECT_NE(b.Find(e->dn()), nullptr) << e->dn().ToString();
  }
  QueryPtr qa = GenQuery(cs, a, gen);
  QueryPtr qb = GenQuery(cs, b, gen);
  ASSERT_NE(qa, nullptr);
  ASSERT_NE(qb, nullptr);
  EXPECT_EQ(qa->ToString(), qb->ToString());
}

// A short full-matrix run (distributed + fault oracles included) must be
// divergence-free and byte-for-byte repeatable.
TEST(RunFuzzTest, SmallRunIsCleanAndDeterministic) {
  FuzzOptions opt;
  opt.seed = 7;
  opt.iterations = 4;
  opt.gen.num_entries = 25;
  FuzzReport first = RunFuzz(opt);
  EXPECT_EQ(first.cases, 4u);
  EXPECT_GT(first.checks, 0u);
  for (const Divergence& d : first.divergences) {
    ADD_FAILURE() << d.check << ": " << d.detail
                  << "\n  query: " << d.repro.query_text;
  }
  FuzzReport second = RunFuzz(opt);
  EXPECT_EQ(first.cases, second.cases);
  EXPECT_EQ(first.checks, second.checks);
  EXPECT_EQ(first.divergences.size(), second.divergences.size());
}

// Synthetic predicate: "the instance still contains cn=g, cn=a, dc=n0".
// The shrinker must keep exactly the ancestor chain of that entry (the
// namespace stays prefix-closed) and drop the unrelated subtree.
TEST(ShrinkInstanceTest, ReducesToAncestorChain) {
  DirectoryInstance inst = SmallInstance();
  QueryPtr query = Query::Atomic(Dn(), Scope::kSub,
                                 AtomicFilter::Presence("cn"));
  const Dn needle = MustDn("cn=g, cn=a, dc=n0");
  FailurePredicate fails = [&](const DirectoryInstance& cand,
                               const QueryPtr&) {
    return cand.Find(needle) != nullptr;
  };
  DirectoryInstance shrunk = ShrinkInstance(inst, query, fails);
  EXPECT_EQ(shrunk.size(), 3u);
  EXPECT_NE(shrunk.Find(needle), nullptr);
  EXPECT_NE(shrunk.Find(MustDn("dc=n0")), nullptr);
  EXPECT_NE(shrunk.Find(MustDn("cn=a, dc=n0")), nullptr);
  EXPECT_EQ(shrunk.Find(MustDn("cn=b, dc=n0")), nullptr);
}

// Synthetic predicate: "the query tree still mentions ref=*". The
// shrinker must hoist that leaf out of the surrounding boolean operators.
TEST(ShrinkQueryTest, HoistsToFailingLeaf) {
  DirectoryInstance inst = SmallInstance();
  QueryPtr ref_leaf = Query::Atomic(Dn(), Scope::kSub,
                                    AtomicFilter::Presence("ref"));
  const std::string ref_text = ref_leaf->ToString();
  QueryPtr other = Query::Atomic(Dn(), Scope::kSub,
                                 AtomicFilter::Presence("x"));
  QueryPtr third = Query::Atomic(Dn(), Scope::kOne,
                                 AtomicFilter::Presence("tag"));
  QueryPtr query = Query::And(Query::Or(std::move(ref_leaf),
                                        std::move(other)),
                              std::move(third));
  FailurePredicate fails = [](const DirectoryInstance&,
                              const QueryPtr& cand) {
    return cand->ToString().find("ref=*") != std::string::npos;
  };
  QueryPtr shrunk = ShrinkQuery(inst, query, fails);
  ASSERT_NE(shrunk, nullptr);
  EXPECT_EQ(shrunk->ToString(), ref_text);
}

TEST(ReproTest, QuoteUnquoteRoundTripsAdversarialStrings) {
  const std::string cases[] = {
      "",
      "plain",
      "back\\slash and \"quotes\"",
      "edge  spaces  ",
      " lead, trail\\",
      std::string("nul\x01tab\tnewline\ncr\r"),
      "cn=\\ x\\,y\\=z",
  };
  for (const std::string& s : cases) {
    std::string quoted = QuoteString(s);
    size_t pos = 0;
    Result<std::string> back = UnquoteString(quoted, &pos);
    ASSERT_TRUE(back.ok()) << quoted << ": " << back.status().ToString();
    EXPECT_EQ(*back, s) << quoted;
    EXPECT_EQ(pos, quoted.size());
  }
}

TEST(ReproTest, TextAndFileRoundTrip) {
  Repro repro;
  repro.check = "dn-roundtrip";
  repro.seed = 12345;
  repro.query_text = "(null-dn ? sub ? objectClass=*)";
  Entry root(MustDn("dc=n0"));
  root.AddClass("class0");
  root.AddInt("x", -9223372036854775807LL - 1);
  repro.entries.push_back(root);
  Entry weird(MustDn("cn=\\ lead\\,er\\=x, dc=n0"));
  weird.AddClass("class1");
  weird.AddString("note", "has \"quotes\" and \\ and \n newline");
  weird.AddDnRef("ref", MustDn("dc=n0"));
  repro.entries.push_back(weird);

  const std::string text = repro.ToText();
  Result<Repro> parsed = Repro::FromText(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->ToText(), text);
  EXPECT_EQ(parsed->check, "dn-roundtrip");
  EXPECT_EQ(parsed->seed, 12345u);
  ASSERT_EQ(parsed->entries.size(), 2u);
  EXPECT_EQ(parsed->entries[1].dn().ToString(), weird.dn().ToString());

  const std::string path =
      testing::TempDir() + "/fuzz_smoke_roundtrip.ndqrepro";
  ASSERT_TRUE(repro.SaveTo(path).ok());
  Result<Repro> loaded = Repro::LoadFrom(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->ToText(), text);
  std::remove(path.c_str());

  Result<DirectoryInstance> inst = parsed->BuildInstance();
  ASSERT_TRUE(inst.ok()) << inst.status().ToString();
  EXPECT_EQ(inst->size(), 2u);
}

TEST(ReproTest, MalformedInputIsRejected) {
  EXPECT_FALSE(Repro::FromText("").ok());
  EXPECT_FALSE(Repro::FromText("not-a-repro 1\n").ok());
  EXPECT_FALSE(Repro::FromText("ndqrepro 1\nattr x int 3\n").ok());
  EXPECT_FALSE(
      Repro::FromText("ndqrepro 1\nentry \"dc=n0\"\nattr x float 1\nend\n")
          .ok());
  EXPECT_FALSE(
      Repro::FromText("ndqrepro 1\nentry \"dc=n0\"\nattr x int z\nend\n")
          .ok());
  EXPECT_FALSE(Repro::FromText("ndqrepro 1\nseed abc\n").ok());
  EXPECT_FALSE(Repro::FromText("ndqrepro 1\nseed\n").ok());
  EXPECT_FALSE(Repro::FromText("ndqrepro 1\nseed -1\n").ok());
  EXPECT_TRUE(Repro::FromText("ndqrepro 1\nseed 18446744073709551615\n").ok());
}

// A healthy handcrafted repro must replay clean through the full matrix.
TEST(ReplayTest, CleanReproHasNoFailures) {
  Repro repro;
  repro.check = "smoke";
  repro.seed = 1;
  repro.query_text = "(null-dn ? sub ? objectClass=*)";
  Entry root(MustDn("dc=n0"));
  root.AddClass("class0");
  repro.entries.push_back(root);
  Entry child(MustDn("cn=a, dc=n0"));
  child.AddClass("class1");
  child.AddInt("x", 5);
  repro.entries.push_back(child);

  FuzzOptions opt;
  Result<std::vector<CheckFailure>> failures = ReplayRepro(repro, opt);
  ASSERT_TRUE(failures.ok()) << failures.status().ToString();
  for (const CheckFailure& f : *failures) {
    ADD_FAILURE() << f.check << ": " << f.detail;
  }
}

// An unparseable query must surface as an error, not a crash.
TEST(ReplayTest, BadQueryTextIsAnError) {
  Repro repro;
  repro.query_text = "(this is not a query";
  Entry root(MustDn("dc=n0"));
  root.AddClass("class0");
  repro.entries.push_back(root);
  FuzzOptions opt;
  EXPECT_FALSE(ReplayRepro(repro, opt).ok());
}

}  // namespace
}  // namespace fuzz
}  // namespace ndq
