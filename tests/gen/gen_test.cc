// Tests for the synthetic data and query generators themselves: the
// benchmark conclusions are only as good as the workloads.

#include <random>
#include <set>

#include <gtest/gtest.h>

#include "gen/dif_gen.h"
#include "gen/paper_data.h"
#include "gen/random_forest.h"
#include "gen/random_query.h"
#include "query/parser.h"

namespace ndq {
namespace {

TEST(PaperDataTest, SchemaValidatesEveryFixtureEntry) {
  DirectoryInstance inst = gen::PaperInstance();
  const Schema& schema = inst.schema();
  for (const auto& [key, entry] : inst) {
    (void)key;
    Status s = schema.ValidateEntry(entry);
    EXPECT_TRUE(s.ok()) << entry.dn().ToString() << ": " << s.ToString();
  }
}

TEST(PaperDataTest, FixtureIsPrefixClosed) {
  DirectoryInstance inst = gen::PaperInstance();
  for (const auto& [key, entry] : inst) {
    (void)key;
    Dn parent = entry.dn().Parent();
    if (!parent.IsNull()) {
      EXPECT_NE(inst.Find(parent), nullptr)
          << "missing parent of " << entry.dn().ToString();
    }
  }
}

TEST(DifGenTest, SizeMatchesPrediction) {
  for (int orgs : {1, 2, 4}) {
    for (int subs : {1, 3}) {
      gen::DifOptions opt;
      opt.num_orgs = orgs;
      opt.subdomains_per_org = subs;
      DirectoryInstance inst = gen::GenerateDif(opt);
      EXPECT_EQ(inst.size(), gen::ExpectedDifSize(opt))
          << "orgs=" << orgs << " subs=" << subs;
    }
  }
}

TEST(DifGenTest, EntriesValidateAndReferencesResolve) {
  gen::DifOptions opt;
  opt.num_orgs = 2;
  DirectoryInstance inst = gen::GenerateDif(opt);
  const Schema& schema = inst.schema();
  size_t refs_checked = 0;
  for (const auto& [key, entry] : inst) {
    (void)key;
    ASSERT_TRUE(schema.ValidateEntry(entry).ok()) << entry.dn().ToString();
    // Every DN-valued reference points at an existing entry.
    for (const char* attr :
         {"SLATPRef", "SLAPVPRef", "SLADSActRef", "SLAExceptionRef"}) {
      for (const Value& v : entry.Values(attr)) {
        Dn target = Dn::Parse(v.AsString()).TakeValue();
        EXPECT_NE(inst.Find(target), nullptr)
            << attr << " dangling in " << entry.dn().ToString();
        ++refs_checked;
      }
    }
  }
  EXPECT_GT(refs_checked, 50u);
}

TEST(DifGenTest, DeterministicPerSeed) {
  gen::DifOptions opt;
  opt.seed = 42;
  DirectoryInstance a = gen::GenerateDif(opt);
  DirectoryInstance b = gen::GenerateDif(opt);
  ASSERT_EQ(a.size(), b.size());
  auto ita = a.begin();
  auto itb = b.begin();
  for (; ita != a.end(); ++ita, ++itb) {
    ASSERT_EQ(ita->second, itb->second);
  }
}

TEST(RandomForestTest, PrefixClosedAndSized) {
  gen::RandomForestOptions opt;
  opt.seed = 9;
  opt.num_entries = 500;
  DirectoryInstance inst = gen::RandomForest(opt);
  EXPECT_EQ(inst.size(), 500u);
  size_t max_depth = 0;
  for (const auto& [key, entry] : inst) {
    (void)key;
    max_depth = std::max(max_depth, entry.dn().depth());
    Dn parent = entry.dn().Parent();
    if (!parent.IsNull()) {
      EXPECT_NE(inst.Find(parent), nullptr);
    }
    // rdn(r) subseteq val(r) holds even without schema validation.
    const Rdn rdn = entry.dn().rdn();
    for (const auto& [attr, value] : rdn.pairs()) {
      EXPECT_TRUE(entry.HasPair(attr, Value::String(value)));
    }
  }
  EXPECT_GT(max_depth, 3u);  // actually hierarchical, not flat
}

TEST(RandomForestTest, ReferencesPointAtInstanceEntries) {
  gen::RandomForestOptions opt;
  opt.seed = 11;
  opt.num_entries = 300;
  DirectoryInstance inst = gen::RandomForest(opt);
  size_t refs = 0;
  for (const auto& [key, entry] : inst) {
    (void)key;
    for (const Value& v : entry.Values("ref")) {
      Dn target = Dn::Parse(v.AsString()).TakeValue();
      EXPECT_NE(inst.Find(target), nullptr);
      ++refs;
    }
  }
  EXPECT_GT(refs, 50u);  // the vd/dv benches have real work to do
}

TEST(RandomQueryTest, GeneratedQueriesParseAndClassify) {
  std::mt19937 rng(21);
  gen::RandomForestOptions fopt;
  fopt.num_entries = 100;
  DirectoryInstance inst = gen::RandomForest(fopt);
  std::set<Language> seen;
  for (int lang = 1; lang <= 4; ++lang) {
    gen::RandomQueryOptions qopt;
    qopt.max_language = static_cast<Language>(lang);
    for (int i = 0; i < 50; ++i) {
      QueryPtr q = gen::RandomQuery(&rng, inst, qopt);
      // Round-trips through the parser.
      Result<QueryPtr> back = ParseQuery(q->ToString());
      ASSERT_TRUE(back.ok()) << q->ToString();
      EXPECT_EQ((*back)->ToString(), q->ToString());
      // Never exceeds the requested language.
      EXPECT_LE(static_cast<int>(q->MinimalLanguage()), lang)
          << q->ToString();
      seen.insert(q->MinimalLanguage());
    }
  }
  // The generator actually produces the higher levels, not only atoms.
  EXPECT_GE(seen.size(), 4u);
}

}  // namespace
}  // namespace ndq
