#include "index/string_index.h"

#include <gtest/gtest.h>

namespace ndq {
namespace {

TEST(SuffixIndexTest, SubstringSearch) {
  SuffixIndex s;
  s.Add("h jagadish", 1);
  s.Add("tova milo", 2);
  s.Add("divesh srivastava", 3);
  s.Build();
  EXPECT_EQ(s.Search("jag").ValueOrDie(), (std::vector<uint64_t>{1}));
  EXPECT_EQ(s.Search("va").ValueOrDie(), (std::vector<uint64_t>{2, 3}));
  EXPECT_EQ(s.Search("i").ValueOrDie(), (std::vector<uint64_t>{1, 2, 3}));
  EXPECT_TRUE(s.Search("xyz").ValueOrDie().empty());
  // Full-string and suffix needles.
  EXPECT_EQ(s.Search("tova milo").ValueOrDie(), (std::vector<uint64_t>{2}));
  EXPECT_EQ(s.Search("dish").ValueOrDie(), (std::vector<uint64_t>{1}));
}

TEST(SuffixIndexTest, EmptyNeedleMatchesAll) {
  SuffixIndex s;
  s.Add("a", 1);
  s.Add("b", 2);
  s.Build();
  EXPECT_EQ(s.Search("").ValueOrDie(), (std::vector<uint64_t>{1, 2}));
}

TEST(SuffixIndexTest, SearchBeforeBuildIsError) {
  SuffixIndex s;
  s.Add("a", 1);
  EXPECT_FALSE(s.Search("a").ok());
}

TEST(SuffixIndexTest, IpAddressPatterns) {
  SuffixIndex s;
  s.Add("204.178.16.5", 1);
  s.Add("207.140.3.9", 2);
  s.Add("204.178.17.5", 3);
  s.Build();
  EXPECT_EQ(s.Search("204.178.16.").ValueOrDie(),
            (std::vector<uint64_t>{1}));
  EXPECT_EQ(s.Search("204.178.").ValueOrDie(),
            (std::vector<uint64_t>{1, 3}));
}

}  // namespace
}  // namespace ndq
