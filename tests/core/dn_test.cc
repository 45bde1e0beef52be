#include "core/dn.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "gen/random_forest.h"

// Counts heap allocations, so a test can check what one call allocates.
// Not inlined, so the compiler does not pair a caller's new with free().
static std::atomic<long> g_allocations{0};

__attribute__((noinline)) void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace ndq {
namespace {

Dn MustParse(const std::string& text) {
  Result<Dn> r = Dn::Parse(text);
  EXPECT_TRUE(r.ok()) << text << ": " << r.status().ToString();
  return r.TakeValue();
}

TEST(DnTest, ParseSimple) {
  Dn dn = MustParse("dc=att, dc=com");
  EXPECT_EQ(dn.depth(), 2u);
  EXPECT_EQ(dn.ToString(), "dc=att, dc=com");
  EXPECT_EQ(dn.rdn().pairs().size(), 1u);
  EXPECT_EQ(dn.rdn().pairs()[0].first, "dc");
  EXPECT_EQ(dn.rdn().pairs()[0].second, "att");
}

TEST(DnTest, ParseDeep) {
  Dn dn = MustParse(
      "CANumber=9733608751, QHPName=workinghours, uid=jag, "
      "ou=userProfiles, dc=research, dc=att, dc=com");
  EXPECT_EQ(dn.depth(), 7u);
  EXPECT_EQ(dn.Parent().ToString(),
            "QHPName=workinghours, uid=jag, ou=userProfiles, dc=research, "
            "dc=att, dc=com");
}

TEST(DnTest, NullDn) {
  Dn dn = MustParse("");
  EXPECT_TRUE(dn.IsNull());
  EXPECT_EQ(dn.depth(), 0u);
  EXPECT_EQ(dn.HierKey(), "");
  EXPECT_EQ(dn.ToString(), "");
}

TEST(DnTest, WhitespaceInsensitive) {
  EXPECT_EQ(MustParse("dc=att,dc=com"), MustParse("dc=att , dc=com"));
  EXPECT_EQ(MustParse("  dc=att, dc=com  "), MustParse("dc=att,dc=com"));
}

TEST(DnTest, MultiValuedRdnIsASet) {
  // A multi-valued RDN is a *set* of pairs: order does not matter.
  Dn a = MustParse("cn=x+sn=y, dc=com");
  Dn b = MustParse("sn=y+cn=x, dc=com");
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.HierKey(), b.HierKey());
  EXPECT_EQ(a.rdn().pairs().size(), 2u);
}

TEST(DnTest, EscapedSpecialCharacters) {
  Dn dn = MustParse(R"(cn=doe\, john, dc=com)");
  EXPECT_EQ(dn.depth(), 2u);
  EXPECT_EQ(dn.rdn().pairs()[0].second, "doe, john");
  // Round-trips through ToString/Parse.
  EXPECT_EQ(MustParse(dn.ToString()), dn);

  Dn plus = MustParse(R"(cn=a\+b, dc=com)");
  EXPECT_EQ(plus.rdn().pairs()[0].second, "a+b");
  EXPECT_EQ(MustParse(plus.ToString()), plus);
}

// Regression (fuzzer corpus `dn-roundtrip`): values with leading/trailing
// spaces, backslash runs, and escaped delimiters must survive
// parse -> print -> parse unchanged.
TEST(DnTest, EscapedEdgeValuesRoundTrip) {
  struct Case {
    const char* text;   // input to Parse
    const char* value;  // expected raw RDN value at the leaf
  };
  const Case cases[] = {
      {R"(cn=\ leading, dc=com)", " leading"},
      {R"(cn=trailing\ , dc=com)", "trailing "},
      {R"(cn=\ both\ , dc=com)", " both "},
      {R"(cn=\\, dc=com)", "\\"},
      {R"(cn=a\\\,b, dc=com)", "a\\,b"},
      {R"(cn=a\=b, dc=com)", "a=b"},
      {R"(cn=\,\=\+\\, dc=com)", ",=+\\"},
      {R"(cn=mid dle, dc=com)", "mid dle"},
  };
  for (const Case& c : cases) {
    Dn dn = MustParse(c.text);
    ASSERT_EQ(dn.rdn().pairs()[0].second, c.value) << c.text;
    // parse -> print -> parse is the identity.
    EXPECT_EQ(MustParse(dn.ToString()), dn) << c.text << " -> "
                                            << dn.ToString();
  }
}

TEST(DnTest, BuiltValuesWithEdgeSpacesRoundTrip) {
  // Values constructed programmatically (not via Parse) must print in a
  // form Parse maps back to the same value.
  for (const char* raw : {" leading", "trailing ", " ", "  ", "a ", " a",
                          "back\\slash ", "\\ ", "a\\", "x  y"}) {
    Dn dn = Dn::Make({Rdn::Single("cn", raw).TakeValue()}).TakeValue();
    Dn back = MustParse(dn.ToString());
    ASSERT_EQ(back, dn) << '[' << raw << "] printed as " << dn.ToString();
    EXPECT_EQ(back.rdn().pairs()[0].second, raw);
  }
}

TEST(DnTest, TrailingSpaceAfterEscapedBackslashIsTrimmed) {
  // In "cn=a\\ " the backslash is escaped, so the space is NOT: it must be
  // trimmed (the old single-char lookback kept it).
  Dn dn = MustParse("cn=a\\\\ , dc=com");
  EXPECT_EQ(dn.rdn().pairs()[0].second, "a\\");
  // Odd-length run: the space IS escaped and survives.
  Dn kept = MustParse("cn=a\\\\\\ , dc=com");
  EXPECT_EQ(kept.rdn().pairs()[0].second, "a\\ ");
}

TEST(DnTest, KeyOrderWithEscapedDelimiters) {
  // Escaped delimiters live unescaped inside HierKeys; since RDN values may
  // not contain control bytes, the key separators (0x1e/0x1f) still yield
  // prefix-of-descendant order for such values.
  Dn parent = MustParse(R"(o=a\,b\=c, dc=com)");
  EXPECT_EQ(parent.rdn().pairs()[0].second, "a,b=c");
  Dn child = MustParse(R"(cn=x\+y, o=a\,b\=c, dc=com)");
  Dn grand = MustParse(R"(uid=z\\ , cn=x\+y, o=a\,b\=c, dc=com)");
  EXPECT_TRUE(parent.IsParentOf(child));
  EXPECT_TRUE(parent.IsAncestorOf(grand));
  EXPECT_TRUE(KeyIsAncestor(parent.HierKey(), grand.HierKey()));
  EXPECT_LT(parent.HierKey(), child.HierKey());
  EXPECT_LT(child.HierKey(), grand.HierKey());
  EXPECT_LT(grand.HierKey(), KeySubtreeEnd(parent.HierKey()));
  // A sibling of `parent` whose value string-extends it stays outside.
  Dn sib = MustParse(R"(o=a\,b\=cd, dc=com)");
  EXPECT_FALSE(KeyIsAncestor(parent.HierKey(), sib.HierKey()));
  EXPECT_TRUE(sib.HierKey() >= KeySubtreeEnd(parent.HierKey()) ||
              sib.HierKey() < parent.HierKey());
}

TEST(DnTest, ParseErrors) {
  EXPECT_FALSE(Dn::Parse("dc").ok());             // missing '='
  EXPECT_FALSE(Dn::Parse("dc=,dc=com").ok());     // empty value
  EXPECT_FALSE(Dn::Parse("=x, dc=com").ok());     // empty attribute
  EXPECT_FALSE(Dn::Parse("1dc=x").ok());          // attr starts with digit
  EXPECT_FALSE(Dn::Parse("dc=x\\").ok());         // dangling backslash
  EXPECT_FALSE(Dn::Parse("dc=a\x01").ok());       // control byte
}

TEST(DnTest, ParentChildNavigation) {
  Dn com = MustParse("dc=com");
  Dn att = MustParse("dc=att, dc=com");
  Dn research = MustParse("dc=research, dc=att, dc=com");

  EXPECT_EQ(att.Parent(), com);
  EXPECT_TRUE(com.Parent().IsNull());
  EXPECT_EQ(com.Child(Rdn::Single("dc", "att").TakeValue()), att);

  EXPECT_TRUE(com.IsParentOf(att));
  EXPECT_TRUE(com.IsAncestorOf(att));
  EXPECT_TRUE(com.IsAncestorOf(research));
  EXPECT_FALSE(com.IsParentOf(research));
  EXPECT_TRUE(research.IsDescendantOf(com));
  EXPECT_TRUE(att.IsChildOf(com));
  EXPECT_FALSE(att.IsAncestorOf(att));  // ancestry is proper
  EXPECT_FALSE(att.IsAncestorOf(com));
}

TEST(DnTest, HierKeyParentIsPrefixOfChild) {
  // The property everything else rests on (Sec. 4.2): under the reverse-DN
  // key, a parent's key + separator is a prefix of each descendant's key.
  Dn parent = MustParse("dc=att, dc=com");
  Dn child = MustParse("ou=people, dc=att, dc=com");
  const std::string& pk = parent.HierKey();
  const std::string& ck = child.HierKey();
  ASSERT_LT(pk.size(), ck.size());
  EXPECT_EQ(ck.substr(0, pk.size()), pk);
  EXPECT_EQ(ck[pk.size()], kHierKeySep);
}

TEST(DnTest, HierKeyOrderGroupsSubtrees) {
  // In key order, a subtree is a contiguous run beginning at its root.
  std::vector<Dn> dns = {
      MustParse("dc=com"),
      MustParse("dc=att, dc=com"),
      MustParse("dc=research, dc=att, dc=com"),
      MustParse("ou=people, dc=research, dc=att, dc=com"),
      MustParse("dc=zorg, dc=com"),
      MustParse("dc=att-labs, dc=com"),
  };
  std::sort(dns.begin(), dns.end());
  // dc=att subtree must be contiguous: att, research, people in a row.
  auto pos = [&](const std::string& s) {
    for (size_t i = 0; i < dns.size(); ++i) {
      if (dns[i].ToString() == s) return i;
    }
    return size_t(-1);
  };
  size_t att = pos("dc=att, dc=com");
  size_t research = pos("dc=research, dc=att, dc=com");
  size_t people = pos("ou=people, dc=research, dc=att, dc=com");
  EXPECT_EQ(research, att + 1);
  EXPECT_EQ(people, research + 1);
  // "dc=att-labs" must NOT fall inside the dc=att subtree even though
  // "att" is a string prefix of "att-labs".
  size_t attlabs = pos("dc=att-labs, dc=com");
  EXPECT_TRUE(attlabs < att || attlabs > people);
}

TEST(DnTest, FromHierKeyRoundTrip) {
  for (const char* text : {
           "dc=com",
           "dc=att, dc=com",
           "cn=x+sn=y, ou=p, dc=com",
           "CANumber=9733608751, QHPName=workinghours, uid=jag, "
           "ou=userProfiles, dc=research, dc=att, dc=com",
       }) {
    Dn dn = MustParse(text);
    Result<Dn> back = Dn::FromHierKey(dn.HierKey());
    ASSERT_TRUE(back.ok()) << text;
    EXPECT_EQ(*back, dn) << text;
  }
  Result<Dn> null = Dn::FromHierKey("");
  ASSERT_TRUE(null.ok());
  EXPECT_TRUE(null->IsNull());
}

TEST(DnTest, FromHierKeyNormalizesPairOrder) {
  // A component whose pairs are out of order or repeated comes back as
  // Rdn::Make would have written it; canonical components are untouched.
  auto key_of = [](std::vector<std::vector<std::pair<std::string,
                                                     std::string>>> rdns) {
    std::vector<Rdn> made;
    for (auto& pairs : rdns) made.push_back(Rdn::Make(pairs).TakeValue());
    return Dn::Make(made).TakeValue().HierKey();
  };
  const std::string cn_sn = key_of({{{"cn", "x"}, {"sn", "y"}}});
  ASSERT_EQ(cn_sn, "cn=x\x1esn=y");
  struct Case {
    std::string key;
    std::string want;
  } cases[] = {
      {"sn=y\x1e" "cn=x", cn_sn},
      {"cn=x\x1e" "cn=x", "cn=x"},
      {"sn=y\x1e" "cn=x\x1e" "sn=y", cn_sn},
      {"cn=b\x1e" "cn=a", "cn=a\x1e" "cn=b"},
      // Pairs order by (attribute, value), not by their text: "a" sorts
      // before "a-b" although '-' sorts before '='.
      {"a=z\x1e" "a-b=c", "a=z\x1e" "a-b=c"},
      {"a-b=c\x1e" "a=z", "a=z\x1e" "a-b=c"},
      {"dc=com\x1f" "sn=y\x1e" "cn=x\x1f" "uid=a",
       key_of({{{"uid", "a"}}, {{"cn", "x"}, {"sn", "y"}}, {{"dc", "com"}}})},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.key);
    Result<Dn> dn = Dn::FromHierKey(c.key);
    ASSERT_TRUE(dn.ok()) << dn.status().ToString();
    EXPECT_EQ(dn->HierKey(), c.want);
    EXPECT_EQ(Dn::FromHierKey(dn->HierKey())->HierKey(), c.want);
  }
}

TEST(DnTest, FromHierKeyRejectsMalformedKeys) {
  // A pair or component with no '=' is Corruption; a bad attribute name or
  // value is InvalidArgument. Within one component a missing '=' wins;
  // across components the root-most bad one decides.
  struct Case {
    std::string key;
    StatusCode code;
  } cases[] = {
      {"dc", StatusCode::kCorruption},
      {"dc=com\x1f" "att", StatusCode::kCorruption},
      {"dc=com\x1f", StatusCode::kCorruption},  // empty component
      {"\x1f" "dc=com", StatusCode::kCorruption},
      {"dc=com\x1f\x1f" "dc=att", StatusCode::kCorruption},
      {"dc=a\x1e", StatusCode::kCorruption},  // empty pair
      {"dc=", StatusCode::kInvalidArgument},   // empty value
      {"dc=com\x1f" "cn=", StatusCode::kInvalidArgument},
      {"=x", StatusCode::kInvalidArgument},  // empty attribute
      {"1dc=x", StatusCode::kInvalidArgument},
      {"d c=x", StatusCode::kInvalidArgument},
      {"dc=a\x01", StatusCode::kInvalidArgument},  // control byte
      {"1dc=x\x1e" "dc", StatusCode::kCorruption},
      {"dc\x1e" "1dc=x", StatusCode::kCorruption},
      {"1dc=x\x1f" "dc", StatusCode::kInvalidArgument},
      {"dc\x1f" "1dc=x", StatusCode::kCorruption},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.key);
    EXPECT_EQ(Dn::FromHierKey(c.key).status().code(), c.code);
  }
}

TEST(DnTest, FromHierKeyOfACanonicalKeyAllocatesOnlyTheCopy) {
  // Scans decode a key per record: checking it must not allocate, so the
  // one allocation is the Dn's own copy of the key.
  const std::string key =
      MustParse("CANumber=9733608751, QHPName=workinghours, uid=jag, "
                "ou=userProfiles, dc=research, dc=att, dc=com")
          .HierKey();
  ASSERT_GT(key.size(), sizeof(std::string));  // past the inline buffer
  long before = g_allocations.load();
  Result<Dn> dn = Dn::FromHierKey(key);
  long allocations = g_allocations.load() - before;
  ASSERT_TRUE(dn.ok());
  EXPECT_EQ(dn->HierKey(), key);
  EXPECT_EQ(allocations, 1);
}

TEST(DnTest, DnIsItsKey) {
  using Pair = std::pair<std::string, std::string>;
  EXPECT_EQ(sizeof(Dn), sizeof(std::string));
  Dn dn = MustParse("cn=x+sn=y, ou=p, dc=com");
  const Rdn rdn = dn.rdn();  // a value: the Dn holds no parsed copy
  ASSERT_EQ(rdn.pairs().size(), 2u);
  EXPECT_EQ(rdn.pairs()[0], Pair("cn", "x"));
  EXPECT_EQ(rdn.pairs()[1], Pair("sn", "y"));
  EXPECT_EQ(dn.Parent().Child(rdn), dn);
  EXPECT_EQ(MustParse("dc=com").Parent().Child(MustParse("dc=com").rdn()),
            MustParse("dc=com"));
}

TEST(DnTest, KeyHelpers) {
  Dn com = MustParse("dc=com");
  Dn att = MustParse("dc=att, dc=com");
  Dn research = MustParse("dc=research, dc=att, dc=com");

  EXPECT_TRUE(KeyIsAncestor(com.HierKey(), research.HierKey()));
  EXPECT_TRUE(KeyIsParent(att.HierKey(), research.HierKey()));
  EXPECT_FALSE(KeyIsParent(com.HierKey(), research.HierKey()));
  EXPECT_TRUE(KeyIsAncestor("", att.HierKey()));  // virtual root
  EXPECT_FALSE(KeyIsAncestor(att.HierKey(), att.HierKey()));

  EXPECT_EQ(KeyDepth(""), 0u);
  EXPECT_EQ(KeyDepth(com.HierKey()), 1u);
  EXPECT_EQ(KeyDepth(research.HierKey()), 3u);

  EXPECT_EQ(KeyParent(research.HierKey()), att.HierKey());
  EXPECT_EQ(KeyParent(com.HierKey()), "");
}

TEST(DnTest, KeySubtreeEndBoundsExactlyTheSubtree) {
  Dn att = MustParse("dc=att, dc=com");
  std::string end = KeySubtreeEnd(att.HierKey());
  // Members of the subtree.
  EXPECT_LE(att.HierKey(), att.HierKey());
  EXPECT_LT(att.HierKey(), end);
  Dn desc = MustParse("ou=x, dc=research, dc=att, dc=com");
  EXPECT_LT(desc.HierKey(), end);
  EXPECT_GE(desc.HierKey(), att.HierKey());
  // Non-members: a sibling whose value extends "att" as a string.
  Dn attlabs = MustParse("dc=att-labs, dc=com");
  EXPECT_TRUE(attlabs.HierKey() >= end || attlabs.HierKey() < att.HierKey());
  // Null key is unbounded.
  EXPECT_EQ(KeySubtreeEnd(""), "");
}

TEST(DnTest, KeyExactEndIsolatesAdjacentKeys) {
  // The point-lookup range [key, KeyExactEnd(key)) must contain `key` and
  // exclude its closest legal neighbors: a child, a multi-pair sibling
  // extending the same RDN, and a sibling whose value extends key's value
  // as a string.
  Dn att = MustParse("dc=att, dc=com");
  std::string end = KeyExactEnd(att.HierKey());
  EXPECT_LT(att.HierKey(), end);

  Dn child = MustParse("dc=research, dc=att, dc=com");
  EXPECT_TRUE(KeyIsParent(att.HierKey(), child.HierKey()));
  EXPECT_GE(child.HierKey(), end) << "child key inside the exact range";

  // Same RDN extended with a second pair sorts immediately after the key
  // (kHierPairSep is the lowest byte a legal extension can add).
  std::string multi_pair =
      att.HierKey() + std::string(1, kHierPairSep) + "o=x";
  EXPECT_GE(multi_pair, end) << "multi-pair sibling inside the exact range";

  Dn attlabs = MustParse("dc=att-labs, dc=com");
  EXPECT_GE(attlabs.HierKey(), end)
      << "value-extending sibling inside the exact range";

  // And nothing legal sorts between the key and its end: the end is the
  // key plus the smallest legal continuation byte.
  EXPECT_EQ(end.substr(0, att.HierKey().size()), att.HierKey());
  EXPECT_EQ(end.size(), att.HierKey().size() + 1);
  EXPECT_LT(end.back(), kHierKeySep + 1);
}

TEST(DnTest, KeyDescendantsBeginExcludesTheRootAndSiblings) {
  Dn att = MustParse("dc=att, dc=com");
  std::string begin = KeyDescendantsBegin(att.HierKey());
  // The root itself and every multi-pair/value-extending sibling sort
  // BEFORE the descendants range.
  EXPECT_LT(att.HierKey(), begin);
  std::string multi_pair =
      att.HierKey() + std::string(1, kHierPairSep) + "o=x";
  EXPECT_LT(multi_pair, begin);

  Dn child = MustParse("dc=research, dc=att, dc=com");
  Dn grand = MustParse("ou=y, dc=research, dc=att, dc=com");
  EXPECT_GE(child.HierKey(), begin);
  EXPECT_GE(grand.HierKey(), begin);
  // Descendants end where the subtree ends.
  EXPECT_LT(child.HierKey(), KeySubtreeEnd(att.HierKey()));

  // The null key's descendants are the whole forest.
  EXPECT_EQ(KeyDescendantsBegin(""), "");
}

TEST(DnTest, KeyInSubtreePostFiltersTheScanRange) {
  Dn att = MustParse("dc=att, dc=com");
  const std::string root = att.HierKey();
  // Members: the root and proper descendants at any depth.
  EXPECT_TRUE(KeyInSubtree(root, root));
  EXPECT_TRUE(KeyInSubtree(root, MustParse("dc=research, dc=att, dc=com")
                                     .HierKey()));
  EXPECT_TRUE(KeyInSubtree(
      root, MustParse("uid=jag, ou=userProfiles, dc=research, dc=att, "
                      "dc=com")
                .HierKey()));
  // Non-members that the range [root, KeySubtreeEnd(root)) DOES yield:
  // the multi-pair sibling. This is exactly what the post-filter is for.
  std::string multi_pair = root + std::string(1, kHierPairSep) + "o=x";
  EXPECT_LT(multi_pair, KeySubtreeEnd(root));
  EXPECT_FALSE(KeyInSubtree(root, multi_pair));
  // Plain non-members.
  EXPECT_FALSE(KeyInSubtree(root, MustParse("dc=att-labs, dc=com").HierKey()));
  EXPECT_FALSE(KeyInSubtree(root, MustParse("dc=com").HierKey()));
  EXPECT_FALSE(KeyInSubtree(root, ""));
  // The null root contains everything, including the null key.
  EXPECT_TRUE(KeyInSubtree("", root));
  EXPECT_TRUE(KeyInSubtree("", ""));
}

// Property test: random DNs obey the prefix/ordering invariants.
class DnPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(DnPropertyTest, RandomForestInvariants) {
  std::mt19937 rng(GetParam());
  std::vector<Dn> dns;
  // A generated forest with adversarial RDN values on most entries.
  gen::RandomForestOptions forest;
  forest.seed = static_cast<uint32_t>(GetParam());
  forest.num_entries = 200;
  forest.weird_rdn_probability = 0.6;
  for (const auto& [key, entry] : gen::RandomForest(forest)) {
    (void)key;
    dns.push_back(entry.dn());
  }
  std::uniform_int_distribution<int> depth_dist(1, 6);
  std::uniform_int_distribution<int> val_dist(0, 30);
  const char* attrs[] = {"dc", "ou", "cn", "uid"};
  // One in four values is adversarial: escapes, delimiters, edge spaces.
  const char* weird[] = {" lead", "trail ", "a,b", "x=y", "p+q", "b\\s",
                         "\\ ", "a\\", " ", "two  spaces "};
  for (int i = 0; i < 200; ++i) {
    std::vector<Rdn> rdns;
    int depth = depth_dist(rng);
    for (int d = 0; d < depth; ++d) {
      int v = val_dist(rng);
      std::string value =
          (v % 4 == 0) ? weird[v % 10] : "v" + std::to_string(v);
      rdns.push_back(
          Rdn::Single(attrs[val_dist(rng) % 4], std::move(value))
              .TakeValue());
    }
    dns.push_back(Dn::Make(std::move(rdns)).TakeValue());
  }
  for (const Dn& a : dns) {
    // Round-trip invariants.
    ASSERT_EQ(Dn::Parse(a.ToString()).TakeValue(), a);
    ASSERT_EQ(Dn::FromHierKey(a.HierKey()).TakeValue(), a);
    ASSERT_EQ(KeyDepth(a.HierKey()), a.depth());
    ASSERT_EQ(KeyParent(a.HierKey()), a.Parent().HierKey());
    ASSERT_EQ(a.Parent().Child(a.rdn()), a);
    if (a.depth() > 1) {
      ASSERT_TRUE(a.Parent().IsParentOf(a));
    }
    for (const Dn& b : dns) {
      // Key predicates agree with DN-level predicates.
      ASSERT_EQ(KeyIsAncestor(a.HierKey(), b.HierKey()), a.IsAncestorOf(b));
      ASSERT_EQ(KeyIsParent(a.HierKey(), b.HierKey()), a.IsParentOf(b));
      if (a.IsAncestorOf(b)) {
        // Ancestors sort before descendants and bound their subtrees.
        ASSERT_LT(a.HierKey(), b.HierKey());
        ASSERT_LT(b.HierKey(), KeySubtreeEnd(a.HierKey()));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DnPropertyTest, ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace ndq
