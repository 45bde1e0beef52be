#include "core/entry.h"

#include <climits>
#include <map>
#include <random>
#include <set>

#include <gtest/gtest.h>

#include "gen/random_forest.h"
#include "storage/serde.h"
#include "testing/paper_fixture.h"

namespace ndq {
namespace {

using testing::D;

TEST(EntryTest, AddAndQueryValues) {
  Entry e(D("uid=jag, dc=com"));
  e.AddString("uid", "jag");
  e.AddInt("priority", 2);
  EXPECT_TRUE(e.HasAttribute("uid"));
  EXPECT_TRUE(e.HasPair("priority", Value::Int(2)));
  EXPECT_FALSE(e.HasPair("priority", Value::Int(3)));
  EXPECT_FALSE(e.HasAttribute("missing"));
  EXPECT_TRUE(e.Values("missing").empty());
}

TEST(EntryTest, MultiValuedAttributes) {
  // Sec. 3.5: an attribute may have multiple values.
  Entry e(D("PVPName=w, dc=com"));
  e.AddInt("PVDayOfWeek", 6);
  e.AddInt("PVDayOfWeek", 7);
  const std::vector<Value> vals = e.Values("PVDayOfWeek");
  ASSERT_EQ(vals.size(), 2u);
  EXPECT_EQ(vals[0], Value::Int(6));
  EXPECT_EQ(vals[1], Value::Int(7));
}

TEST(EntryTest, ValuesAreASet) {
  // val(r) is a set of pairs: duplicates collapse.
  Entry e(D("uid=x, dc=com"));
  e.AddInt("priority", 1);
  e.AddInt("priority", 1);
  EXPECT_EQ(e.Values("priority").size(), 1u);
  EXPECT_EQ(e.NumPairs(), 1u);
}

TEST(EntryTest, ValuesKeptSorted) {
  Entry e(D("uid=x, dc=com"));
  e.AddInt("p", 5);
  e.AddInt("p", 1);
  e.AddInt("p", 3);
  const std::vector<Value> v = e.Values("p");
  EXPECT_TRUE(std::is_sorted(v.begin(), v.end(),
                             [](const Value& a, const Value& b) {
                               return a < b;
                             }));
}

TEST(EntryTest, Classes) {
  Entry e(D("uid=x, dc=com"));
  e.AddClass("inetOrgPerson");
  e.AddClass("TOPSSubscriber");
  std::vector<std::string> classes = e.Classes();
  ASSERT_EQ(classes.size(), 2u);
  EXPECT_TRUE(e.HasClass("inetOrgPerson"));
  EXPECT_TRUE(e.HasClass("TOPSSubscriber"));
  EXPECT_FALSE(e.HasClass("QHP"));
}

TEST(EntryTest, RemoveValueAndAttribute) {
  Entry e(D("uid=x, dc=com"));
  e.AddInt("p", 1);
  e.AddInt("p", 2);
  EXPECT_TRUE(e.RemoveValue("p", Value::Int(1)));
  EXPECT_FALSE(e.RemoveValue("p", Value::Int(1)));
  EXPECT_EQ(e.Values("p").size(), 1u);
  EXPECT_EQ(e.RemoveAttribute("p"), 1u);
  EXPECT_FALSE(e.HasAttribute("p"));
  EXPECT_EQ(e.RemoveAttribute("p"), 0u);
}

TEST(EntryTest, RemovingLastValueDropsAttribute) {
  Entry e(D("uid=x, dc=com"));
  e.AddInt("p", 1);
  EXPECT_TRUE(e.RemoveValue("p", Value::Int(1)));
  EXPECT_FALSE(e.HasAttribute("p"));
}

TEST(EntryTest, DnRefValuesAreNormalized) {
  Entry e(D("SLAPolicyName=p, dc=com"));
  e.AddDnRef("SLATPRef", D("TPName=t,dc=att,dc=com"));
  const std::vector<Value> vals = e.Values("SLATPRef");
  EXPECT_EQ(vals[0].AsString(), "TPName=t, dc=att, dc=com");
}

TEST(EntryTest, ToStringMatchesFigureStyle) {
  Entry e(D("QHPName=weekend, uid=jag, dc=com"));
  e.AddClass("QHP");
  e.AddString("QHPName", "weekend");
  e.AddInt("priority", 1);
  std::string s = e.ToString();
  EXPECT_NE(s.find("dn: QHPName=weekend, uid=jag, dc=com"), std::string::npos);
  EXPECT_NE(s.find("priority: 1"), std::string::npos);
  EXPECT_NE(s.find("objectClass: QHP"), std::string::npos);
}

TEST(EntryTest, EqualityComparesDnAndValues) {
  Entry a(D("uid=x, dc=com"));
  a.AddInt("p", 1);
  Entry b(D("uid=x, dc=com"));
  b.AddInt("p", 1);
  EXPECT_EQ(a, b);
  b.AddInt("p", 2);
  EXPECT_FALSE(a == b);
}

TEST(EntryTest, IsItsDnAndItsAttributeBytes) {
  static_assert(sizeof(Entry) == sizeof(Dn) + sizeof(std::string));
  Entry e(D("uid=x, dc=com"));
  EXPECT_EQ(e.view().attribute_bytes(), std::string_view("\0", 1));
  e.AddInt("p", 1);
  std::string record;
  SerializeEntry(e, &record);
  EXPECT_EQ(record.substr(record.size() - e.view().attribute_bytes().size()),
            e.view().attribute_bytes());
  EXPECT_EQ(e.view().key(), e.HierKey());
}

// The set-of-pairs model the byte encoding must agree with.
using PairModel = std::map<std::string, std::set<Value>>;

// Every accessor of `e` against `model`, and a round trip through the
// wire format.
void ExpectMatchesModel(const Entry& e, const PairModel& model,
                        const std::vector<std::string>& names,
                        const std::vector<Value>& probes) {
  size_t pairs = 0;
  std::string text = "dn: " + e.dn().ToString() + "\n";
  for (const auto& [attr, vals] : model) {
    for (const Value& v : vals) text += attr + ": " + v.ToString() + "\n";
    pairs += vals.size();
  }
  for (const std::string& attr : names) {
    auto it = model.find(attr);
    std::vector<Value> want;
    if (it != model.end()) want.assign(it->second.begin(), it->second.end());
    EXPECT_EQ(e.Values(attr), want) << attr;
    EXPECT_EQ(e.HasAttribute(attr), !want.empty()) << attr;
    for (const Value& v : probes) {
      EXPECT_EQ(e.HasPair(attr, v),
                it != model.end() && it->second.count(v) > 0)
          << attr << " " << v.ToString();
    }
  }
  std::vector<std::string> classes;
  auto oc = model.find(kObjectClassAttr);
  if (oc != model.end()) {
    for (const Value& v : oc->second) {
      if (v.is_string()) classes.push_back(v.AsString());
    }
  }
  EXPECT_EQ(e.Classes(), classes);
  EXPECT_EQ(e.NumPairs(), pairs);
  EXPECT_EQ(e.ToString(), text);
  std::string record;
  SerializeEntry(e, &record);
  Result<Entry> back = DeserializeEntry(record);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, e);
}

// A seeded model test of the byte-encoded accessors: random-forest
// entries (decorated RDN values, near-extreme ints) mutated through
// AddValue, RemoveValue and RemoveAttribute, with the same ops applied to
// a map of value sets. The reference evaluator reads entries through
// these accessors, so this checks them independently of it.
TEST(EntryTest, MutationsAgreeWithASetModel) {
  gen::RandomForestOptions opt;
  opt.seed = 41;
  opt.num_entries = 60;
  opt.weird_rdn_probability = 0.3;
  opt.extreme_int_probability = 0.3;
  const DirectoryInstance forest = gen::RandomForest(opt);

  // Names on both sides of the forest's ("x", "tag", "ref",
  // "objectClass"), the empty name, and one long enough for a two-byte
  // length varint.
  const std::vector<std::string> names = {"x",  "tag", "ref",
                                          kObjectClassAttr,
                                          "",   "A",   "zz",
                                          std::string(130, 'n')};
  std::mt19937 rng(7);
  auto random_value = [&]() -> Value {
    switch (rng() % 5) {
      case 0:
        return Value::Int(static_cast<int64_t>(rng() % 7) - 3);
      case 1:
        return Value::Int(rng() % 2 == 0 ? INT64_MAX - rng() % 3
                                         : INT64_MIN + rng() % 3);
      case 2:
        return Value::String(std::string(rng() % 3, 'a' + rng() % 3));
      case 3:
        return Value::String(std::string(200 + rng() % 2, 'v'));
      default:
        return Value::DnRef("dc=n" + std::to_string(rng() % 3));
    }
  };

  size_t ops = 0;
  for (const auto& [key, source] : forest) {
    (void)key;
    Entry e(source.dn());
    PairModel model;
    for (const AttributeView& a : source.view()) {
      for (ValueView v : a.values) {
        e.AddValue(a.name, v);
        model[std::string(a.name)].insert(v.ToValue());
      }
    }
    std::vector<Value> probes;
    for (int i = 0; i < 4; ++i) probes.push_back(random_value());
    ExpectMatchesModel(e, model, names, probes);
    for (int step = 0; step < 30; ++step, ++ops) {
      const std::string& attr = names[rng() % names.size()];
      const int op = static_cast<int>(rng() % 10);
      if (op < 6) {
        Value v = random_value();
        e.AddValue(attr, v);
        model[attr].insert(v);
      } else if (op < 9) {
        // Half the removals name a present value.
        std::set<Value>& vals = model[attr];
        Value v = random_value();
        if (rng() % 2 == 0 && !vals.empty()) {
          v = *std::next(vals.begin(), rng() % vals.size());
        }
        EXPECT_EQ(e.RemoveValue(attr, v), vals.erase(v) > 0);
        if (vals.empty()) model.erase(attr);
      } else {
        auto it = model.find(attr);
        const size_t n = it == model.end() ? 0 : it->second.size();
        EXPECT_EQ(e.RemoveAttribute(attr), n);
        if (it != model.end()) model.erase(it);
      }
      probes[rng() % probes.size()] = random_value();
      ExpectMatchesModel(e, model, names, probes);
    }
  }
  EXPECT_GT(ops, 1000u);

  // One attribute grown past 127 values and back: its count varint takes
  // a second byte and gives it up again.
  Entry wide(D("cn=wide, dc=com"));
  PairModel model;
  for (int64_t i = 0; i < 150; ++i) {
    wide.AddInt("x", i * 7919 % 150);
    model["x"].insert(Value::Int(i * 7919 % 150));
  }
  ExpectMatchesModel(wide, model, {"x"}, {Value::Int(149)});
  for (int64_t i = 0; i < 150; i += 2) {
    EXPECT_TRUE(wide.RemoveValue("x", Value::Int(i)));
    model["x"].erase(Value::Int(i));
  }
  ExpectMatchesModel(wide, model, {"x"}, {Value::Int(0), Value::Int(1)});
}

}  // namespace
}  // namespace ndq
