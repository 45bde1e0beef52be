// StoreStats against brute force: every estimate the planner reads,
// checked against counts over the live entries of a small DIF after
// removes and re-adds.

#include "store/stats.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "core/dn.h"
#include "gen/dif_gen.h"

namespace ndq {
namespace {

// Distinct values of one attribute, per value domain.
struct AttrValues {
  std::set<int64_t> ints;
  std::set<std::string> strings;
};

struct EstimateCounts {
  size_t exact = 0;    // estimates required to equal the true count
  size_t bounded = 0;  // estimates required to be at least the true count
};

// Checks Presence, Equals and IntCompare estimates against counts over
// `live`, for every value any of `folded` carried plus a value none did.
// Equals estimates are exact in a value domain that carried at most
// `tracked` distinct values (its MCV table never overflowed), and upper
// bounds elsewhere. Presence is always exact, IntCompare a bound.
EstimateCounts CheckEstimates(const StoreStats& stats,
                              const std::vector<const Entry*>& folded,
                              const std::map<std::string, const Entry*>& live,
                              size_t tracked) {
  std::map<std::string, AttrValues> values;
  for (const Entry* e : folded) {
    for (const AttributeView& attr : e->view()) {
      AttrValues& seen = values[std::string(attr.name)];
      for (ValueView v : attr.values) {
        if (v.is_int()) {
          seen.ints.insert(v.AsInt());
        } else {
          seen.strings.insert(std::string(v.AsString()));
        }
      }
    }
  }
  EstimateCounts counts;
  auto check = [&](const AtomicFilter& filter, bool exact) {
    uint64_t truth = 0;
    for (const auto& [key, e] : live) truth += filter.Matches(*e) ? 1 : 0;
    const uint64_t est = stats.EstimateFilterMatches(filter);
    if (exact) {
      EXPECT_EQ(est, truth) << filter.ToString();
      ++counts.exact;
    } else {
      EXPECT_GE(est, truth) << filter.ToString();
      ++counts.bounded;
    }
  };
  for (const auto& [name, seen] : values) {
    const bool ints_tracked = seen.ints.size() <= tracked;
    const bool strings_tracked = seen.strings.size() <= tracked;
    check(AtomicFilter::Presence(name), true);
    // An int literal also matches its string spelling, so its estimate
    // reads both domains.
    for (int64_t v : seen.ints) {
      check(AtomicFilter::Equals(name, Value::Int(v)),
            ints_tracked && strings_tracked);
      for (CompareOp op : {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                           CompareOp::kLe, CompareOp::kGt, CompareOp::kGe}) {
        check(AtomicFilter::IntCompare(name, op, v), false);
      }
    }
    for (const std::string& v : seen.strings) {
      check(AtomicFilter::Equals(name, Value::String(v)), strings_tracked);
      check(AtomicFilter::Equals(name, Value::String(v + "x")),
            strings_tracked);
    }
  }
  check(AtomicFilter::Presence("noSuchAttr"), true);
  check(AtomicFilter::Equals("noSuchAttr", Value::String("x")), true);
  return counts;
}

TEST(StoreStatsOracleTest, EstimatesMatchBruteForceAfterChurn) {
  gen::DifOptions opt;
  opt.num_orgs = 2;
  opt.subscribers_per_domain = 30;  // some attributes overflow the MCVs
  const DirectoryInstance inst = gen::GenerateDif(opt);
  std::vector<const Entry*> entries;
  for (const auto& [key, entry] : inst) entries.push_back(&entry);

  // Fold everything, remove every 7th entry, re-add every 14th; `live`
  // mirrors the folded set.
  StoreStats stats;
  std::map<std::string, const Entry*> live;
  for (const Entry* e : entries) {
    stats.AddEntry(*e);
    live[e->HierKey()] = e;
  }
  for (size_t i = 0; i < entries.size(); i += 7) {
    stats.RemoveEntry(*entries[i]);
    live.erase(entries[i]->HierKey());
  }
  for (size_t i = 0; i < entries.size(); i += 14) {
    stats.AddEntry(*entries[i]);
    live[entries[i]->HierKey()] = entries[i];
  }
  ASSERT_EQ(stats.num_entries(), live.size());
  ASSERT_TRUE(stats.complete());

  // Subtree counts: exact for every prefix ever folded (a removed entry's
  // node stays, at zero), and null for keys never folded.
  std::set<std::string> prefixes = {""};
  for (const Entry* e : entries) {
    const std::string& key = e->HierKey();
    prefixes.insert(key);
    for (size_t i = 0; i < key.size(); ++i) {
      if (key[i] == kHierKeySep) prefixes.insert(key.substr(0, i));
    }
  }
  for (const std::string& p : prefixes) {
    SubtreeStats truth;
    for (const auto& [key, e] : live) {
      if (key == p) ++truth.self;
      if (key != p && KeyParent(key) == p) ++truth.direct_children;
      if (KeyInSubtree(p, key)) ++truth.subtree_size;
    }
    const SubtreeStats* node = stats.Subtree(p);
    ASSERT_NE(node, nullptr) << "prefix " << p;
    EXPECT_EQ(*node, truth) << "prefix " << p;
    EXPECT_EQ(stats.Subtree(p + "x"), nullptr) << "prefix " << p;
  }

  // A domain that never carried more than kMaxTrackedValues values never
  // overflowed its MCV table.
  const EstimateCounts counts =
      CheckEstimates(stats, entries, live, StoreStats::kMaxTrackedValues);
  // Both kinds of domain are present: tracked and overflowing.
  EXPECT_GT(counts.exact, 400u);
  EXPECT_GT(counts.bounded, 500u) << counts.exact;
}

TEST(StoreStatsOracleTest, FreedMcvSlotsTakeNewValues) {
  // A tag domain at the MCV cap loses half its values to removals, then
  // gains as many new ones. The live tags never exceed the cap, so every
  // tag stays tracked and its estimate exact: the removals must free
  // their slots.
  constexpr int kCap = static_cast<int>(StoreStats::kMaxTrackedValues);
  std::vector<Entry> entries;
  for (int i = 0; i < kCap + kCap / 2; ++i) {
    Entry e(Dn::Parse("uid=u" + std::to_string(i) + ", dc=com").TakeValue());
    e.AddString("tag", "t" + std::to_string(i));
    e.AddInt("num", 1000 + i);
    entries.push_back(std::move(e));
  }
  std::vector<const Entry*> folded;
  std::map<std::string, const Entry*> live;
  StoreStats stats;
  auto add = [&](int i) {
    stats.AddEntry(entries[i]);
    folded.push_back(&entries[i]);
    live[entries[i].HierKey()] = &entries[i];
  };
  for (int i = 0; i < kCap; ++i) add(i);
  for (int i = 0; i < kCap; i += 2) {
    stats.RemoveEntry(entries[i]);
    live.erase(entries[i].HierKey());
  }
  for (int i = kCap; i < kCap + kCap / 2; ++i) add(i);
  const EstimateCounts counts = CheckEstimates(stats, folded, live, SIZE_MAX);
  EXPECT_GT(counts.exact, 3u * kCap);
}

TEST(FlatTableTest, MatchesAMapUnderInsertAndErase) {
  // Random adds and removes over a small key range, so probe chains
  // collide and wrap past the last slot; every erase must leave each
  // remaining key reachable.
  struct Slot {
    uint64_t key = 0;
    uint64_t count = 0;
    bool live() const { return count != 0; }
    bool operator==(const Slot&) const = default;
  };
  FlatTable<Slot, 128> table;
  std::map<uint64_t, uint64_t> model;
  std::mt19937_64 rng(7);
  for (int step = 0; step < 20000; ++step) {
    const uint64_t key = rng() % 200;
    if (rng() % 2 == 0 && model.size() < 64) {
      Slot* slot = table.Find(key);
      if (slot == nullptr) slot = table.Insert(key);
      ++slot->count;
      ++model[key];
    } else if (Slot* slot = table.Find(key)) {
      if (--slot->count == 0) table.Erase(slot);
      if (--model[key] == 0) model.erase(key);
    }
    ASSERT_EQ(table.size(), model.size()) << "step " << step;
    for (uint64_t k = 0; k < 200; ++k) {
      const Slot* slot = table.Find(k);
      const auto it = model.find(k);
      ASSERT_EQ(slot == nullptr, it == model.end()) << k << " step " << step;
      if (slot != nullptr) {
        ASSERT_EQ(slot->count, it->second) << k;
      }
    }
  }
}

}  // namespace
}  // namespace ndq
