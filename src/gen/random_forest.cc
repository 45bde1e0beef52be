#include "gen/random_forest.h"

#include <iterator>
#include <limits>
#include <string>
#include <vector>

namespace ndq {
namespace gen {

namespace {

// Adversarial decorations for RDN values: DN metacharacters and edge
// spaces that the escaping machinery must round-trip. '?', '(' and ')'
// are excluded — they are query-text delimiters, not DN syntax, and a
// base containing them cannot appear in parseable query text.
const char* const kWeirdPrefixes[] = {" ", ", ", "=", "+", "\\", "\\ ",
                                      "  ", "a=b,"};
const char* const kWeirdSuffixes[] = {" ", " ,", "=", "+x", "\\", " \\",
                                      "\\ ", "  "};

}  // namespace

DirectoryInstance RandomForest(const RandomForestOptions& options) {
  std::mt19937 rng(options.seed);
  DirectoryInstance inst(Schema(), /*validate=*/false);

  auto chance = [&](double p) {
    return p > 0 && std::uniform_real_distribution<double>(0, 1)(rng) < p;
  };

  // Grow the forest: keep a pool of prospective parents; each new entry
  // attaches under a random pool member (or becomes a root).
  std::vector<Dn> pool;
  size_t serial = 0;
  auto make_rdn = [&](const char* attr) {
    std::string value = "n" + std::to_string(serial++);
    if (chance(options.weird_rdn_probability)) {
      uint32_t mode = rng() % 3;  // 0=prefix 1=suffix 2=both
      if (mode != 1) {
        value = kWeirdPrefixes[rng() % std::size(kWeirdPrefixes)] + value;
      }
      if (mode != 0) {
        value += kWeirdSuffixes[rng() % std::size(kWeirdSuffixes)];
      }
    }
    return Rdn::Single(attr, value).TakeValue();
  };
  std::vector<Dn> all_dns;
  for (size_t i = 0; i < options.num_entries; ++i) {
    Dn dn;
    if (pool.size() < options.num_roots) {
      dn = Dn::Make({make_rdn("dc")}).TakeValue();
    } else {
      const Dn& parent = pool[rng() % pool.size()];
      const char* attr = (parent.depth() % 2 == 0) ? "ou" : "cn";
      dn = parent.Child(make_rdn(attr));
    }
    if (rng() % options.max_children != 0) pool.push_back(dn);
    all_dns.push_back(dn);
  }

  // Populate attributes; references point at any generated dn.
  for (const Dn& dn : all_dns) {
    Entry e(dn);
    e.AddClass("class" + std::to_string(rng() % options.num_classes));
    if (rng() % 4 == 0) {
      e.AddClass("class" + std::to_string(rng() % options.num_classes));
    }
    auto draw_x = [&]() -> int64_t {
      if (chance(options.extreme_int_probability)) {
        // Within a small offset of ±INT64_MAX so that two or three values
        // summed wrap an int64 accumulator.
        int64_t extreme =
            std::numeric_limits<int64_t>::max() - static_cast<int64_t>(rng() % 4);
        return (rng() % 2 == 0) ? extreme : -extreme;
      }
      return static_cast<int64_t>(rng() % options.int_attr_range);
    };
    const int64_t x = draw_x();
    e.AddInt("x", x);
    if (rng() % 3 == 0) {
      e.AddInt("x", draw_x());
    }
    if (chance(options.spelled_x_probability)) {
      e.AddString("x", std::to_string(x));
    }
    const std::string tag = std::to_string(rng() % options.num_tags);
    e.AddString("tag", (chance(options.long_tag_probability) ? "tagshare"
                                                             : "tag") +
                           tag);
    // rdn(r) subseteq val(r).
    const Rdn rdn = dn.rdn();
    for (const auto& [attr, value] : rdn.pairs()) {
      e.AddString(attr, value);
    }
    if (std::uniform_real_distribution<double>(0, 1)(rng) <
        options.ref_probability) {
      int nrefs = 1 + static_cast<int>(rng() % options.max_refs);
      for (int r = 0; r < nrefs; ++r) {
        e.AddDnRef("ref", all_dns[rng() % all_dns.size()]);
      }
    }
    Status s = inst.Add(std::move(e));
    (void)s;  // duplicate dns impossible: serial numbers are unique
  }
  return inst;
}

}  // namespace gen
}  // namespace ndq
