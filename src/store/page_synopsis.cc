#include "store/page_synopsis.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>

#include "store/hash.h"

namespace ndq {

namespace {

constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
// Keeps an int's pair apart from a string's with the same hash.
constexpr uint64_t kIntSeed = 0xD6E8FEB86659FD93ull;

// Ints order as unsigned words once the sign bit is flipped.
uint64_t IntBound(int64_t v) {
  return static_cast<uint64_t>(v) ^ (uint64_t{1} << 63);
}

// The first eight bytes of `s`, big-endian, padded with `pad`: a
// non-decreasing function of the bytes, so it bounds them in order.
uint64_t Prefix(std::string_view s, unsigned char pad) {
  uint64_t v = 0;
  if (s.size() >= sizeof(v)) {
    std::memcpy(&v, s.data(), sizeof(v));
  } else {
    unsigned char b[sizeof(v)];
    std::memset(b, pad, sizeof(b));
    std::memcpy(b, s.data(), s.size());
    std::memcpy(&v, b, sizeof(v));
  }
  if constexpr (std::endian::native == std::endian::little) {
    v = __builtin_bswap64(v);
  }
  return v;
}

// The Bloom key of one (attribute, value) pair; never 0, the builder's
// empty mark.
uint64_t PairKey(uint32_t attr, uint64_t value_hash) {
  return store_hash::SlotKey(
      store_hash::Step(value_hash, (uint64_t{attr} + 1) * store_hash::kSeed));
}

uint64_t IntPair(uint32_t attr, int64_t v) {
  return PairKey(attr, store_hash::Step(kIntSeed, static_cast<uint64_t>(v)));
}

// A pair's word among `words` and the bits it sets there.
size_t BloomWord(uint64_t pair, size_t words) {
  return static_cast<size_t>(((pair >> 32) * words) >> 32);
}

uint64_t BloomMask(uint64_t pair) {
  uint64_t x = pair * 0x9E3779B97F4A7C15ull;
  uint64_t mask = 0;
  for (int i = 0; i < PageSynopses::kBloomProbes; ++i) {
    mask |= uint64_t{1} << (x >> 58);
    x <<= 6;
  }
  return mask;
}

}  // namespace

const PageSynopses::Bound* PageSynopses::FindBound(size_t page,
                                                   uint32_t key) const {
  const auto first = keys_.begin() + bound_begin_[page];
  const auto last = keys_.begin() + bound_begin_[page + 1];
  const auto it = std::lower_bound(first, last, key);
  if (it == last || *it != key) return nullptr;
  return &bounds_[static_cast<size_t>(it - keys_.begin())];
}

bool PageSynopses::BloomMayHold(size_t page, uint64_t pair,
                                uint64_t mask) const {
  const size_t words = bloom_begin_[page + 1] - bloom_begin_[page];
  if (words == 0) return false;
  return (bloom_[bloom_begin_[page] + BloomWord(pair, words)] & mask) ==
         mask;
}

bool PageSynopses::FindAttr(std::string_view name, uint32_t* id) const {
  const uint64_t key = store_hash::NameKey(name);
  const auto it = std::lower_bound(
      attr_ids_.begin(), attr_ids_.end(), key,
      [](const std::pair<uint64_t, uint32_t>& a, uint64_t k) {
        return a.first < k;
      });
  if (it == attr_ids_.end() || it->first != key) return false;
  *id = it->second;
  return true;
}

size_t PageSynopses::bytes() const {
  return attr_ids_.capacity() * sizeof(attr_ids_[0]) +
         bound_begin_.capacity() * sizeof(uint32_t) +
         keys_.capacity() * sizeof(uint32_t) +
         bounds_.capacity() * sizeof(Bound) +
         bloom_begin_.capacity() * sizeof(uint32_t) +
         bloom_.capacity() * sizeof(uint64_t);
}

// ---------------------------------------------------------------------------
// Builder

void PageSynopses::Builder::StartRecord(uint64_t page) {
  if (open_ && page == page_) return;
  if (open_) ClosePage();
  // A page no record starts in describes nothing.
  while (out_.bound_begin_.size() <= page) {
    out_.bound_begin_.push_back(static_cast<uint32_t>(out_.keys_.size()));
    out_.bloom_begin_.push_back(static_cast<uint32_t>(out_.bloom_.size()));
  }
  page_ = page;
  open_ = true;
}

void PageSynopses::Builder::Attribute(uint32_t id, uint64_t name_key) {
  attr_ = id;
  if (id >= names_.size()) names_.resize(id + 1, 0);
  names_[id] = name_key;
}

void PageSynopses::Builder::IntValue(int64_t v) {
  Observe(2 * attr_, IntBound(v), IntPair(attr_, v));
}

void PageSynopses::Builder::StringValue(std::string_view bytes,
                                        uint64_t hash) {
  Observe(2 * attr_ + 1, Prefix(bytes, 0), PairKey(attr_, hash));
}

void PageSynopses::Builder::Observe(uint32_t key, uint64_t v, uint64_t pair) {
  if (key >= slot_.size()) slot_.resize(key + 1, -1);
  int32_t& slot = slot_[key];
  if (slot < 0) {
    slot = static_cast<int32_t>(bounds_open_.size());
    bounds_open_.push_back({key, {v, v}});
  } else {
    Bound& b = bounds_open_[static_cast<size_t>(slot)].bound;
    b.lo = std::min(b.lo, v);
    b.hi = std::max(b.hi, v);
  }
  // A repeat costs the filter nothing but its sizing: drop the ones a
  // small direct-mapped memory of this page's pairs still holds.
  uint64_t& seen = recent_[pair & 255];
  if (seen != pair) {
    seen = pair;
    pairs_.push_back(pair);
  }
}

void PageSynopses::Builder::ClosePage() {
  std::sort(bounds_open_.begin(), bounds_open_.end(),
            [](const Open& a, const Open& b) { return a.key < b.key; });
  for (const Open& open : bounds_open_) {
    out_.keys_.push_back(open.key);
    out_.bounds_.push_back(open.bound);
    slot_[open.key] = -1;
  }
  bounds_open_.clear();
  const size_t words =
      (pairs_.size() * kBloomBitsPerKey + 63) / 64;
  const size_t base = out_.bloom_.size();
  out_.bloom_.resize(base + words, 0);
  for (uint64_t pair : pairs_) {
    out_.bloom_[base + BloomWord(pair, words)] |= BloomMask(pair);
  }
  pairs_.clear();
  std::memset(recent_, 0, sizeof(recent_));
  open_ = false;
}

PageSynopses PageSynopses::Builder::Finish(size_t num_pages) {
  if (open_) ClosePage();
  while (out_.bound_begin_.size() <= num_pages) {
    out_.bound_begin_.push_back(static_cast<uint32_t>(out_.keys_.size()));
    out_.bloom_begin_.push_back(static_cast<uint32_t>(out_.bloom_.size()));
  }
  for (uint32_t id = 0; id < names_.size(); ++id) {
    if (names_[id] != 0) out_.attr_ids_.emplace_back(names_[id], id);
  }
  std::sort(out_.attr_ids_.begin(), out_.attr_ids_.end());
  out_.bound_begin_.shrink_to_fit();
  out_.keys_.shrink_to_fit();
  out_.bounds_.shrink_to_fit();
  out_.bloom_begin_.shrink_to_fit();
  out_.bloom_.shrink_to_fit();
  PageSynopses out = std::move(out_);
  out_ = PageSynopses();
  return out;
}

// ---------------------------------------------------------------------------
// Probe

PageSynopses::Probe::Probe(const PageSynopses* synopses, ScanFilters filters)
    : synopses_(synopses) {
  if (synopses == nullptr) return;
  for (const ScanFilter& filter : filters) {
    roots_.push_back(nodes_.size());
    if (filter.atomic != nullptr) {
      Add(*filter.atomic);
    } else {
      Add(*filter.ldap);
    }
    // A filter every page admits makes the probe admit every page.
    if (nodes_[roots_.back()].op == Node::Op::kTrue) break;
  }
  if (roots_.empty() || nodes_[roots_.back()].op == Node::Op::kTrue) {
    synopses_ = nullptr;
    roots_.clear();
    nodes_.clear();
  }
}

void PageSynopses::Probe::Add(const LdapFilter& filter) {
  switch (filter.op()) {
    case LdapFilter::Op::kAtomic:
      Add(filter.atomic());
      return;
    case LdapFilter::Op::kNot:
      // The synopses bound what a page holds, which says nothing about
      // what a record lacks.
      nodes_.push_back(Node{});
      return;
    case LdapFilter::Op::kAnd:
    case LdapFilter::Op::kOr: {
      const size_t at = nodes_.size();
      Node node;
      node.op = filter.op() == LdapFilter::Op::kAnd ? Node::Op::kAnd
                                                    : Node::Op::kOr;
      node.children = static_cast<uint32_t>(filter.children().size());
      nodes_.push_back(node);
      for (const LdapFilterPtr& child : filter.children()) Add(*child);
      nodes_[at].size = static_cast<uint32_t>(nodes_.size() - at);
      return;
    }
  }
}

void PageSynopses::Probe::Add(const AtomicFilter& filter) {
  Node node;
  uint32_t id = 0;
  if (filter.kind() == AtomicFilter::Kind::kTrue) {
    nodes_.push_back(node);
    return;
  }
  node.op = Node::Op::kFalse;
  if (!synopses_->FindAttr(filter.attr(), &id)) {
    nodes_.push_back(node);  // no record carries the attribute
    return;
  }
  node.op = Node::Op::kTest;
  Side& ints = node.sides[0];
  Side& strs = node.sides[1];
  ints.key = 2 * id;
  strs.key = 2 * id + 1;
  switch (filter.kind()) {
    case AtomicFilter::Kind::kTrue:
      break;
    case AtomicFilter::Kind::kPresence:
      ints = {true, false, false, ints.key, 0, kMax, 0};
      strs = {true, false, false, strs.key, 0, kMax, 0};
      break;
    case AtomicFilter::Kind::kIntCmp: {
      // Only int values compare (MatchesValue).
      const uint64_t n = IntBound(filter.int_rhs());
      ints.on = true;
      switch (filter.cmp_op()) {
        case CompareOp::kEq:
          ints.lo = ints.hi = n;
          ints.bloom = true;
          ints.pair = IntPair(id, filter.int_rhs());
          break;
        case CompareOp::kNe:
          ints.ne = true;
          ints.lo = n;
          break;
        case CompareOp::kLt:
          ints.on = n > 0;
          ints.hi = n - 1;
          break;
        case CompareOp::kLe:
          ints.hi = n;
          break;
        case CompareOp::kGt:
          ints.on = n < kMax;
          ints.lo = n + 1;
          ints.hi = kMax;
          break;
        case CompareOp::kGe:
          ints.lo = n;
          ints.hi = kMax;
          break;
      }
      break;
    }
    case AtomicFilter::Kind::kEquals: {
      const Value& rhs = filter.equals_rhs();
      // A string or DN value matches by its bytes; an int literal also
      // matches its decimal spelling.
      const std::string spelled = rhs.is_int() ? rhs.ToString() : "";
      const std::string_view bytes =
          rhs.is_int() ? std::string_view(spelled) : rhs.AsString();
      strs.on = strs.bloom = true;
      strs.lo = strs.hi = Prefix(bytes, 0);
      strs.pair = PairKey(id, store_hash::Hash(bytes));
      if (rhs.is_int()) {
        ints.on = ints.bloom = true;
        ints.lo = ints.hi = IntBound(rhs.AsInt());
        ints.pair = IntPair(id, rhs.AsInt());
      }
      break;
    }
    case AtomicFilter::Kind::kSubstring: {
      // Only string and DN values match a pattern, and they start with
      // its leading literal: compare that literal's prefix range.
      const std::string& lead = filter.pattern_parts().front();
      strs.on = true;
      strs.lo = Prefix(lead, 0);
      strs.hi = lead.empty() ? kMax : Prefix(lead, 0xFF);
      break;
    }
  }
  for (Side& side : node.sides) side.mask = BloomMask(side.pair);
  nodes_.push_back(node);
}

bool PageSynopses::Probe::Test(const Side& side, size_t page) const {
  if (!side.on) return false;
  // One load of the Bloom filter rejects most pages an equality misses,
  // before the bounds are searched.
  if (side.bloom && !synopses_->BloomMayHold(page, side.pair, side.mask)) {
    return false;
  }
  const Bound* b = synopses_->FindBound(page, side.key);
  if (b == nullptr) return false;
  return side.ne ? !(b->lo == side.lo && b->hi == side.lo)
                 : b->lo <= side.hi && side.lo <= b->hi;
}

bool PageSynopses::Probe::Eval(size_t at, size_t page) const {
  const Node& node = nodes_[at];
  switch (node.op) {
    case Node::Op::kTrue:
      return true;
    case Node::Op::kFalse:
      return false;
    case Node::Op::kTest:
      return Test(node.sides[0], page) || Test(node.sides[1], page);
    case Node::Op::kAnd:
    case Node::Op::kOr: {
      const bool all = node.op == Node::Op::kAnd;
      size_t child = at + 1;
      for (uint32_t i = 0; i < node.children; ++i) {
        if (Eval(child, page) != all) return !all;
        child += nodes_[child].size;
      }
      return all;
    }
  }
  return true;
}

bool PageSynopses::Probe::MayMatch(size_t page) const {
  if (synopses_ == nullptr) return true;
  for (size_t root : roots_) {
    if (Eval(root, page)) return true;
  }
  return false;
}

}  // namespace ndq
