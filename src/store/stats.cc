#include "store/stats.h"

#include <algorithm>
#include <cstring>

#include "storage/serde.h"
#include "store/hash.h"

namespace ndq {

namespace {

using store_hash::Extend;
using store_hash::Hash;
using store_hash::SlotKey;

// Hashes the prefixes of `key` at depths 0 ("") through
// min(KeyDepth(key), kMaxSketchDepth) into `hashes`, root first, in one
// walk over the key, and returns KeyDepth(key).
size_t PrefixHashes(std::string_view key,
                    uint64_t (&hashes)[StoreStats::kMaxSketchDepth + 1]) {
  uint64_t h = store_hash::kSeed;
  hashes[0] = h;
  if (key.empty()) return 0;
  for (size_t depth = 1;; ++depth) {
    const size_t sep = key.find(kHierKeySep);
    h = Extend(h, key.substr(0, sep));
    hashes[depth] = h;
    if (sep == std::string_view::npos) return depth;
    key.remove_prefix(sep + 1);
    if (depth == StoreStats::kMaxSketchDepth) {
      return depth + 1 + static_cast<size_t>(
                             std::count(key.begin(), key.end(), kHierKeySep));
    }
  }
}

// Bumps a capped MCV table. A value whose slot would exceed the cap lands
// in *other, which every estimate adds back in.
template <typename Table>
void McvAdd(Table* table, uint64_t* other, uint64_t key) {
  if (auto* slot = table->Find(key)) {
    ++slot->count;
  } else if (table->size() < StoreStats::kMaxTrackedValues) {
    table->Insert(key)->count = 1;
  } else {
    ++*other;
  }
}

// Undoes one McvAdd of `key`. The copy being removed is either in its own
// slot or in the overflow bucket; decrementing whichever is nonempty keeps
// sum(table) + other equal to the live value count. A slot whose count
// reaches zero is erased, freeing it for the next new value.
template <typename Table>
void McvRemove(Table* table, uint64_t* other, uint64_t key) {
  if (auto* slot = table->Find(key)) {
    if (--slot->count == 0) table->Erase(slot);
  } else if (*other > 0) {
    --*other;
  }
}

template <typename Table>
uint64_t McvGet(const Table& table, uint64_t key) {
  const auto* slot = table.Find(key);
  return slot == nullptr ? 0 : slot->count;
}

uint64_t IntKey(int64_t v) { return static_cast<uint64_t>(v); }

bool IntCmpHolds(int64_t lhs, CompareOp op, int64_t rhs) {
  switch (op) {
    case CompareOp::kEq:
      return lhs == rhs;
    case CompareOp::kNe:
      return lhs != rhs;
    case CompareOp::kLt:
      return lhs < rhs;
    case CompareOp::kLe:
      return lhs <= rhs;
    case CompareOp::kGt:
      return lhs > rhs;
    case CompareOp::kGe:
      return lhs >= rhs;
  }
  return false;
}

void Saturating(uint64_t* counter, bool add) {
  if (add) {
    ++*counter;
  } else if (*counter > 0) {
    --*counter;
  }
}

}  // namespace

void StoreStats::AddEntry(const Entry& entry,
                          PageSynopses::Builder* synopses) {
  UpdateEntry(entry.view(), true, synopses);
}

void StoreStats::RemoveEntry(const Entry& entry) {
  UpdateEntry(entry.view(), false, nullptr);
}

Status StoreStats::AddRecord(std::string_view record) {
  Entry slow;
  NDQ_ASSIGN_OR_RETURN(EntryView entry, EntryView::Parse(record, &slow));
  UpdateEntry(entry, true, nullptr);
  return Status::OK();
}

size_t StoreStats::AttrIndex(uint64_t name_key) {
  AttrSlot* slot = attr_index_.Find(name_key);
  if (slot == nullptr) {
    slot = attr_index_.Insert(name_key);
    slot->index = attrs_.size();
    attrs_.emplace_back();
  }
  return slot->index;
}

void StoreStats::UpdateEntry(const EntryView& entry, bool add,
                             PageSynopses::Builder* synopses) {
  Saturating(&num_entries_, add);
  for (const AttributeView& attr : entry) {
    const uint64_t name_key = store_hash::NameKey(attr.name);
    const size_t index = AttrIndex(name_key);
    AttrStats& a = attrs_[index];
    Saturating(&a.entries, add);
    if (synopses != nullptr) {
      synopses->Attribute(static_cast<uint32_t>(index), name_key);
    }
    for (ValueView v : attr.values) {
      if (v.is_int()) {
        Saturating(&a.int_values, add);
        if (add) {
          McvAdd(&a.int_mcv, &a.int_other, IntKey(v.AsInt()));
        } else {
          McvRemove(&a.int_mcv, &a.int_other, IntKey(v.AsInt()));
        }
        if (synopses != nullptr) synopses->IntValue(v.AsInt());
      } else {
        Saturating(&a.str_values, add);
        const uint64_t hash = Hash(v.AsString());
        if (add) {
          McvAdd(&a.str_mcv, &a.str_other, hash);
        } else {
          McvRemove(&a.str_mcv, &a.str_other, hash);
        }
        if (synopses != nullptr) synopses->StringValue(v.AsString(), hash);
      }
    }
  }
  UpdateSketch(entry.key(), add);
}

void StoreStats::UpdateSketch(std::string_view key, bool add) {
  uint64_t hashes[kMaxSketchDepth + 1] = {};
  const size_t entry_depth = PrefixHashes(key, hashes);
  const size_t tracked = std::min(entry_depth, kMaxSketchDepth);
  for (size_t depth = 0; depth <= tracked; ++depth) {
    const uint64_t key_hash = SlotKey(hashes[depth]);
    NodeSlot* slot = sketch_.Find(key_hash);
    if (slot == nullptr) {
      if (!add || sketch_overflow_) continue;
      if (sketch_.size() >= kMaxSketchNodes) {
        sketch_overflow_ = true;
        continue;
      }
      slot = sketch_.Insert(key_hash);
    }
    SubtreeStats& node = slot->node;
    Saturating(&node.subtree_size, add);
    if (depth == entry_depth) Saturating(&node.self, add);
    if (depth + 1 == entry_depth) Saturating(&node.direct_children, add);
  }
}

const StoreStats::AttrStats* StoreStats::FindAttr(
    std::string_view name) const {
  const AttrSlot* slot = attr_index_.Find(store_hash::NameKey(name));
  return slot == nullptr ? nullptr : &attrs_[slot->index];
}

uint64_t StoreStats::EstimateFilterMatches(const AtomicFilter& filter) const {
  switch (filter.kind()) {
    case AtomicFilter::Kind::kTrue:
      return num_entries_;
    case AtomicFilter::Kind::kPresence: {
      const AttrStats* a = FindAttr(filter.attr());
      return a == nullptr ? 0 : a->entries;
    }
    case AtomicFilter::Kind::kEquals: {
      const AttrStats* a = FindAttr(filter.attr());
      if (a == nullptr) return 0;
      const Value& rhs = filter.equals_rhs();
      uint64_t est = 0;
      if (rhs.is_int()) {
        // An int literal also matches its string spelling (see
        // AtomicFilter::MatchesValue).
        est += McvGet(a->int_mcv, IntKey(rhs.AsInt())) + a->int_other;
        est += McvGet(a->str_mcv, Hash(rhs.ToString())) + a->str_other;
      } else {
        est += McvGet(a->str_mcv, Hash(rhs.AsString())) + a->str_other;
      }
      return std::min(est, a->entries);
    }
    case AtomicFilter::Kind::kIntCmp: {
      const AttrStats* a = FindAttr(filter.attr());
      if (a == nullptr) return 0;
      uint64_t est = a->int_other;
      a->int_mcv.ForEach([&](const McvSlot& slot) {
        if (IntCmpHolds(static_cast<int64_t>(slot.key), filter.cmp_op(),
                        filter.int_rhs())) {
          est += slot.count;
        }
      });
      return std::min(est, a->entries);
    }
    case AtomicFilter::Kind::kSubstring: {
      const AttrStats* a = FindAttr(filter.attr());
      if (a == nullptr) return 0;
      return std::min(a->str_values, a->entries);
    }
  }
  return num_entries_;
}

uint64_t StoreStats::EstimateLdapMatches(const LdapFilter& filter) const {
  switch (filter.op()) {
    case LdapFilter::Op::kAtomic:
      return EstimateFilterMatches(filter.atomic());
    case LdapFilter::Op::kAnd: {
      // A conjunction matches no more entries than its tightest term.
      uint64_t est = num_entries_;
      for (const LdapFilterPtr& c : filter.children()) {
        est = std::min(est, EstimateLdapMatches(*c));
      }
      return est;
    }
    case LdapFilter::Op::kOr: {
      uint64_t est = 0;
      for (const LdapFilterPtr& c : filter.children()) {
        est += EstimateLdapMatches(*c);
        if (est >= num_entries_) return num_entries_;
      }
      return est;
    }
    case LdapFilter::Op::kNot:
      // The histograms bound what a filter CAN match, which says nothing
      // about its complement.
      return num_entries_;
  }
  return num_entries_;
}

const SubtreeStats* StoreStats::Subtree(std::string_view hier_key) const {
  uint64_t hashes[kMaxSketchDepth + 1] = {};
  const size_t depth = PrefixHashes(hier_key, hashes);
  if (depth > kMaxSketchDepth) return nullptr;
  const NodeSlot* slot = sketch_.Find(SlotKey(hashes[depth]));
  return slot == nullptr ? nullptr : &slot->node;
}

bool StoreStats::operator==(const StoreStats& other) const {
  if (num_entries_ != other.num_entries_ ||
      sketch_overflow_ != other.sketch_overflow_ ||
      attrs_.size() != other.attrs_.size() || !(sketch_ == other.sketch_)) {
    return false;
  }
  bool equal = true;
  attr_index_.ForEach([&](const AttrSlot& slot) {
    const AttrSlot* theirs = other.attr_index_.Find(slot.key);
    equal = equal && theirs != nullptr &&
            attrs_[slot.index] == other.attrs_[theirs->index];
  });
  return equal;
}

std::string StoreStats::ToString() const {
  std::string out = "stats{entries=" + std::to_string(num_entries_) +
                    " attrs=" + std::to_string(attrs_.size()) +
                    " sketch_nodes=" + std::to_string(sketch_.size());
  if (sketch_overflow_) out += " sketch_overflow";
  out += "}";
  return out;
}

}  // namespace ndq
