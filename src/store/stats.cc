#include "store/stats.h"

#include <algorithm>

#include "storage/serde.h"

namespace ndq {

namespace {

// Bumps a capped MCV map. A value whose slot would exceed the cap lands
// in *other, which every estimate adds back in.
template <typename Map, typename Key>
void McvAdd(Map* map, uint64_t* other, const Key& key) {
  auto it = map->find(key);
  if (it != map->end()) {
    ++it->second;
    return;
  }
  if (map->size() < StoreStats::kMaxTrackedValues) {
    map->emplace(key, 1);
  } else {
    ++*other;
  }
}

// Undoes one McvAdd of `key`. The copy being removed is either in its own
// slot or in the overflow bucket; decrementing whichever is nonempty keeps
// sum(map) + other equal to the live value count.
template <typename Map, typename Key>
void McvRemove(Map* map, uint64_t* other, const Key& key) {
  auto it = map->find(key);
  if (it != map->end() && it->second > 0) {
    if (--it->second == 0) map->erase(it);
    return;
  }
  if (*other > 0) --*other;
}

uint64_t McvGet(const std::map<int64_t, uint64_t>& map, int64_t key) {
  auto it = map.find(key);
  return it == map.end() ? 0 : it->second;
}

uint64_t McvGet(const std::map<std::string, uint64_t, std::less<>>& map,
                const std::string& key) {
  auto it = map.find(key);
  return it == map.end() ? 0 : it->second;
}

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

void StoreStats::AddEntry(const Entry& entry) {
  UpdateEntry(entry.view(), true);
}

void StoreStats::RemoveEntry(const Entry& entry) {
  UpdateEntry(entry.view(), false);
}

Status StoreStats::AddRecord(std::string_view record) {
  Entry slow;
  NDQ_ASSIGN_OR_RETURN(EntryView entry, EntryView::Parse(record, &slow));
  UpdateEntry(entry, true);
  return Status::OK();
}

void StoreStats::UpdateEntry(const EntryView& entry, bool add) {
  Saturating(&num_entries_, add);
  for (const AttributeView& attr : entry) {
    auto it = attrs_.find(attr.name);
    if (it == attrs_.end()) {
      it = attrs_.emplace(std::string(attr.name), AttrStats()).first;
    }
    AttrStats& a = it->second;
    Saturating(&a.entries, add);
    for (ValueView v : attr.values) {
      if (v.is_int()) {
        Saturating(&a.int_values, add);
        if (add) {
          McvAdd(&a.int_mcv, &a.int_other, v.AsInt());
        } else {
          McvRemove(&a.int_mcv, &a.int_other, v.AsInt());
        }
      } else {
        Saturating(&a.str_values, add);
        if (add) {
          McvAdd(&a.str_mcv, &a.str_other, v.AsString());
        } else {
          McvRemove(&a.str_mcv, &a.str_other, v.AsString());
        }
      }
    }
  }
  UpdateSketch(entry.key(), add);
}

void StoreStats::UpdateSketch(std::string_view key, bool add) {
  const size_t entry_depth = KeyDepth(key);
  auto touch = [&](std::string_view prefix, size_t depth) {
    if (depth > kMaxSketchDepth) return;
    SubtreeStats* node = nullptr;
    auto it = sketch_.find(prefix);
    if (it != sketch_.end()) {
      node = &it->second;
    } else if (add && !sketch_overflow_) {
      if (sketch_.size() >= kMaxSketchNodes) {
        sketch_overflow_ = true;
        return;
      }
      node = &sketch_[std::string(prefix)];
    } else {
      return;
    }
    Saturating(&node->subtree_size, add);
    if (depth == entry_depth) Saturating(&node->self, add);
    if (depth + 1 == entry_depth) Saturating(&node->direct_children, add);
  };
  touch(std::string_view(), 0);
  size_t depth = 0;
  for (size_t i = 0; i < key.size(); ++i) {
    if (key[i] == kHierKeySep) touch(key.substr(0, i), ++depth);
  }
  if (!key.empty()) touch(key, entry_depth);
}

const StoreStats::AttrStats* StoreStats::FindAttr(
    const std::string& attr) const {
  auto it = attrs_.find(attr);
  return it == attrs_.end() ? nullptr : &it->second;
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
        est += McvGet(a->int_mcv, rhs.AsInt()) + a->int_other;
        est += McvGet(a->str_mcv, rhs.ToString()) + a->str_other;
      } else {
        est += McvGet(a->str_mcv, rhs.AsString()) + a->str_other;
      }
      return std::min(est, a->entries);
    }
    case AtomicFilter::Kind::kIntCmp: {
      const AttrStats* a = FindAttr(filter.attr());
      if (a == nullptr) return 0;
      uint64_t est = a->int_other;
      for (const auto& [v, count] : a->int_mcv) {
        if (IntCmpHolds(v, filter.cmp_op(), filter.int_rhs())) est += count;
      }
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
  auto it = sketch_.find(hier_key);
  return it == sketch_.end() ? nullptr : &it->second;
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
