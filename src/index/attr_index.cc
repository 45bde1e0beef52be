#include "index/attr_index.h"

#include <algorithm>

#include "storage/serde.h"

namespace ndq {

Result<AttributeIndexes> AttributeIndexes::Build(BufferPool* pool,
                                                 const EntryStore& store,
                                                 const IndexSpec& spec) {
  AttributeIndexes idx;
  for (const std::string& a : spec.int_attrs) {
    NDQ_ASSIGN_OR_RETURN(BPlusTree t, BPlusTree::Create(pool));
    idx.int_trees_.emplace(a, std::move(t));
  }
  for (const std::string& a : spec.dn_attrs) {
    NDQ_ASSIGN_OR_RETURN(BPlusTree t, BPlusTree::Create(pool));
    idx.dn_trees_.emplace(a, std::move(t));
  }
  for (const std::string& a : spec.string_attrs) {
    idx.tries_.emplace(a, Trie());
    idx.suffixes_.emplace(a, SuffixIndex());
  }

  Entry slow;
  Status scan = store.ScanRange(
      "", "", [&](std::string_view record) -> Status {
        uint64_t id = idx.keys_.size();
        NDQ_ASSIGN_OR_RETURN(EntryView e, EntryView::Parse(record, &slow));
        idx.keys_.emplace_back(e.key());
        for (const AttributeView& a : e) {
          const std::string attr(a.name);
          bool indexed = false;
          auto it_int = idx.int_trees_.find(attr);
          auto it_dn = idx.dn_trees_.find(attr);
          auto it_trie = idx.tries_.find(attr);
          for (ValueView v : a.values) {
            if (it_int != idx.int_trees_.end() && v.is_int()) {
              NDQ_RETURN_IF_ERROR(
                  it_int->second.Insert(EncodeIntKey(v.AsInt()), id));
              indexed = true;
            }
            if (it_dn != idx.dn_trees_.end() && v.is_dn()) {
              NDQ_RETURN_IF_ERROR(it_dn->second.Insert(v.AsString(), id));
              indexed = true;
            }
            if (it_trie != idx.tries_.end() && v.is_string()) {
              it_trie->second.Insert(v.AsString(), id);
              idx.suffixes_.find(attr)->second.Add(v.AsString(), id);
              indexed = true;
            }
          }
          if (indexed || it_int != idx.int_trees_.end() ||
              it_dn != idx.dn_trees_.end() ||
              it_trie != idx.tries_.end()) {
            idx.presence_[attr].push_back(id);
          }
        }
        return Status::OK();
      });
  NDQ_RETURN_IF_ERROR(scan);
  for (auto& [attr, suffix] : idx.suffixes_) {
    (void)attr;
    suffix.Build();
  }
  (void)spec;
  return idx;
}

Result<std::optional<std::vector<uint64_t>>> AttributeIndexes::Candidates(
    const AtomicFilter& filter) const {
  using Kind = AtomicFilter::Kind;
  switch (filter.kind()) {
    case Kind::kTrue:
      return std::optional<std::vector<uint64_t>>();  // scan is optimal
    case Kind::kPresence: {
      auto it = presence_.find(filter.attr());
      if (it == presence_.end()) {
        return std::optional<std::vector<uint64_t>>();
      }
      return std::optional<std::vector<uint64_t>>(it->second);
    }
    case Kind::kIntCmp: {
      auto it = int_trees_.find(filter.attr());
      if (it == int_trees_.end()) {
        return std::optional<std::vector<uint64_t>>();
      }
      const BPlusTree& tree = it->second;
      std::vector<uint64_t> ids;
      auto add = [&](std::string_view, uint64_t v) -> Status {
        ids.push_back(v);
        return Status::OK();
      };
      const int64_t rhs = filter.int_rhs();
      // Translate the comparison into bounded key ranges.
      switch (filter.cmp_op()) {
        case CompareOp::kEq:
          NDQ_RETURN_IF_ERROR(tree.ScanEqual(
              EncodeIntKey(rhs),
              [&](uint64_t v) -> Status { return add("", v); }));
          break;
        case CompareOp::kLt:
          NDQ_RETURN_IF_ERROR(tree.ScanRange("", EncodeIntKey(rhs), add));
          break;
        case CompareOp::kLe:
          NDQ_RETURN_IF_ERROR(
              tree.ScanRange("", EncodeIntKey(rhs) + '\x01', add));
          break;
        case CompareOp::kGt:
          NDQ_RETURN_IF_ERROR(
              tree.ScanRange(EncodeIntKey(rhs) + '\x01', "", add));
          break;
        case CompareOp::kGe:
          NDQ_RETURN_IF_ERROR(tree.ScanRange(EncodeIntKey(rhs), "", add));
          break;
        case CompareOp::kNe:
          NDQ_RETURN_IF_ERROR(tree.ScanRange("", EncodeIntKey(rhs), add));
          NDQ_RETURN_IF_ERROR(
              tree.ScanRange(EncodeIntKey(rhs) + '\x01', "", add));
          break;
      }
      std::sort(ids.begin(), ids.end());
      ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
      return std::optional<std::vector<uint64_t>>(std::move(ids));
    }
    case Kind::kEquals: {
      const Value& rhs = filter.equals_rhs();
      std::vector<uint64_t> ids;
      bool answered = false;
      if (rhs.is_int()) {
        auto it_int = int_trees_.find(filter.attr());
        if (it_int != int_trees_.end()) {
          NDQ_RETURN_IF_ERROR(it_int->second.ScanEqual(
              EncodeIntKey(rhs.AsInt()), [&](uint64_t v) -> Status {
                ids.push_back(v);
                return Status::OK();
              }));
          answered = true;
        }
        // An int literal also matches its string spelling.
        auto it_trie = tries_.find(filter.attr());
        if (it_trie != tries_.end()) {
          std::vector<uint64_t> got = it_trie->second.Lookup(rhs.ToString());
          ids.insert(ids.end(), got.begin(), got.end());
          answered = true;
        }
      } else {
        auto it_trie = tries_.find(filter.attr());
        if (it_trie != tries_.end()) {
          std::vector<uint64_t> got = it_trie->second.Lookup(rhs.AsString());
          ids.insert(ids.end(), got.begin(), got.end());
          answered = true;
        }
        auto it_dn = dn_trees_.find(filter.attr());
        if (it_dn != dn_trees_.end()) {
          NDQ_RETURN_IF_ERROR(it_dn->second.ScanEqual(
              rhs.AsString(), [&](uint64_t v) -> Status {
                ids.push_back(v);
                return Status::OK();
              }));
          answered = true;
        }
      }
      if (!answered) return std::optional<std::vector<uint64_t>>();
      std::sort(ids.begin(), ids.end());
      ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
      return std::optional<std::vector<uint64_t>>(std::move(ids));
    }
    case Kind::kSubstring: {
      auto it = suffixes_.find(filter.attr());
      if (it == suffixes_.end()) {
        return std::optional<std::vector<uint64_t>>();
      }
      // Use the longest fixed fragment of the pattern as the needle; the
      // full wildcard match is re-verified against fetched entries.
      std::string longest;
      for (const std::string& part : filter.pattern_parts()) {
        if (part.size() > longest.size()) longest = part;
      }
      NDQ_ASSIGN_OR_RETURN(std::vector<uint64_t> ids,
                           it->second.Search(longest));
      return std::optional<std::vector<uint64_t>>(std::move(ids));
    }
  }
  return std::optional<std::vector<uint64_t>>();
}

Result<std::optional<Run>> AttributeIndexes::EvalAtomic(
    Disk* disk, const EntryStore& store, const Dn& base, Scope scope,
    const AtomicFilter& filter) const {
  NDQ_ASSIGN_OR_RETURN(std::optional<std::vector<uint64_t>> candidates,
                       Candidates(filter));
  if (!candidates.has_value()) {
    return std::optional<Run>();  // fall back to range scan
  }
  const std::string& base_key = base.HierKey();
  RunWriter writer(disk, PageFormat::kKeyPrefix);
  for (uint64_t id : *candidates) {
    const std::string& key = keys_[id];
    switch (scope) {
      case Scope::kBase:
        if (key != base_key) continue;
        break;
      case Scope::kOne:
        if (key != base_key && !KeyIsParent(base_key, key)) continue;
        break;
      case Scope::kSub:
        if (!KeyInSubtree(base_key, key)) continue;
        break;
    }
    NDQ_ASSIGN_OR_RETURN(std::optional<Entry> entry, store.Get(key));
    if (!entry.has_value()) {
      return Status::Corruption("indexed key missing from store: " + key);
    }
    // Re-verify (needed for substring candidates; harmless otherwise).
    if (!filter.Matches(*entry)) continue;
    std::string record;
    SerializeEntry(*entry, &record);
    NDQ_RETURN_IF_ERROR(writer.Add(record));
  }
  return std::optional<Run>(writer.Finish().TakeValue());
}

}  // namespace ndq
