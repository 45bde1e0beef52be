#include "exec/atomic.h"

#include <memory>
#include <optional>

#include "query/fingerprint.h"

namespace ndq {

namespace {

// Whether `key`, read from the subtree range of the base entry keyed
// `base_key`, lies in `scope` of that entry.
bool InScope(Scope scope, std::string_view base_key, std::string_view key) {
  switch (scope) {
    case Scope::kBase:
      // The null dn names no entry, and no record has the empty key.
      return key == base_key;
    case Scope::kOne:
      return key == base_key || KeyIsParent(base_key, key);
    case Scope::kSub:
      // The subtree range also covers siblings whose last RDN extends
      // the base's with more pairs ("base" + kHierPairSep + ...).
      return KeyInSubtree(base_key, key);
  }
  return false;
}

bool LeafMatches(const ScanLeaf& leaf, const EntryView& entry) {
  return leaf.filter != nullptr ? leaf.filter->Matches(entry)
                                : leaf.ldap_filter->Matches(entry);
}

// The filter a leaf query (atomic or LDAP) has its range scan serve.
ScanFilter LeafScanFilter(const Query& leaf) {
  if (leaf.op() == QueryOp::kAtomic) return {&leaf.filter(), nullptr};
  return {nullptr, leaf.ldap_filter().get()};
}

}  // namespace

Result<std::vector<EntryList>> ScanLeaves(
    Disk* disk, const EntrySource& store, const Dn& base,
    const std::vector<ScanLeaf>& leaves) {
  const std::string& base_key = base.HierKey();
  bool subtree = false;
  for (const ScanLeaf& leaf : leaves) subtree |= leaf.scope != Scope::kBase;
  // The first leaf's trace takes the range's reads (and its own writes);
  // every other traced leaf claims its writes with a scope of its own.
  OpTrace* first = leaves.empty() ? nullptr : leaves.front().trace;
  std::optional<IoScope> scan_scope;
  if (first != nullptr) scan_scope.emplace(nullptr, &first->io);

  std::vector<std::unique_ptr<RunWriter>> writers;
  for (size_t i = 0; i < leaves.size(); ++i) {
    writers.push_back(
        std::make_unique<RunWriter>(disk, PageFormat::kKeyPrefix));
  }
  auto claim = [&](size_t i, std::optional<IoScope>* scope) {
    if (i > 0 && leaves[i].trace != nullptr) {
      scope->emplace(nullptr, &leaves[i].trace->io);
    }
  };
  uint64_t scanned = 0;
  uint64_t skipped = 0;
  // Base scopes of the null dn select nothing: with no other leaf there
  // is no range to read.
  if (subtree || !base.IsNull()) {
    const std::string end =
        subtree ? KeySubtreeEnd(base_key) : KeyExactEnd(base_key);
    // A record no leaf's filter matches is one no leaf wants: the store
    // may pass over the pages that hold only such records.
    std::vector<ScanFilter> filters;
    for (const ScanLeaf& leaf : leaves) {
      filters.push_back({leaf.filter, leaf.ldap_filter});
    }
    Entry slow;
    NDQ_RETURN_IF_ERROR(store.ScanRange(
        base_key, end, filters, [&](std::string_view record) -> Status {
          ++scanned;
          NDQ_ASSIGN_OR_RETURN(std::string_view key, PeekEntryKey(record));
          // The record is checked as DeserializeEntry checks it, once, the
          // first time a leaf's scope takes it, and matched in place; it
          // is written out as read.
          std::optional<EntryView> entry;
          for (size_t i = 0; i < leaves.size(); ++i) {
            if (!InScope(leaves[i].scope, base_key, key)) continue;
            if (!entry.has_value()) {
              NDQ_ASSIGN_OR_RETURN(entry, EntryView::Parse(record, &slow));
            }
            if (!LeafMatches(leaves[i], *entry)) continue;
            std::optional<IoScope> scope;
            claim(i, &scope);
            NDQ_RETURN_IF_ERROR(writers[i]->Add(record));
          }
          return Status::OK();
        },
        &skipped));
  }

  // A finished list is guarded until every list is: a later writer's
  // failed flush frees the earlier lists, and unfinished writers free
  // their own pages.
  std::vector<ScopedRun> lists;
  for (size_t i = 0; i < leaves.size(); ++i) {
    std::optional<IoScope> scope;
    claim(i, &scope);
    NDQ_ASSIGN_OR_RETURN(EntryList list, writers[i]->Finish());
    lists.emplace_back(disk, list);
  }
  std::vector<EntryList> out;
  for (size_t i = 0; i < leaves.size(); ++i) {
    OpTrace* trace = leaves[i].trace;
    out.push_back(lists[i].Release());
    if (trace == nullptr) continue;
    trace->op = leaves[i].filter != nullptr ? QueryOp::kAtomic
                                            : QueryOp::kLdap;
    trace->output_records = out.back().num_records;
    trace->output_pages = out.back().pages.size();
    if (leaves.size() > 1) trace->shared_scan = leaves.size();
  }
  if (first != nullptr) {
    first->scanned_records = scanned;
    first->skipped_pages = skipped;
  }
  return out;
}

std::vector<std::vector<size_t>> ScanUnits(
    const std::vector<const Query*>& operands) {
  auto leaf = [](const Query& q) {
    return q.op() == QueryOp::kAtomic || q.op() == QueryOp::kLdap;
  };
  auto joins = [&](const std::vector<size_t>& unit, const Query& q) {
    const Query& first = *operands[unit.front()];
    if (!leaf(q) || !leaf(first) ||
        first.base().HierKey() != q.base().HierKey()) {
      return false;
    }
    const std::string fp = QueryFingerprint(q);
    for (size_t i : unit) {
      if (QueryFingerprint(*operands[i]) == fp) return false;
    }
    return true;
  };
  std::vector<std::vector<size_t>> units;
  for (size_t i = 0; i < operands.size(); ++i) {
    std::vector<size_t>* unit = nullptr;
    for (std::vector<size_t>& u : units) {
      if (joins(u, *operands[i])) {
        unit = &u;
        break;
      }
    }
    if (unit == nullptr) unit = &units.emplace_back();
    unit->push_back(i);
  }
  return units;
}

EntrySource::RangeEstimate EstimateScan(
    const EntrySource& store, const std::vector<const Query*>& leaves) {
  const std::string& base_key = leaves.front()->base().HierKey();
  bool subtree = false;
  std::vector<ScanFilter> filters;
  for (const Query* leaf : leaves) {
    subtree |= leaf->scope() != Scope::kBase;
    filters.push_back(LeafScanFilter(*leaf));
  }
  return store.EstimateRange(
      base_key, subtree ? KeySubtreeEnd(base_key) : KeyExactEnd(base_key),
      filters);
}

Result<EntryList> EvalAtomic(Disk* disk, const EntrySource& store,
                             const Dn& base, Scope scope,
                             const AtomicFilter& filter, OpTrace* trace) {
  NDQ_ASSIGN_OR_RETURN(std::vector<EntryList> lists,
                       ScanLeaves(disk, store, base,
                                  {ScanLeaf{scope, &filter, nullptr, trace}}));
  return lists.front();
}

Result<EntryList> EvalLdap(Disk* disk, const EntrySource& store,
                           const Dn& base, Scope scope,
                           const LdapFilter& filter, OpTrace* trace) {
  NDQ_ASSIGN_OR_RETURN(std::vector<EntryList> lists,
                       ScanLeaves(disk, store, base,
                                  {ScanLeaf{scope, nullptr, &filter, trace}}));
  return lists.front();
}

}  // namespace ndq
