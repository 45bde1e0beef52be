#include "exec/atomic.h"

namespace ndq {

namespace {

template <typename MatchFn>
Result<EntryList> ScanScope(Disk* disk, const EntrySource& store,
                            const Dn& base, Scope scope,
                            const MatchFn& matches, OpTrace* trace) {
  uint64_t scanned = 0;
  const std::string& base_key = base.HierKey();
  std::string start = base_key;
  std::string end;
  switch (scope) {
    case Scope::kBase:
      end = KeyExactEnd(base_key);
      break;
    case Scope::kOne:
    case Scope::kSub:
      end = KeySubtreeEnd(base_key);
      break;
  }
  if (scope == Scope::kBase && base.IsNull()) {
    // The null dn names no entry.
    RunWriter writer(disk, PageFormat::kKeyPrefix);
    return writer.Finish();
  }
  RunWriter writer(disk, PageFormat::kKeyPrefix);
  Entry slow;
  Status s = store.ScanRange(
      start, end, [&](std::string_view record) -> Status {
        ++scanned;
        NDQ_ASSIGN_OR_RETURN(std::string_view key, PeekEntryKey(record));
        if (scope == Scope::kOne && key != base_key &&
            !KeyIsParent(base_key, key)) {
          return Status::OK();  // deeper descendant: outside scope one
        }
        if (scope == Scope::kSub && !KeyInSubtree(base_key, key)) {
          // The subtree range also covers siblings whose last RDN extends
          // the base's with more pairs ("base" + kHierPairSep + ...).
          return Status::OK();
        }
        // The record is checked as DeserializeEntry checks it and matched
        // in place; it is written out as read.
        NDQ_ASSIGN_OR_RETURN(EntryView entry, EntryView::Parse(record, &slow));
        if (matches(entry)) NDQ_RETURN_IF_ERROR(writer.Add(record));
        return Status::OK();
      });
  NDQ_RETURN_IF_ERROR(s);
  Result<EntryList> out = writer.Finish();
  if (trace != nullptr && out.ok()) {
    trace->scanned_records = scanned;
    trace->output_records = out->num_records;
    trace->output_pages = out->pages.size();
  }
  return out;
}

}  // namespace

Result<EntryList> EvalAtomic(Disk* disk, const EntrySource& store,
                             const Dn& base, Scope scope,
                             const AtomicFilter& filter, OpTrace* trace) {
  if (trace != nullptr) trace->op = QueryOp::kAtomic;
  return ScanScope(disk, store, base, scope,
                   [&](const EntryView& e) { return filter.Matches(e); },
                   trace);
}

Result<EntryList> EvalLdap(Disk* disk, const EntrySource& store,
                           const Dn& base, Scope scope,
                           const LdapFilter& filter, OpTrace* trace) {
  if (trace != nullptr) trace->op = QueryOp::kLdap;
  return ScanScope(disk, store, base, scope,
                   [&](const EntryView& e) { return filter.Matches(e); },
                   trace);
}

}  // namespace ndq
