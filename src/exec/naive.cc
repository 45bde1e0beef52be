#include "exec/naive.h"

#include "core/dn.h"

namespace ndq {

namespace {

bool RelatedKeys(QueryOp op, std::string_view k1, std::string_view k2) {
  switch (op) {
    case QueryOp::kParents:
      return KeyIsParent(k2, k1);
    case QueryOp::kChildren:
      return KeyIsParent(k1, k2);
    case QueryOp::kAncestors:
    case QueryOp::kCoAncestors:
      return KeyIsAncestor(k2, k1);
    case QueryOp::kDescendants:
    case QueryOp::kCoDescendants:
      return KeyIsAncestor(k1, k2);
    default:
      return false;
  }
}

// Whether some r3 in L3 strictly intervenes between r1 and witness r2.
Result<bool> Blocked(Disk* disk, QueryOp op, const EntryList& l3,
                     std::string_view k1, std::string_view k2) {
  RunReader reader(disk, l3);
  std::string rec;
  while (true) {
    NDQ_ASSIGN_OR_RETURN(bool more, reader.Next(&rec));
    if (!more) break;
    NDQ_ASSIGN_OR_RETURN(std::string_view k3, PeekEntryKey(rec));
    if (k3 == k1 || k3 == k2) continue;
    bool between = op == QueryOp::kCoAncestors
                       ? (KeyIsAncestor(k3, k1) && KeyIsAncestor(k2, k3))
                       : (KeyIsAncestor(k1, k3) && KeyIsAncestor(k3, k2));
    if (between) return true;
  }
  return false;
}

// Aggregate-selection variant shared by the hierarchy and embedded-ref
// baselines: for each r1, the L2 rescan folds every witness's
// contribution into fresh accumulators (instead of early-exiting on the
// first one); the annotated list then goes through the same filter scan
// the stack/merge algorithms use — by Def. 6.2 that scan IS the
// semantics, so reusing it keeps the two sides comparable while the
// witness accumulation stays independent.
Result<EntryList> NaiveAggSelect(Disk* disk, QueryOp op,
                                 const EntryList& l1, const EntryList& l2,
                                 const EntryList* l3,
                                 const std::string& attr,
                                 const AggSelFilter& agg) {
  NDQ_ASSIGN_OR_RETURN(AggProgram prog,
                       AggProgram::Compile(agg, /*structural=*/true));
  const bool constrained =
      op == QueryOp::kCoAncestors || op == QueryOp::kCoDescendants;
  const bool embedded =
      op == QueryOp::kValueDn || op == QueryOp::kDnValue;
  RunWriter annotated_writer(disk);
  RunReader outer(disk, l1);
  std::string rec1, buf;
  while (true) {
    NDQ_ASSIGN_OR_RETURN(bool more, outer.Next(&rec1));
    if (!more) break;
    NDQ_ASSIGN_OR_RETURN(Entry r1, DeserializeEntry(rec1));
    std::vector<AggAccumulator> accs = prog.MakeWitnessAccs();
    RunReader inner(disk, l2);
    std::string rec2;
    while (true) {
      NDQ_ASSIGN_OR_RETURN(bool more2, inner.Next(&rec2));
      if (!more2) break;
      bool witness = false;
      if (embedded) {
        NDQ_ASSIGN_OR_RETURN(Entry r2, DeserializeEntry(rec2));
        witness = op == QueryOp::kValueDn
                      ? r1.HasPair(attr, Value::DnRef(r2.dn().ToString()))
                      : r2.HasPair(attr, Value::DnRef(r1.dn().ToString()));
        if (witness) prog.AddWitnessContribution(r2.view(), &accs);
        continue;
      }
      NDQ_ASSIGN_OR_RETURN(std::string_view k2, PeekEntryKey(rec2));
      if (!RelatedKeys(op, r1.HierKey(), k2)) continue;
      if (constrained) {
        NDQ_ASSIGN_OR_RETURN(bool blocked,
                             Blocked(disk, op, *l3, r1.HierKey(), k2));
        if (blocked) continue;
      }
      NDQ_ASSIGN_OR_RETURN(Entry r2, DeserializeEntry(rec2));
      prog.AddWitnessContribution(r2.view(), &accs);
    }
    std::vector<std::optional<int64_t>> vals;
    vals.reserve(accs.size());
    for (AggAccumulator& a : accs) vals.push_back(a.Finish());
    buf.clear();
    WriteAnnotated(vals, rec1, &buf);
    NDQ_RETURN_IF_ERROR(annotated_writer.Add(buf));
  }
  NDQ_ASSIGN_OR_RETURN(Run annotated, annotated_writer.Finish());
  return FilterAnnotatedList(disk, annotated, prog);
}

}  // namespace

Result<EntryList> NaiveHierarchy(Disk* disk, QueryOp op,
                                 const EntryList& l1, const EntryList& l2,
                                 const EntryList* l3,
                                 const std::optional<AggSelFilter>& agg) {
  const bool constrained =
      op == QueryOp::kCoAncestors || op == QueryOp::kCoDescendants;
  if (constrained && l3 == nullptr) {
    return Status::InvalidArgument("constrained operator requires L3");
  }
  if (agg.has_value()) {
    return NaiveAggSelect(disk, op, l1, l2, l3, /*attr=*/"", *agg);
  }
  RunWriter out(disk, PageFormat::kKeyPrefix);
  RunReader outer(disk, l1);
  std::string rec1;
  while (true) {
    NDQ_ASSIGN_OR_RETURN(bool more, outer.Next(&rec1));
    if (!more) break;
    NDQ_ASSIGN_OR_RETURN(std::string_view k1, PeekEntryKey(rec1));
    // Independently rescan L2 looking for a witness for this entry.
    RunReader inner(disk, l2);
    std::string rec2;
    bool found = false;
    while (!found) {
      NDQ_ASSIGN_OR_RETURN(bool more2, inner.Next(&rec2));
      if (!more2) break;
      NDQ_ASSIGN_OR_RETURN(std::string_view k2, PeekEntryKey(rec2));
      if (!RelatedKeys(op, k1, k2)) continue;
      if (constrained) {
        NDQ_ASSIGN_OR_RETURN(bool blocked, Blocked(disk, op, *l3, k1, k2));
        if (blocked) continue;
      }
      found = true;
    }
    if (found) NDQ_RETURN_IF_ERROR(out.Add(rec1));
  }
  return out.Finish();
}

Result<EntryList> NaiveEmbeddedRef(Disk* disk, QueryOp op,
                                   const EntryList& l1, const EntryList& l2,
                                   const std::string& attr,
                                   const std::optional<AggSelFilter>& agg) {
  if (op != QueryOp::kValueDn && op != QueryOp::kDnValue) {
    return Status::InvalidArgument("NaiveEmbeddedRef: not vd/dv");
  }
  if (agg.has_value()) {
    return NaiveAggSelect(disk, op, l1, l2, /*l3=*/nullptr, attr, *agg);
  }
  RunWriter out(disk, PageFormat::kKeyPrefix);
  RunReader outer(disk, l1);
  std::string rec1;
  while (true) {
    NDQ_ASSIGN_OR_RETURN(bool more, outer.Next(&rec1));
    if (!more) break;
    NDQ_ASSIGN_OR_RETURN(Entry r1, DeserializeEntry(rec1));
    RunReader inner(disk, l2);
    std::string rec2;
    bool found = false;
    while (!found) {
      NDQ_ASSIGN_OR_RETURN(bool more2, inner.Next(&rec2));
      if (!more2) break;
      NDQ_ASSIGN_OR_RETURN(Entry r2, DeserializeEntry(rec2));
      if (op == QueryOp::kValueDn) {
        found = r1.HasPair(attr, Value::DnRef(r2.dn().ToString()));
      } else {
        found = r2.HasPair(attr, Value::DnRef(r1.dn().ToString()));
      }
    }
    if (found) NDQ_RETURN_IF_ERROR(out.Add(rec1));
  }
  return out.Finish();
}

}  // namespace ndq
