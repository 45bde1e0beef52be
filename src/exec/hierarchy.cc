#include "exec/hierarchy.h"

#include "storage/spill_stack.h"

namespace ndq {

namespace {

// One stack element of the (generalized) Figs. 2/4/5 algorithms.
struct HSItem {
  std::string key;
  uint8_t labels = 0;
  // Forward (ancestor) pass: witness contributions visible from below —
  // this item's own contribution plus, unless blocked, its stack-parent's
  // visible accumulators.
  // Backward (descendant) pass: witness contributions of this item's
  // subtree visible from above.
  std::vector<AggAccumulator> vis;
  // Backward pass, children operator only: the item's own contribution.
  std::vector<AggAccumulator> own;
};

void SerializeHSItem(const HSItem& item, std::string* out) {
  ByteWriter w(out);
  w.PutString(item.key);
  w.PutU8(item.labels);
  w.PutVarint(item.vis.size());
  for (const AggAccumulator& a : item.vis) SerializeAcc(a, out);
  w.PutVarint(item.own.size());
  for (const AggAccumulator& a : item.own) SerializeAcc(a, out);
}

Result<HSItem> DeserializeHSItem(std::string_view rec) {
  ByteReader r(rec);
  HSItem item;
  NDQ_ASSIGN_OR_RETURN(std::string_view key, r.GetString());
  item.key = std::string(key);
  NDQ_ASSIGN_OR_RETURN(item.labels, r.GetU8());
  NDQ_ASSIGN_OR_RETURN(uint64_t nvis, r.GetVarint());
  for (uint64_t i = 0; i < nvis; ++i) {
    NDQ_ASSIGN_OR_RETURN(AggAccumulator a, DeserializeAcc(&r));
    item.vis.push_back(std::move(a));
  }
  NDQ_ASSIGN_OR_RETURN(uint64_t nown, r.GetVarint());
  for (uint64_t i = 0; i < nown; ++i) {
    NDQ_ASSIGN_OR_RETURN(AggAccumulator a, DeserializeAcc(&r));
    item.own.push_back(std::move(a));
  }
  return item;
}

void MergeAccVec(const std::vector<AggAccumulator>& from,
                 std::vector<AggAccumulator>* into) {
  for (size_t i = 0; i < into->size() && i < from.size(); ++i) {
    (*into)[i].Merge(from[i]);
  }
}

using HSStack = SpillableStack<HSItem>;

std::unique_ptr<HSStack> MakeStack(Disk* disk, size_t window) {
  return std::make_unique<HSStack>(
      disk, window, SerializeHSItem,
      [](std::string_view rec) { return DeserializeHSItem(rec); },
      PageFormat::kKeyPrefix);
}

// Forward pass for the ancestor-direction operators (p, a, ac): one scan
// of the lexicographic merge; emits the annotated L1 list in key order.
Result<Run> AncestorPass(Disk* disk, QueryOp op, const EntryList& l1,
                         const EntryList& l2, const EntryList* l3,
                         const AggProgram& prog, const ExecOptions& options,
                         OpTrace* trace) {
  LabeledMerge merge(disk, &l1, &l2, l3);
  auto stack = MakeStack(disk, options.stack_window);
  RunWriter out(disk);
  LabeledRecord rec;
  std::string buf;
  Entry slow;
  while (true) {
    NDQ_ASSIGN_OR_RETURN(bool more, merge.Next(&rec));
    if (!more) break;
    // Pop everything that is not an ancestor of the new arrival; what
    // remains on top is its closest merge-ancestor.
    while (!stack->Empty() && !KeyIsAncestor(stack->Top().key, rec.key)) {
      NDQ_RETURN_IF_ERROR(stack->Pop().status());
    }

    NDQ_ASSIGN_OR_RETURN(EntryView entry,
                         EntryView::Parse(rec.entry_record, &slow));

    // The arrival's witness accumulators, complete at this moment.
    std::vector<AggAccumulator> wit = prog.MakeWitnessAccs();
    if (!stack->Empty()) {
      const HSItem& top = stack->Top();
      if (op == QueryOp::kParents) {
        // Witness = the parent entry, iff present in L2. The closest
        // merge-ancestor is the parent entry whenever the parent is in the
        // merge at all.
        if ((top.labels & kInL2) != 0 && KeyIsParent(top.key, rec.key)) {
          MergeAccVec(top.own, &wit);
        }
      } else {
        MergeAccVec(top.vis, &wit);
      }
    }

    if ((rec.labels & kInL1) != 0) {
      std::vector<std::optional<int64_t>> vals;
      vals.reserve(wit.size());
      for (const AggAccumulator& a : wit) vals.push_back(a.Finish());
      buf.clear();
      WriteAnnotated(vals, rec.entry_record, &buf);
      NDQ_RETURN_IF_ERROR(out.Add(buf));
    }

    // Push with this item's visible-from-below accumulators.
    HSItem item;
    item.key = std::string(rec.key);
    item.labels = rec.labels;
    item.own = prog.MakeWitnessAccs();
    if ((rec.labels & kInL2) != 0) {
      prog.AddWitnessContribution(entry, &item.own);
    }
    item.vis = item.own;
    bool blocked = op == QueryOp::kCoAncestors && (rec.labels & kInL3) != 0;
    if (!blocked && !stack->Empty() && op != QueryOp::kParents) {
      MergeAccVec(stack->Top().vis, &item.vis);
    }
    NDQ_RETURN_IF_ERROR(stack->Push(std::move(item)));
  }
  if (trace != nullptr) {
    trace->peak_stack_items = stack->peak_size();
    trace->stack_spills = stack->spill_count();
  }
  return out.Finish();
}

// Backward pass for the descendant-direction operators (c, d, dc): merges
// the inputs in DESCENDING key order, reading each one backwards straight
// from its run; emits the annotated L1 list in descending order (the
// filter phase reads it backwards).
Result<Run> DescendantPass(Disk* disk, QueryOp op, const EntryList& l1,
                           const EntryList& l2, const EntryList* l3,
                           const AggProgram& prog, const ExecOptions& options,
                           OpTrace* trace) {
  LabeledMerge merge(disk, &l1, &l2, l3, KeyOrder::kDescending);
  auto stack = MakeStack(disk, options.stack_window);
  RunWriter out(disk);
  LabeledRecord rec;
  std::string buf;
  Entry slow;
  while (true) {
    NDQ_ASSIGN_OR_RETURN(bool more, merge.Next(&rec));
    if (!more) break;
    NDQ_ASSIGN_OR_RETURN(EntryView entry,
                         EntryView::Parse(rec.entry_record, &slow));

    // In descending order, the arrival's descendants sit on top of the
    // stack; pop and fold them.
    std::vector<AggAccumulator> wit = prog.MakeWitnessAccs();
    while (!stack->Empty() && KeyIsAncestor(rec.key, stack->Top().key)) {
      NDQ_ASSIGN_OR_RETURN(HSItem popped, stack->Pop());
      switch (op) {
        case QueryOp::kChildren:
          if ((popped.labels & kInL2) != 0 &&
              KeyIsParent(rec.key, popped.key)) {
            MergeAccVec(popped.own, &wit);
          }
          break;
        case QueryOp::kDescendants:
        case QueryOp::kCoDescendants:
          MergeAccVec(popped.vis, &wit);
          break;
        default:
          return Status::Internal("DescendantPass: bad op");
      }
    }

    if ((rec.labels & kInL1) != 0) {
      std::vector<std::optional<int64_t>> vals;
      vals.reserve(wit.size());
      for (const AggAccumulator& a : wit) vals.push_back(a.Finish());
      buf.clear();
      WriteAnnotated(vals, rec.entry_record, &buf);
      NDQ_RETURN_IF_ERROR(out.Add(buf));
    }

    // Push this item with its subtree-visible accumulators.
    HSItem item;
    item.key = std::string(rec.key);
    item.labels = rec.labels;
    item.own = prog.MakeWitnessAccs();
    if ((rec.labels & kInL2) != 0) {
      prog.AddWitnessContribution(entry, &item.own);
    }
    item.vis = item.own;
    bool blocks_below =
        op == QueryOp::kCoDescendants && (rec.labels & kInL3) != 0;
    if (!blocks_below) {
      // The folded witness accumulators of the popped descendants are
      // exactly what remains visible through this item... except for the
      // children operator, where vis is unused.
      MergeAccVec(wit, &item.vis);
    }
    NDQ_RETURN_IF_ERROR(stack->Push(std::move(item)));
  }
  if (trace != nullptr) {
    trace->peak_stack_items = stack->peak_size();
    trace->stack_spills = stack->spill_count();
  }
  return out.Finish();
}

}  // namespace

Result<EntryList> EvalHierarchy(Disk* disk, QueryOp op,
                                const EntryList& l1, const EntryList& l2,
                                const EntryList* l3,
                                const std::optional<AggSelFilter>& agg,
                                const ExecOptions& options, OpTrace* trace) {
  const bool constrained =
      op == QueryOp::kCoAncestors || op == QueryOp::kCoDescendants;
  if (constrained && l3 == nullptr) {
    return Status::InvalidArgument("constrained operator requires L3");
  }
  if (!constrained && l3 != nullptr) {
    return Status::InvalidArgument("unexpected L3 operand");
  }
  AggSelFilter filter = agg.has_value() ? *agg : ExistentialFilter();
  NDQ_ASSIGN_OR_RETURN(AggProgram prog,
                       AggProgram::Compile(filter, /*structural=*/true));

  Run annotated;
  KeyOrder order = KeyOrder::kAscending;
  switch (op) {
    case QueryOp::kParents:
    case QueryOp::kAncestors:
    case QueryOp::kCoAncestors: {
      NDQ_ASSIGN_OR_RETURN(
          annotated, AncestorPass(disk, op, l1, l2, l3, prog, options, trace));
      break;
    }
    case QueryOp::kChildren:
    case QueryOp::kDescendants:
    case QueryOp::kCoDescendants: {
      NDQ_ASSIGN_OR_RETURN(annotated, DescendantPass(disk, op, l1, l2, l3,
                                                     prog, options, trace));
      order = KeyOrder::kDescending;
      break;
    }
    default:
      return Status::InvalidArgument("EvalHierarchy: not a hierarchy op");
  }
  Result<EntryList> out =
      FilterAnnotatedList(disk, std::move(annotated), prog, order);
  if (trace != nullptr && out.ok()) {
    trace->op = op;
    trace->input_records = l1.num_records + l2.num_records +
                           (l3 != nullptr ? l3->num_records : 0);
    trace->input_pages = l1.pages.size() + l2.pages.size() +
                         (l3 != nullptr ? l3->pages.size() : 0);
    trace->output_records = out->num_records;
    trace->output_pages = out->pages.size();
  }
  return out;
}

}  // namespace ndq
