#include "exec/boolean.h"

namespace ndq {

Result<EntryList> EvalBoolean(Disk* disk, QueryOp op, const EntryList& l1,
                              const EntryList& l2, OpTrace* trace) {
  if (op != QueryOp::kAnd && op != QueryOp::kOr && op != QueryOp::kDiff) {
    return Status::InvalidArgument("EvalBoolean: not a boolean operator");
  }
  LabeledMerge merge(disk, &l1, &l2, nullptr);
  RunWriter writer(disk, PageFormat::kKeyPrefix);
  LabeledRecord rec;
  while (true) {
    NDQ_ASSIGN_OR_RETURN(bool more, merge.Next(&rec));
    if (!more) break;
    bool in1 = (rec.labels & kInL1) != 0;
    bool in2 = (rec.labels & kInL2) != 0;
    bool keep = false;
    switch (op) {
      case QueryOp::kAnd:
        keep = in1 && in2;
        break;
      case QueryOp::kOr:
        keep = in1 || in2;
        break;
      case QueryOp::kDiff:
        keep = in1 && !in2;
        break;
      default:
        break;
    }
    if (keep) NDQ_RETURN_IF_ERROR(writer.Add(rec.entry_record));
  }
  Result<EntryList> out = writer.Finish();
  if (trace != nullptr && out.ok()) {
    trace->op = op;
    trace->input_records = l1.num_records + l2.num_records;
    trace->input_pages = l1.pages.size() + l2.pages.size();
    trace->output_records = out->num_records;
    trace->output_pages = out->pages.size();
  }
  return out;
}

}  // namespace ndq
