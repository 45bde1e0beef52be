#include "exec/common.h"

#include "exec/trace.h"

namespace ndq {

DirectedRunReader::DirectedRunReader(Disk* disk, const Run& run,
                                     KeyOrder order) {
  if (order == KeyOrder::kDescending) {
    backward_.emplace(disk, run);
  } else {
    forward_.emplace(disk, run);
  }
}

Result<bool> DirectedRunReader::Next(std::string* record) {
  return forward_.has_value() ? forward_->Next(record)
                              : backward_->Next(record);
}

LabeledMerge::LabeledMerge(Disk* disk, const EntryList* l1,
                           const EntryList* l2, const EntryList* l3,
                           KeyOrder order)
    : descending_(order == KeyOrder::kDescending) {
  const EntryList* lists[3] = {l1, l2, l3};
  const uint8_t labels[3] = {kInL1, kInL2, kInL3};
  for (int i = 0; i < 3; ++i) {
    if (lists[i] == nullptr) continue;
    Input in;
    in.reader = std::make_unique<DirectedRunReader>(disk, *lists[i], order);
    in.label = labels[i];
    inputs_.push_back(std::move(in));
  }
}

Status LabeledMerge::Refill(Input* in) {
  NDQ_ASSIGN_OR_RETURN(bool more, in->reader->Next(&in->record));
  in->has = more;
  if (more) {
    NDQ_ASSIGN_OR_RETURN(std::string_view key, PeekEntryKey(in->record));
    in->key = std::string(key);
    in->head = ExtractHead64(in->key);
  }
  return Status::OK();
}

Result<bool> LabeledMerge::Next(LabeledRecord* out) {
  if (!primed_) {
    primed_ = true;
    for (Input& in : inputs_) NDQ_RETURN_IF_ERROR(Refill(&in));
  }
  // Head words settle almost every comparison in one integer compare.
  // The next key is the least one ascending, the greatest descending.
  const std::string* next_key = nullptr;
  uint64_t next_head = 0;
  for (Input& in : inputs_) {
    if (!in.has) continue;
    if (next_key == nullptr ||
        (descending_ ? in.head > next_head ||
                           (in.head == next_head && in.key > *next_key)
                     : in.head < next_head ||
                           (in.head == next_head && in.key < *next_key))) {
      next_key = &in.key;
      next_head = in.head;
    }
  }
  if (next_key == nullptr) return false;
  std::string key = *next_key;  // copy: refills invalidate next_key
  out->labels = 0;
  for (Input& in : inputs_) {
    if (in.has && in.key == key) {
      out->labels |= in.label;
      out->entry_record = std::move(in.record);
      NDQ_RETURN_IF_ERROR(Refill(&in));
    }
  }
  NDQ_ASSIGN_OR_RETURN(std::string_view kv, PeekEntryKey(out->entry_record));
  out->key = kv;
  return true;
}

void WriteAnnotated(const std::vector<std::optional<int64_t>>& vals,
                    std::string_view entry_record, std::string* out) {
  ByteWriter w(out);
  w.PutVarint(vals.size());
  for (const std::optional<int64_t>& v : vals) {
    w.PutU8(v.has_value() ? 1 : 0);
    w.PutSigned(v.value_or(0));
  }
  out->append(entry_record.data(), entry_record.size());
}

Status ParseAnnotated(std::string_view rec,
                      std::vector<std::optional<int64_t>>* vals,
                      std::string_view* entry_record) {
  ByteReader r(rec);
  NDQ_ASSIGN_OR_RETURN(uint64_t n, r.GetVarint());
  vals->clear();
  vals->reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    NDQ_ASSIGN_OR_RETURN(uint8_t defined, r.GetU8());
    NDQ_ASSIGN_OR_RETURN(int64_t v, r.GetSigned());
    vals->push_back(defined ? std::optional<int64_t>(v) : std::nullopt);
  }
  *entry_record = rec.substr(r.position());
  return Status::OK();
}

void SerializeAcc(const AggAccumulator& acc, std::string* out) {
  ByteWriter w(out);
  w.PutU8(static_cast<uint8_t>(acc.fn));
  w.PutVarint(acc.count);
  w.PutVarint(acc.int_count);
  // The 128-bit sum travels as low/high 64-bit halves.
  w.PutSigned(static_cast<int64_t>(
      static_cast<uint64_t>(static_cast<unsigned __int128>(acc.sum))));
  w.PutSigned(static_cast<int64_t>(acc.sum >> 64));
  w.PutSigned(acc.min);
  w.PutSigned(acc.max);
  w.PutU8((acc.any_int ? 1 : 0) | (acc.overflow ? 2 : 0));
}

Result<AggAccumulator> DeserializeAcc(ByteReader* reader) {
  NDQ_ASSIGN_OR_RETURN(uint8_t fn, reader->GetU8());
  if (fn > static_cast<uint8_t>(AggFn::kAvg)) {
    return Status::Corruption("bad aggregate fn byte");
  }
  AggAccumulator acc(static_cast<AggFn>(fn));
  NDQ_ASSIGN_OR_RETURN(acc.count, reader->GetVarint());
  NDQ_ASSIGN_OR_RETURN(acc.int_count, reader->GetVarint());
  NDQ_ASSIGN_OR_RETURN(int64_t sum_lo, reader->GetSigned());
  NDQ_ASSIGN_OR_RETURN(int64_t sum_hi, reader->GetSigned());
  acc.sum = (static_cast<AggAccumulator::Sum128>(sum_hi) << 64) |
            static_cast<AggAccumulator::Sum128>(
                static_cast<uint64_t>(sum_lo));
  NDQ_ASSIGN_OR_RETURN(acc.min, reader->GetSigned());
  NDQ_ASSIGN_OR_RETURN(acc.max, reader->GetSigned());
  NDQ_ASSIGN_OR_RETURN(uint8_t flags, reader->GetU8());
  if (flags > 3) return Status::Corruption("bad aggregate flag byte");
  acc.any_int = (flags & 1) != 0;
  acc.overflow = (flags & 2) != 0;
  return acc;
}

namespace {

bool IsWitnessTargeted(const EntryAgg& ea) {
  return ea.target == AggTarget::kWitnessAttr ||
         ea.target == AggTarget::kWitnessCount;
}

void CollectWitnessAggs(const AggAttr& aa, std::vector<EntryAgg>* out) {
  if (aa.kind == AggAttr::Kind::kConst) return;
  if (aa.kind == AggAttr::Kind::kEntrySet &&
      aa.set_form == AggAttr::SetForm::kCountSet) {
    return;
  }
  if (IsWitnessTargeted(aa.entry)) {
    for (const EntryAgg& e : *out) {
      if (e == aa.entry) return;
    }
    out->push_back(aa.entry);
  }
}

}  // namespace

Result<AggProgram> AggProgram::Compile(const AggSelFilter& filter,
                                       bool structural) {
  AggProgram prog;
  prog.filter = filter;
  CollectWitnessAggs(filter.lhs, &prog.witness_aggs);
  CollectWitnessAggs(filter.rhs, &prog.witness_aggs);
  if (!structural && !prog.witness_aggs.empty()) {
    return Status::InvalidArgument(
        "$2 reference in simple aggregate selection");
  }
  return prog;
}

size_t AggProgram::WitnessIndex(const EntryAgg& ea) const {
  for (size_t i = 0; i < witness_aggs.size(); ++i) {
    if (witness_aggs[i] == ea) return i;
  }
  return static_cast<size_t>(-1);
}

std::vector<AggAccumulator> AggProgram::MakeWitnessAccs() const {
  std::vector<AggAccumulator> accs;
  accs.reserve(witness_aggs.size());
  for (const EntryAgg& ea : witness_aggs) accs.emplace_back(ea.fn);
  return accs;
}

void AggProgram::AddWitnessContribution(
    const EntryView& entry, std::vector<AggAccumulator>* accs) const {
  for (size_t i = 0; i < witness_aggs.size(); ++i) {
    const EntryAgg& ea = witness_aggs[i];
    AggAccumulator& acc = (*accs)[i];
    if (ea.target == AggTarget::kWitnessCount) {
      acc.AddUnit();
    } else {
      for (ValueView v : entry.Values(ea.attr)) acc.AddValue(v);
    }
  }
}

namespace {

std::optional<int64_t> EvalSelfAgg(const EntryAgg& ea,
                                   const EntryView& entry) {
  AggAccumulator acc(ea.fn);
  for (ValueView v : entry.Values(ea.attr)) acc.AddValue(v);
  return acc.Finish();
}

}  // namespace

std::optional<int64_t> AggProgram::EvalSide(
    bool lhs_side, const EntryView& entry,
    const std::vector<std::optional<int64_t>>& witness_vals,
    const Globals& globals) const {
  const AggAttr& aa = lhs_side ? filter.lhs : filter.rhs;
  switch (aa.kind) {
    case AggAttr::Kind::kConst:
      return aa.constant;
    case AggAttr::Kind::kEntry: {
      if (IsWitnessTargeted(aa.entry)) {
        size_t idx = WitnessIndex(aa.entry);
        return idx < witness_vals.size() ? witness_vals[idx] : std::nullopt;
      }
      return EvalSelfAgg(aa.entry, entry);
    }
    case AggAttr::Kind::kEntrySet:
      if (aa.set_form == AggAttr::SetForm::kCountSet) {
        return static_cast<int64_t>(globals.set_size);
      }
      return lhs_side ? globals.lhs : globals.rhs;
  }
  return std::nullopt;
}

bool AggProgram::Matches(
    const EntryView& entry,
    const std::vector<std::optional<int64_t>>& witness_vals,
    const Globals& globals) const {
  std::optional<int64_t> lhs = EvalSide(true, entry, witness_vals, globals);
  std::optional<int64_t> rhs = EvalSide(false, entry, witness_vals, globals);
  return CompareAgg(lhs, filter.op, rhs);
}

namespace {

// Per-entry value of the *inner* entry aggregate of an entry-set
// aggregate.
std::optional<int64_t> InnerValue(
    const AggProgram& prog, const AggAttr& aa, const EntryView& entry,
    const std::vector<std::optional<int64_t>>& witness_vals) {
  if (IsWitnessTargeted(aa.entry)) {
    size_t idx = prog.WitnessIndex(aa.entry);
    return idx < witness_vals.size() ? witness_vals[idx] : std::nullopt;
  }
  return EvalSelfAgg(aa.entry, entry);
}

}  // namespace

Result<EntryList> FilterAnnotatedList(Disk* disk, Run annotated,
                                      const AggProgram& prog,
                                      KeyOrder order) {
  // This function consumes `annotated` on every path: the guard frees it
  // if any scan below fails.
  ScopedRun annotated_guard(disk, annotated);
  AggProgram::Globals globals;
  globals.set_size = annotated.num_records;

  const bool lhs_set = prog.filter.lhs.kind == AggAttr::Kind::kEntrySet &&
                       prog.filter.lhs.set_form ==
                           AggAttr::SetForm::kAggOfEntry;
  const bool rhs_set = prog.filter.rhs.kind == AggAttr::Kind::kEntrySet &&
                       prog.filter.rhs.set_form ==
                           AggAttr::SetForm::kAggOfEntry;
  if (lhs_set || rhs_set) {
    // Pre-scan: fold per-entry inner values into the global accumulators.
    AggAccumulator lhs_acc(prog.filter.lhs.outer_fn);
    AggAccumulator rhs_acc(prog.filter.rhs.outer_fn);
    DirectedRunReader reader(disk, annotated, order);
    std::string rec;
    std::vector<std::optional<int64_t>> vals;
    std::string_view entry_bytes;
    Entry slow;
    while (true) {
      NDQ_ASSIGN_OR_RETURN(bool more, reader.Next(&rec));
      if (!more) break;
      NDQ_RETURN_IF_ERROR(ParseAnnotated(rec, &vals, &entry_bytes));
      NDQ_ASSIGN_OR_RETURN(EntryView entry,
                           EntryView::Parse(entry_bytes, &slow));
      if (lhs_set) {
        std::optional<int64_t> v =
            InnerValue(prog, prog.filter.lhs, entry, vals);
        if (v.has_value()) lhs_acc.AddInt(*v);
      }
      if (rhs_set) {
        std::optional<int64_t> v =
            InnerValue(prog, prog.filter.rhs, entry, vals);
        if (v.has_value()) rhs_acc.AddInt(*v);
      }
    }
    if (lhs_set) globals.lhs = lhs_acc.Finish();
    if (rhs_set) globals.rhs = rhs_acc.Finish();
  }

  RunWriter writer(disk, PageFormat::kKeyPrefix);
  DirectedRunReader reader(disk, annotated, order);
  std::string rec;
  std::vector<std::optional<int64_t>> vals;
  std::string_view entry_bytes;
  Entry slow;
  while (true) {
    NDQ_ASSIGN_OR_RETURN(bool more, reader.Next(&rec));
    if (!more) break;
    NDQ_RETURN_IF_ERROR(ParseAnnotated(rec, &vals, &entry_bytes));
    NDQ_ASSIGN_OR_RETURN(EntryView entry,
                         EntryView::Parse(entry_bytes, &slow));
    if (prog.Matches(entry, vals, globals)) {
      NDQ_RETURN_IF_ERROR(writer.Add(entry_bytes));
    }
  }
  NDQ_RETURN_IF_ERROR(annotated_guard.Free());
  return writer.Finish();
}

Result<EntryList> EvalSimpleAgg(Disk* disk, const EntryList& l1,
                                const AggSelFilter& filter, OpTrace* trace) {
  NDQ_ASSIGN_OR_RETURN(AggProgram prog,
                       AggProgram::Compile(filter, /*structural=*/false));
  // Annotate with empty witness-value vectors (no $2 references), then run
  // the shared (<= 2 scan) filter phase.
  RunWriter writer(disk);
  RunReader reader(disk, l1);
  std::string rec, buf;
  const std::vector<std::optional<int64_t>> no_vals;
  while (true) {
    NDQ_ASSIGN_OR_RETURN(bool more, reader.Next(&rec));
    if (!more) break;
    buf.clear();
    WriteAnnotated(no_vals, rec, &buf);
    NDQ_RETURN_IF_ERROR(writer.Add(buf));
  }
  NDQ_ASSIGN_OR_RETURN(Run annotated, writer.Finish());
  Result<EntryList> out =
      FilterAnnotatedList(disk, std::move(annotated), prog);
  if (trace != nullptr && out.ok()) {
    trace->op = QueryOp::kSimpleAgg;
    trace->input_records = l1.num_records;
    trace->input_pages = l1.pages.size();
    trace->output_records = out->num_records;
    trace->output_pages = out->pages.size();
  }
  return out;
}

AggSelFilter ExistentialFilter() {
  AggSelFilter f;
  EntryAgg ea;
  ea.fn = AggFn::kCount;
  ea.target = AggTarget::kWitnessCount;
  f.lhs = AggAttr::Entry(std::move(ea));
  f.op = CompareOp::kGt;
  f.rhs = AggAttr::Const(0);
  return f;
}

Result<EntryList> MakeEntryList(Disk* disk,
                                const std::vector<const Entry*>& entries) {
  RunWriter writer(disk, PageFormat::kKeyPrefix);
  std::string buf;
  for (const Entry* e : entries) {
    buf.clear();
    SerializeEntry(*e, &buf);
    NDQ_RETURN_IF_ERROR(writer.Add(buf));
  }
  return writer.Finish();
}

Result<std::vector<Entry>> ReadEntryList(Disk* disk,
                                         const EntryList& list) {
  std::vector<Entry> out;
  RunReader reader(disk, list);
  std::string rec;
  while (true) {
    NDQ_ASSIGN_OR_RETURN(bool more, reader.Next(&rec));
    if (!more) break;
    NDQ_ASSIGN_OR_RETURN(Entry e, DeserializeEntry(rec));
    out.push_back(std::move(e));
  }
  return out;
}

}  // namespace ndq
