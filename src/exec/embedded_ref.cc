#include "exec/embedded_ref.h"

#include <memory>

#include "core/dn.h"

namespace ndq {

namespace {

// Pair records: [sort_key][payload], both length-prefixed.
void WritePair(std::string_view sort_key, std::string_view payload,
               std::string* out) {
  ByteWriter w(out);
  w.PutString(sort_key);
  w.PutString(payload);
}

Status ParsePair(std::string_view rec, std::string_view* sort_key,
                 std::string_view* payload) {
  ByteReader r(rec);
  NDQ_ASSIGN_OR_RETURN(*sort_key, r.GetString());
  NDQ_ASSIGN_OR_RETURN(*payload, r.GetString());
  return Status::OK();
}

std::string_view PairKey(std::string_view rec) {
  ByteReader r(rec);
  Result<std::string_view> key = r.GetString();
  return key.ok() ? *key : std::string_view();
}

// Pair records lead with a PutString sort key, so pair sorts spill in the
// key-aware page format.
ExternalSortOptions KeyedSort(const ExecOptions& options) {
  ExternalSortOptions sort = options.sort;
  sort.format = PageFormat::kKeyPrefix;
  return sort;
}

// Serializes the witness contribution of entry `e` under `prog`.
std::string ContributionPayload(const AggProgram& prog, const EntryView& e) {
  std::vector<AggAccumulator> accs = prog.MakeWitnessAccs();
  prog.AddWitnessContribution(e, &accs);
  std::string out;
  ByteWriter w(&out);
  w.PutVarint(accs.size());
  for (const AggAccumulator& a : accs) SerializeAcc(a, &out);
  return out;
}

Status MergeContribution(std::string_view payload,
                         std::vector<AggAccumulator>* wit) {
  ByteReader r(payload);
  NDQ_ASSIGN_OR_RETURN(uint64_t n, r.GetVarint());
  for (uint64_t i = 0; i < n; ++i) {
    NDQ_ASSIGN_OR_RETURN(AggAccumulator a, DeserializeAcc(&r));
    if (i < wit->size()) (*wit)[i].Merge(a);
  }
  return Status::OK();
}

// Streams pairs of a sorted pair run grouped by key, merged against the
// (sorted) entry list L1; writes the annotated list.
Result<Run> AnnotateByPairs(Disk* disk, const EntryList& l1,
                            const Run& sorted_pairs,
                            const AggProgram& prog) {
  RunReader l1_reader(disk, l1);
  RunReader pair_reader(disk, sorted_pairs);
  RunWriter out(disk);

  std::string pair_rec;
  bool pair_has = false;
  std::string_view pair_key, pair_payload;
  auto advance_pair = [&]() -> Status {
    NDQ_ASSIGN_OR_RETURN(bool more, pair_reader.Next(&pair_rec));
    pair_has = more;
    if (more) {
      NDQ_RETURN_IF_ERROR(ParsePair(pair_rec, &pair_key, &pair_payload));
    }
    return Status::OK();
  };
  NDQ_RETURN_IF_ERROR(advance_pair());

  std::string entry_rec;
  std::string buf;
  while (true) {
    NDQ_ASSIGN_OR_RETURN(bool more, l1_reader.Next(&entry_rec));
    if (!more) break;
    NDQ_ASSIGN_OR_RETURN(std::string_view key, PeekEntryKey(entry_rec));
    while (pair_has && pair_key < key) NDQ_RETURN_IF_ERROR(advance_pair());
    std::vector<AggAccumulator> wit = prog.MakeWitnessAccs();
    while (pair_has && pair_key == key) {
      NDQ_RETURN_IF_ERROR(MergeContribution(pair_payload, &wit));
      NDQ_RETURN_IF_ERROR(advance_pair());
    }
    std::vector<std::optional<int64_t>> vals;
    vals.reserve(wit.size());
    for (const AggAccumulator& a : wit) vals.push_back(a.Finish());
    buf.clear();
    WriteAnnotated(vals, entry_rec, &buf);
    NDQ_RETURN_IF_ERROR(out.Add(buf));
  }
  return out.Finish();
}

// dv: LP = {(referenced key, contribution of r2)} from L2's attr values.
Result<Run> BuildDvPairs(Disk* disk, const EntryList& l2,
                         const std::string& attr, const AggProgram& prog,
                         const ExecOptions& options, uint64_t* sort_passes) {
  ExternalSorter sorter(disk, PairKey, KeyedSort(options));
  RunReader reader(disk, l2);
  std::string rec;
  std::string pair;
  Entry slow;
  while (true) {
    NDQ_ASSIGN_OR_RETURN(bool more, reader.Next(&rec));
    if (!more) break;
    NDQ_ASSIGN_OR_RETURN(EntryView e, EntryView::Parse(rec, &slow));
    const ValueList vals = e.Values(attr);
    if (vals.empty()) continue;
    std::string payload = ContributionPayload(prog, e);
    for (ValueView v : vals) {
      if (!v.is_dn()) continue;
      Result<Dn> target = Dn::Parse(v.AsString());
      if (!target.ok()) continue;  // dangling/garbled reference: no witness
      pair.clear();
      WritePair(target->HierKey(), payload, &pair);
      NDQ_RETURN_IF_ERROR(sorter.Add(pair));
    }
  }
  Result<Run> sorted = sorter.Finish();
  *sort_passes += sorter.merge_passes();
  return sorted;
}

// vd: two-sort path (see header).
Result<Run> BuildVdPairs(Disk* disk, const EntryList& l1,
                         const EntryList& l2, const std::string& attr,
                         const AggProgram& prog, const ExecOptions& options,
                         uint64_t* sort_passes) {
  // LP1: (referenced key, r1 key), sorted by referenced key. The guard
  // consumes it even if the join below fails mid-scan.
  Run lp1;
  ScopedRun lp1_guard;
  {
    ExternalSorter sorter(disk, PairKey, KeyedSort(options));
    RunReader reader(disk, l1);
    std::string rec, pair;
    Entry slow;
    while (true) {
      NDQ_ASSIGN_OR_RETURN(bool more, reader.Next(&rec));
      if (!more) break;
      NDQ_ASSIGN_OR_RETURN(std::string_view key, PeekEntryKey(rec));
      NDQ_ASSIGN_OR_RETURN(EntryView e, EntryView::Parse(rec, &slow));
      for (ValueView v : e.Values(attr)) {
        if (!v.is_dn()) continue;
        Result<Dn> target = Dn::Parse(v.AsString());
        if (!target.ok()) continue;
        pair.clear();
        WritePair(target->HierKey(), key, &pair);
        NDQ_RETURN_IF_ERROR(sorter.Add(pair));
      }
    }
    NDQ_ASSIGN_OR_RETURN(lp1, sorter.Finish());
    lp1_guard = ScopedRun(disk, lp1);
    *sort_passes += sorter.merge_passes();
  }
  // Join LP1 with L2 on referenced key; emit (r1 key, contribution(r2)).
  ExternalSorter sorter2(disk, PairKey, KeyedSort(options));
  {
    RunReader l2_reader(disk, l2);
    RunReader lp_reader(disk, lp1);
    std::string pair_rec;
    bool pair_has = false;
    std::string_view pkey, ppayload;
    auto advance_pair = [&]() -> Status {
      NDQ_ASSIGN_OR_RETURN(bool more, lp_reader.Next(&pair_rec));
      pair_has = more;
      if (more) NDQ_RETURN_IF_ERROR(ParsePair(pair_rec, &pkey, &ppayload));
      return Status::OK();
    };
    NDQ_RETURN_IF_ERROR(advance_pair());
    std::string rec, out_pair;
    Entry slow;
    while (true) {
      NDQ_ASSIGN_OR_RETURN(bool more, l2_reader.Next(&rec));
      if (!more) break;
      NDQ_ASSIGN_OR_RETURN(std::string_view key, PeekEntryKey(rec));
      while (pair_has && pkey < key) NDQ_RETURN_IF_ERROR(advance_pair());
      if (!pair_has || pkey != key) continue;
      NDQ_ASSIGN_OR_RETURN(EntryView e, EntryView::Parse(rec, &slow));
      std::string payload = ContributionPayload(prog, e);
      while (pair_has && pkey == key) {
        out_pair.clear();
        WritePair(ppayload, payload, &out_pair);  // (r1 key, contribution)
        NDQ_RETURN_IF_ERROR(sorter2.Add(out_pair));
        NDQ_RETURN_IF_ERROR(advance_pair());
      }
    }
    NDQ_RETURN_IF_ERROR(lp1_guard.Free());
  }
  Result<Run> sorted = sorter2.Finish();
  *sort_passes += sorter2.merge_passes();
  return sorted;
}

}  // namespace

Result<EntryList> EvalEmbeddedRef(Disk* disk, QueryOp op,
                                  const EntryList& l1, const EntryList& l2,
                                  const std::string& attr,
                                  const std::optional<AggSelFilter>& agg,
                                  const ExecOptions& options, OpTrace* trace) {
  if (op != QueryOp::kValueDn && op != QueryOp::kDnValue) {
    return Status::InvalidArgument("EvalEmbeddedRef: not vd/dv");
  }
  AggSelFilter filter = agg.has_value() ? *agg : ExistentialFilter();
  NDQ_ASSIGN_OR_RETURN(AggProgram prog,
                       AggProgram::Compile(filter, /*structural=*/true));

  Run pairs;
  uint64_t sort_passes = 0;
  if (op == QueryOp::kDnValue) {
    NDQ_ASSIGN_OR_RETURN(
        pairs, BuildDvPairs(disk, l2, attr, prog, options, &sort_passes));
  } else {
    NDQ_ASSIGN_OR_RETURN(
        pairs, BuildVdPairs(disk, l1, l2, attr, prog, options, &sort_passes));
  }
  ScopedRun pairs_guard(disk, pairs);
  NDQ_ASSIGN_OR_RETURN(Run annotated,
                       AnnotateByPairs(disk, l1, pairs_guard.get(), prog));
  ScopedRun annotated_guard(disk, annotated);
  NDQ_RETURN_IF_ERROR(pairs_guard.Free());
  Result<EntryList> out =
      FilterAnnotatedList(disk, annotated_guard.Release(), prog);
  if (trace != nullptr && out.ok()) {
    trace->op = op;
    trace->input_records = l1.num_records + l2.num_records;
    trace->input_pages = l1.pages.size() + l2.pages.size();
    trace->output_records = out->num_records;
    trace->output_pages = out->pages.size();
    trace->sort_merge_passes = sort_passes;
  }
  return out;
}

}  // namespace ndq
