#include "exec/cost.h"

#include <algorithm>
#include <cmath>

#include "exec/atomic.h"
#include "query/fingerprint.h"
#include "store/stats.h"

namespace ndq {

namespace {

// True when FilterAnnotatedList runs its globals pre-scan (an extra pass
// over the annotated list): an entry-set aggregate of the agg1(ea) form
// on either comparison side. count($1)/count($$) come free from the list
// length and cost no pass.
bool AggNeedsGlobalsScan(const AggSelFilter& filter) {
  auto scans = [](const AggAttr& a) {
    return a.kind == AggAttr::Kind::kEntrySet &&
           a.set_form == AggAttr::SetForm::kAggOfEntry;
  };
  return scans(filter.lhs) || scans(filter.rhs);
}

// Average records per page, from the store's own geometry (1 for an
// empty store).
double RecordsPerPage(const EntrySource& store) {
  uint64_t total_pages = store.EstimateRangePages("", "");
  if (total_pages == 0) return 1.0;
  return static_cast<double>(store.num_entries()) /
         static_cast<double>(total_pages);
}

EntrySource::RangeEstimate ScanEstimate(
    const EntrySource& store, const std::vector<const Query*>& leaves,
    ScanEstimates* memo) {
  return memo != nullptr ? memo->Get(store, leaves)
                         : EstimateScan(store, leaves);
}

// The leaf pages under an operator whose operands estimate `operands`
// (q1/q2/q3 order): one range scan evaluates each fork unit (ScanUnits),
// so a unit of sibling leaves over one base costs the pages of its widest
// range that any of their filters admits, once.
double OperandLeafPages(const EntrySource& store, const Query& q,
                        const std::vector<CostEstimate>& operands,
                        ScanEstimates* memo) {
  std::vector<const Query*> queries;
  for (const QueryPtr& op : {q.q1(), q.q2(), q.q3()}) {
    if (op != nullptr) queries.push_back(op.get());
  }
  double pages = 0;
  for (const std::vector<size_t>& unit : ScanUnits(queries)) {
    if (unit.size() == 1) {
      pages += operands[unit.front()].leaf_pages;
      continue;
    }
    std::vector<const Query*> leaves;
    for (size_t i : unit) leaves.push_back(queries[i]);
    pages += static_cast<double>(ScanEstimate(store, leaves, memo).pages);
  }
  return pages;
}

CostEstimate EstimateNode(const EntrySource& store, const Query& q,
                          ScanEstimates* memo) {
  const double rpp = std::max(1.0, RecordsPerPage(store));
  switch (q.op()) {
    case QueryOp::kAtomic:
    case QueryOp::kLdap: {
      CostEstimate est;
      const std::string& base_key = q.base().HierKey();
      // One-level and subtree scopes read the same subtree range (the
      // one-level operator filters to depth+1 in-stream), so leaf_pages
      // is the range size either way; only the output bound differs. The
      // store counts the pages its synopses admit for the filter, and the
      // records starting in them, which bound the matches.
      const EntrySource::RangeEstimate range =
          ScanEstimate(store, {&q}, memo);
      est.leaf_pages = static_cast<double>(range.pages);
      est.output_records = static_cast<double>(range.records);
      if (q.scope() == Scope::kBase) {
        est.output_records = std::min(est.output_records, 1.0);
      }
      const StoreStats* stats = store.stats();
      if (stats != nullptr) {
        const SubtreeStats* node = stats->Subtree(base_key);
        if (node != nullptr) {
          // kOne selects the base entry plus its direct children (see
          // exec/atomic.cc), not the whole subtree the scan covers.
          double scope_bound = 0;
          switch (q.scope()) {
            case Scope::kBase:
              scope_bound = static_cast<double>(node->self);
              break;
            case Scope::kOne:
              scope_bound =
                  static_cast<double>(node->self + node->direct_children);
              break;
            case Scope::kSub:
              scope_bound = static_cast<double>(node->subtree_size);
              break;
          }
          est.output_records = std::min(est.output_records, scope_bound);
        } else if (stats->complete() &&
                   KeyDepth(base_key) <= StoreStats::kMaxSketchDepth) {
          est.output_records = 0;  // provably empty subtree
        }
      }
      if (stats != nullptr && q.op() == QueryOp::kAtomic) {
        est.output_records =
            std::min(est.output_records,
                     static_cast<double>(
                         stats->EstimateFilterMatches(q.filter())));
      } else if (stats != nullptr && q.op() == QueryOp::kLdap) {
        est.output_records =
            std::min(est.output_records,
                     static_cast<double>(
                         stats->EstimateLdapMatches(*q.ldap_filter())));
      }
      // Writing the output list.
      est.operator_pages = est.output_records / rpp;
      return est;
    }
    case QueryOp::kAnd:
    case QueryOp::kOr:
    case QueryOp::kDiff: {
      CostEstimate a = EstimateNode(store, *q.q1(), memo);
      CostEstimate b = EstimateNode(store, *q.q2(), memo);
      CostEstimate est;
      est.leaf_pages = OperandLeafPages(store, q, {a, b}, memo);
      double in_pages = (a.output_records + b.output_records) / rpp;
      est.operator_pages = a.operator_pages + b.operator_pages + in_pages;
      est.output_records = q.op() == QueryOp::kOr
                               ? a.output_records + b.output_records
                               : a.output_records;
      if (q.op() == QueryOp::kAnd) {
        est.output_records = std::min(a.output_records, b.output_records);
      }
      // A union (or intersection) can never produce more entries than the
      // store holds; without this cap, deep union trees compound a+b into
      // impossible cardinalities that mis-steer the optimizer.
      est.output_records = std::min(
          est.output_records, static_cast<double>(store.num_entries()));
      return est;
    }
    case QueryOp::kSimpleAgg: {
      CostEstimate a = EstimateNode(store, *q.q1(), memo);
      CostEstimate est = a;
      // Annotate = read input + write annotated (2 passes), optional
      // globals pre-scan of the annotated list (1 pass), filter scan
      // (1 pass), plus writing the output list. The old estimate missed
      // the input-read pass and the output write (audited against
      // VerifyTheoremBounds actuals on the E19 forest).
      double in_pages = a.output_records / rpp;
      double passes = AggNeedsGlobalsScan(*q.agg()) ? 4.0 : 3.0;
      est.operator_pages +=
          passes * in_pages + est.output_records / rpp + 1;
      return est;
    }
    case QueryOp::kParents:
    case QueryOp::kAncestors:
    case QueryOp::kCoAncestors:
    case QueryOp::kChildren:
    case QueryOp::kDescendants:
    case QueryOp::kCoDescendants: {
      CostEstimate a = EstimateNode(store, *q.q1(), memo);
      CostEstimate b = EstimateNode(store, *q.q2(), memo);
      CostEstimate c;
      if (q.q3() != nullptr) c = EstimateNode(store, *q.q3(), memo);
      CostEstimate est;
      est.leaf_pages = q.q3() != nullptr
                           ? OperandLeafPages(store, q, {a, b, c}, memo)
                           : OperandLeafPages(store, q, {a, b}, memo);
      double in_pages =
          (a.output_records + b.output_records + c.output_records) / rpp;
      // Merge+annotate+filter (~2 passes) in either direction: the
      // descendant direction reads its runs backwards at the same cost.
      est.operator_pages = a.operator_pages + b.operator_pages +
                           c.operator_pages + 2.0 * in_pages + 1;
      est.output_records = a.output_records;
      return est;
    }
    case QueryOp::kValueDn:
    case QueryOp::kDnValue: {
      CostEstimate a = EstimateNode(store, *q.q1(), memo);
      CostEstimate b = EstimateNode(store, *q.q2(), memo);
      CostEstimate est;
      est.leaf_pages = OperandLeafPages(store, q, {a, b}, memo);
      double pair_pages = b.output_records / rpp + 1;
      double sort_pages =
          pair_pages * std::max(1.0, std::log2(pair_pages));
      // vd needs a second sort keyed back to L1.
      if (q.op() == QueryOp::kValueDn) sort_pages *= 2;
      est.operator_pages = a.operator_pages + b.operator_pages +
                           sort_pages +
                           2 * (a.output_records / rpp) + 1;
      est.output_records = a.output_records;
      return est;
    }
  }
  return CostEstimate();
}

void ExplainNode(const EntrySource& store, const Query& q, int depth,
                 ScanEstimates* memo, std::string* out) {
  CostEstimate est = EstimateNode(store, q, memo);
  out->append(static_cast<size_t>(2 * depth), ' ');
  out->append(QueryNodeLabel(q));
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "  {<=%.0f recs, ~%.0f leaf + %.0f op pages}",
                est.output_records, est.leaf_pages, est.operator_pages);
  out->append(buf);
  out->push_back('\n');
  for (const QueryPtr& child : {q.q1(), q.q2(), q.q3()}) {
    if (child != nullptr) ExplainNode(store, *child, depth + 1, memo, out);
  }
}

// Walks the query, its estimates and the trace in lockstep (both trees
// have one child per operand in q1/q2/q3 order).
void ExplainAnalyzeNode(const EntrySource& store, const Query& q,
                        const OpTrace& t, int depth, ScanEstimates* memo,
                        std::string* out) {
  CostEstimate est = EstimateNode(store, q, memo);
  out->append(static_cast<size_t>(2 * depth), ' ');
  out->append(QueryNodeLabel(q));
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "  {est_pages=%.0f act_pages=%llu est_recs=%.0f "
                "act_recs=%llu",
                est.TotalPages(),
                static_cast<unsigned long long>(t.io.TotalTransfers()),
                est.output_records,
                static_cast<unsigned long long>(t.output_records));
  out->append(buf);
  const IoStats self = t.SelfIo();
  if (self.page_reads != 0) {
    out->append(" reads=" + std::to_string(self.page_reads));
  }
  if (self.page_writes != 0) {
    out->append(" writes=" + std::to_string(self.page_writes));
  }
  AppendOptionalCounters(t, out);
  // Thread occupancy of the subtree; elide the trivial 1 so sequential
  // output is unchanged.
  const size_t workers = t.SubtreeWorkers();
  if (workers > 1) out->append(" workers=" + std::to_string(workers));
  std::snprintf(buf, sizeof(buf), " wall_us=%.0f}", t.wall_micros);
  out->append(buf);
  out->push_back('\n');
  size_t ci = 0;
  for (const QueryPtr& child : {q.q1(), q.q2(), q.q3()}) {
    if (child == nullptr) continue;
    if (ci >= t.children.size()) {
      out->append(static_cast<size_t>(2 * (depth + 1)), ' ');
      out->append("<trace missing for operand>\n");
      continue;
    }
    ExplainAnalyzeNode(store, *child, t.children[ci], depth + 1, memo, out);
    ++ci;
  }
}

}  // namespace

EntrySource::RangeEstimate ScanEstimates::Get(
    const EntrySource& store, const std::vector<const Query*>& leaves) {
  // Fingerprints are self-delimiting, so their concatenation keys the
  // unit; ScanUnits puts a unit's leaves in operand order.
  std::string key;
  for (const Query* leaf : leaves) key += QueryFingerprint(*leaf);
  auto [it, added] = memo_.try_emplace(std::move(key));
  if (added) it->second = EstimateScan(store, leaves);
  return it->second;
}

CostEstimate EstimateCost(const EntrySource& store, const Query& query,
                          ScanEstimates* memo) {
  return EstimateNode(store, query, memo);
}

std::string ExplainPlan(const EntrySource& store, const Query& query) {
  std::string out;
  ScanEstimates memo;  // each node's estimate covers its subtree
  ExplainNode(store, query, 0, &memo, &out);
  return out;
}

std::string ExplainAnalyze(const EntrySource& store, const Query& query,
                           const OpTrace& trace) {
  std::string out;
  ScanEstimates memo;
  ExplainAnalyzeNode(store, query, trace, 0, &memo, &out);
  return out;
}

}  // namespace ndq
