#include "exec/trace.h"

#include <cmath>
#include <cstdio>
#include <utility>

namespace ndq {

namespace {

uint64_t SatSub(uint64_t a, uint64_t b) { return a > b ? a - b : 0; }

// Subtracts child counters without underflowing (a malformed or hand-built
// trace must not wrap around to huge deltas).
IoStats SatDelta(const IoStats& total, const IoStats& used) {
  IoStats d;
  d.page_reads = SatSub(total.page_reads, used.page_reads);
  d.page_writes = SatSub(total.page_writes, used.page_writes);
  d.pages_allocated = SatSub(total.pages_allocated, used.pages_allocated);
  d.pages_freed = SatSub(total.pages_freed, used.pages_freed);
  d.faults_injected = SatSub(total.faults_injected, used.faults_injected);
  d.prefetch_hits = SatSub(total.prefetch_hits, used.prefetch_hits);
  d.prefetch_wasted = SatSub(total.prefetch_wasted, used.prefetch_wasted);
  d.io_wait_us = SatSub(total.io_wait_us, used.io_wait_us);
  return d;
}

void AppendCounter(std::string* out, const char* key, uint64_t value) {
  out->append(" ");
  out->append(key);
  out->append("=");
  out->append(std::to_string(value));
}

void RenderNode(const OpTrace& t, int depth, std::string* out) {
  out->append(static_cast<size_t>(2 * depth), ' ');
  out->append(t.label);
  IoStats self = t.SelfIo();
  out->append("  {");
  AppendCounter(out, "in_recs", t.input_records);
  AppendCounter(out, "out_recs", t.output_records);
  AppendCounter(out, "in_pages", t.input_pages);
  AppendCounter(out, "out_pages", t.output_pages);
  AppendCounter(out, "reads", self.page_reads);
  AppendCounter(out, "writes", self.page_writes);
  AppendOptionalCounters(t, out);
  char buf[48];
  std::snprintf(buf, sizeof(buf), " wall_us=%.0f", t.wall_micros);
  out->append(buf);
  out->append("}\n");
  for (const OpTrace& child : t.children) {
    RenderNode(child, depth + 1, out);
  }
}

bool IsHierarchyOp(QueryOp op) {
  switch (op) {
    case QueryOp::kParents:
    case QueryOp::kChildren:
    case QueryOp::kAncestors:
    case QueryOp::kDescendants:
    case QueryOp::kCoAncestors:
    case QueryOp::kCoDescendants:
      return true;
    default:
      return false;
  }
}

void CheckNode(const OpTrace& t, std::vector<std::string>* out) {
  const uint64_t self = t.SelfTransfers();
  const uint64_t in = t.input_pages;
  const uint64_t io_base = t.input_pages + t.output_pages;
  uint64_t bound = 0;
  bool checked = true;
  switch (t.op) {
    case QueryOp::kAtomic:
    case QueryOp::kLdap:
      // Reads scan the store range (checked against the cost model by the
      // callers, who know the store); writes emit the output list.
      bound = 0;
      checked = false;
      if (t.SelfIo().page_writes > 2 * t.output_pages + 4) {
        out->push_back(t.label + ": leaf wrote " +
                       std::to_string(t.SelfIo().page_writes) +
                       " pages for " + std::to_string(t.output_pages) +
                       " output pages (> 2*out + 4)");
      }
      break;
    case QueryOp::kAnd:
    case QueryOp::kOr:
    case QueryOp::kDiff:
      bound = 3 * io_base + 8;
      break;
    case QueryOp::kParents:
    case QueryOp::kAncestors:
    case QueryOp::kCoAncestors:
    case QueryOp::kChildren:
    case QueryOp::kDescendants:
    case QueryOp::kCoDescendants:
      bound = 8 * io_base + 16;
      break;
    case QueryOp::kSimpleAgg:
      bound = 8 * io_base + 16;
      break;
    case QueryOp::kValueDn:
    case QueryOp::kDnValue: {
      double log_term =
          1.0 + (in > 1 ? std::log2(static_cast<double>(in)) : 0.0);
      bound = static_cast<uint64_t>(8.0 * io_base * log_term) + 32;
      break;
    }
  }
  if (checked && self > bound) {
    out->push_back(t.label + ": " + std::to_string(self) +
                   " transfers exceeds theorem bound " +
                   std::to_string(bound) + " (in_pages=" +
                   std::to_string(t.input_pages) + " out_pages=" +
                   std::to_string(t.output_pages) + ")");
  }
  // The spillable stacks may hold at most one item per merged input record
  // (a root-to-leaf chain); more means the pop discipline broke.
  if (IsHierarchyOp(t.op) && t.peak_stack_items > t.input_records) {
    out->push_back(t.label + ": stack peak " +
                   std::to_string(t.peak_stack_items) +
                   " exceeds merged input records " +
                   std::to_string(t.input_records));
  }
  for (const OpTrace& child : t.children) CheckNode(child, out);
}

}  // namespace

IoStats OpTrace::SelfIo() const {
  IoStats used;
  for (const OpTrace& child : children) {
    const IoStats& c = child.io;
    used.page_reads += c.page_reads;
    used.page_writes += c.page_writes;
    used.pages_allocated += c.pages_allocated;
    used.pages_freed += c.pages_freed;
    used.faults_injected += c.faults_injected;
    used.prefetch_hits += c.prefetch_hits;
    used.prefetch_wasted += c.prefetch_wasted;
    used.io_wait_us += c.io_wait_us;
  }
  return SatDelta(io, used);
}

size_t OpTrace::NodeCount() const {
  size_t n = 1;
  for (const OpTrace& child : children) n += child.NodeCount();
  return n;
}

namespace {
void CollectWorkers(const OpTrace& t, std::vector<uint32_t>* ids) {
  bool seen = false;
  for (uint32_t id : *ids) {
    if (id == t.worker) {
      seen = true;
      break;
    }
  }
  if (!seen) ids->push_back(t.worker);
  for (const OpTrace& child : t.children) CollectWorkers(child, ids);
}
}  // namespace

size_t OpTrace::SubtreeWorkers() const {
  std::vector<uint32_t> ids;
  CollectWorkers(*this, &ids);
  return ids.size();
}

void AppendOptionalCounters(const OpTrace& t, std::string* out) {
  const IoStats self = t.SelfIo();
  const std::pair<const char*, uint64_t> counters[] = {
      {"scanned", t.scanned_records},
      {"shared_scan", t.shared_scan},
      {"skipped", t.skipped_pages},
      {"stack_peak", t.peak_stack_items},
      {"spills", t.stack_spills},
      {"sort_passes", t.sort_merge_passes},
      {"shipped_recs", t.shipped_records},
      {"shipped_bytes", t.shipped_bytes},
      {"plan_rewrites", t.plan_rewrites},
      {"cache_hits", t.cache_hits},
      {"cache_misses", t.cache_misses},
      {"faults", self.faults_injected},
      {"retries", t.retries},
      {"failovers", t.failovers},
      {"degraded", t.degraded_shards},
      {"worker", t.worker},
      // Async-only fields: absent from synchronous traces (and their
      // goldens).
      {"io_depth", t.io_depth},
      {"prefetch_hits", self.prefetch_hits},
      {"prefetch_wasted", self.prefetch_wasted},
      {"io_wait_us", self.io_wait_us},
  };
  for (const auto& [key, value] : counters) {
    if (value != 0) AppendCounter(out, key, value);
  }
}

std::string OpTrace::ToString() const {
  std::string out;
  RenderNode(*this, 0, &out);
  return out;
}

std::string QueryNodeLabel(const Query& q) {
  if (q.op() == QueryOp::kAtomic) {
    return "atomic base='" + q.base().ToString() + "' scope=" +
           ScopeToString(q.scope()) + " filter=" + q.filter().ToString();
  }
  if (q.op() == QueryOp::kLdap) {
    return "ldap base='" + q.base().ToString() + "' scope=" +
           ScopeToString(q.scope()) + " filter=" +
           q.ldap_filter()->ToString();
  }
  std::string out = "op ";
  out += QueryOpToString(q.op());
  if (q.agg().has_value()) out += " [" + q.agg()->ToString() + "]";
  if (!q.ref_attr().empty()) out += " via " + q.ref_attr();
  return out;
}

void FillTraceSkeleton(const Query& q, OpTrace* trace) {
  for (const QueryPtr& child : {q.q1(), q.q2(), q.q3()}) {
    if (child == nullptr) continue;
    OpTrace t;
    t.label = QueryNodeLabel(*child);
    t.op = child->op();
    FillTraceSkeleton(*child, &t);
    trace->children.push_back(std::move(t));
  }
}

std::vector<std::string> VerifyTheoremBounds(const OpTrace& trace) {
  std::vector<std::string> violations;
  CheckNode(trace, &violations);
  return violations;
}

}  // namespace ndq
