// Atomic (and baseline-LDAP) query evaluation against the entry store
// (Sec. 4.1).
//
// Because the store is in reverse-DN order, every scope is a key range;
// the scan touches only the pages overlapping the base entry's subtree and
// the output comes out sorted, ready for the merge/stack operators. Leaves
// over one base share that range, so one scan evaluates any number of
// them (ScanLeaves); a single leaf is the one-leaf case of the same scan.

#ifndef NDQ_EXEC_ATOMIC_H_
#define NDQ_EXEC_ATOMIC_H_

#include <vector>

#include "exec/common.h"
#include "exec/trace.h"
#include "query/ast.h"
#include "store/entry_store.h"

namespace ndq {

/// One leaf of a range scan over a base DN: its scope and its filter,
/// atomic or LDAP (exactly one of `filter` and `ldap_filter` is set).
struct ScanLeaf {
  Scope scope = Scope::kSub;
  const AtomicFilter* filter = nullptr;
  const LdapFilter* ldap_filter = nullptr;
  /// Receives the leaf's counters and I/O when non-null.
  OpTrace* trace = nullptr;
};

/// Evaluates "(base ? leaf.scope ? leaf.filter)" for every leaf with ONE
/// pass over the widest of their ranges: the base entry's subtree range
/// when any leaf has scope one or sub, else the base entry's own. Each
/// record is read and parsed once and tested against every leaf's scope
/// and filter; leaf i's matches go to list i through a RunWriter of its
/// own, so list i is byte-identical to leaf i scanned alone.
///
/// The store may pass over the pages of the range that hold no record any
/// leaf's filter can match (EntrySource::ScanRange with the leaves'
/// filters; a bulk-loaded segment's page synopses prove it).
///
/// A leaf's trace receives its op and output counters, and its output
/// writes land in its `io` (an IoScope around each of its writes). The
/// range's page reads, the scanned records and the skipped pages are
/// counted once, on the first leaf's trace; `shared_scan` records how many
/// leaves the scan served when that is more than one. On failure no list
/// stays allocated.
Result<std::vector<EntryList>> ScanLeaves(Disk* disk,
                                          const EntrySource& store,
                                          const Dn& base,
                                          const std::vector<ScanLeaf>& leaves);

/// The fork units of an operator's operands (given in q1/q2/q3 order), as
/// operand indexes: a leaf joins the first earlier unit of leaves over
/// the same base that does not hold the same leaf already (a repeat is
/// the operand cache's to serve), and one ScanLeaves evaluates each such
/// unit; any other operand is a unit of its own. The evaluator forks by
/// these units and the cost model prices each unit's range once.
std::vector<std::vector<size_t>> ScanUnits(
    const std::vector<const Query*>& operands);

/// The store's estimate (no I/O) of the one range scan ScanLeaves makes
/// for `leaves`, queries over one base: the pages of their widest range
/// that the store admits for any of their filters, and the records
/// starting in them.
EntrySource::RangeEstimate EstimateScan(
    const EntrySource& store, const std::vector<const Query*>& leaves);

/// Evaluates "(base ? scope ? filter)" over the store: ScanLeaves with one
/// leaf.
Result<EntryList> EvalAtomic(Disk* disk, const EntrySource& store,
                             const Dn& base, Scope scope,
                             const AtomicFilter& filter,
                             OpTrace* trace = nullptr);

/// Evaluates a baseline LDAP query (base + scope + boolean filter).
Result<EntryList> EvalLdap(Disk* disk, const EntrySource& store,
                           const Dn& base, Scope scope,
                           const LdapFilter& filter,
                           OpTrace* trace = nullptr);

}  // namespace ndq

#endif  // NDQ_EXEC_ATOMIC_H_
