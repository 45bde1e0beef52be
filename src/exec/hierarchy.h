// The stack-based hierarchical selection operators.
//
// Implements ComputeHSPC (Fig. 2), ComputeHSAD (Fig. 4), ComputeHSADc
// (Fig. 5) and their aggregate-selection generalizations ComputeHSAgg*
// (Sec. 6.4, Fig. 6) as ONE parameterized pass plus the shared filter
// phase of exec/common.h. The L1-only operators are evaluated as their
// "count($2) > 0" aggregate special case, exactly as Sec. 6.2 observes.
//
// Direction. The inputs are merged in reverse-DN order, where an entry's
// ancestors precede it. Consequently:
//   * For the ancestor-direction operators (p, a, ac) an entry's witness
//     aggregate is complete the moment the entry ARRIVES — the paper's
//     below(.) counters — so one forward pass emits the annotated list in
//     key order.
//   * For the descendant-direction operators (c, d, dc) — the paper's
//     above(.) counters, finalized at pop time — this implementation
//     instead merges the inputs in DESCENDING key order, reading each run
//     backwards (ReverseRunReader, storage/run.h), where an entry's
//     descendants precede it and the same arrival-time argument applies;
//     the filter phase reads the descending annotated list backwards, so
//     the output is ascending. This achieves the in-place "associate
//     values with entry rt in list L1" of the paper's Phase 1 at the
//     ancestor direction's cost: one read of the inputs, one write and
//     one read of the annotated list (two with an entry-set aggregate),
//     one write of the output — O((|L1| + |L2| [+ |L3|])/B) I/Os as
//     Theorems 5.1/6.2 require.
//
// The stack itself is a SpillableStack, so a root-to-leaf chain larger
// than memory spills in page-sized batches with amortized O(chain/B) I/O —
// the crux of the Theorem 5.1 proof.

#ifndef NDQ_EXEC_HIERARCHY_H_
#define NDQ_EXEC_HIERARCHY_H_

#include "exec/common.h"
#include "exec/trace.h"
#include "query/ast.h"

namespace ndq {

/// Evaluates one of the six hierarchy operators with an (optional)
/// aggregate selection filter. `l3` must be non-null exactly for the
/// path-constrained operators (kCoAncestors / kCoDescendants). A missing
/// `agg` means the existential L1 semantics. A non-null `trace` receives
/// the pass's counters, including the spill stack's peak depth and
/// spill/reload count (the Thm 5.1 amortization at work).
Result<EntryList> EvalHierarchy(Disk* disk, QueryOp op,
                                const EntryList& l1, const EntryList& l2,
                                const EntryList* l3,
                                const std::optional<AggSelFilter>& agg,
                                const ExecOptions& options = {},
                                OpTrace* trace = nullptr);

}  // namespace ndq

#endif  // NDQ_EXEC_HIERARCHY_H_
