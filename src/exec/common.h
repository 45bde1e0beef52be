// Shared plumbing for the external-memory operators:
//   * EntryList — the inter-operator dataflow unit: a Run of serialized
//     entries in ascending HierKey order;
//   * labeled merge — the "lexicographic merge of L1 and L2 [and L3]" that
//     the stack algorithms consume, with per-record membership labels, in
//     ascending or descending key order;
//   * annotated records — an entry plus its per-witness-aggregate values,
//     produced by phase 1 of the algorithms and consumed by the filter
//     phase;
//   * AggProgram — the compiled form of an AggSelFilter: which witness
//     ($2) aggregates phase 1 must maintain, and how each comparison side
//     is evaluated in the filter phase.

#ifndef NDQ_EXEC_COMMON_H_
#define NDQ_EXEC_COMMON_H_

#include <optional>
#include <string>
#include <vector>

#include "core/entry.h"
#include "core/head64.h"
#include "query/aggregate.h"
#include "storage/external_sort.h"
#include "storage/run.h"
#include "storage/serde.h"

namespace ndq {

struct OpTrace;

/// A run of serialized entries in ascending HierKey order.
using EntryList = Run;

/// Tuning knobs for the evaluation engine.
struct ExecOptions {
  /// In-memory window of the spillable stacks (items). Must span at least
  /// a couple of pages of serialized stack items for the amortized-linear
  /// I/O bound to hold.
  size_t stack_window = 4096;
  /// External sort configuration (used by the embedded-reference
  /// operators, the only place the engine sorts).
  ExternalSortOptions sort;
  /// Number of threads a ParallelEvaluator with a private pool may use for
  /// independent operand subtrees (1 = sequential). Evaluators on a
  /// borrowed pool (the engine's) run at that pool's size instead; the
  /// engine sizes its pool from EngineOptions::exec.
  size_t parallelism = 1;
};

/// \brief Owns an operand run's pages until released.
///
/// Operators consume two or three operand lists; if evaluating a later
/// operand fails, the earlier ones' pages must still be returned to the
/// disk. ScopedRun frees the run on destruction unless Release() has
/// transferred ownership (to an operator that consumes it, or to the
/// caller on success).
class ScopedRun {
 public:
  ScopedRun() = default;
  ScopedRun(Disk* disk, Run run) : disk_(disk), run_(run) {}
  ~ScopedRun() { Reset(); }

  ScopedRun(ScopedRun&& other) noexcept { *this = std::move(other); }
  ScopedRun& operator=(ScopedRun&& other) noexcept {
    if (this != &other) {
      Reset();
      disk_ = other.disk_;
      run_ = other.run_;
      other.disk_ = nullptr;
      other.run_ = Run{};
    }
    return *this;
  }
  ScopedRun(const ScopedRun&) = delete;
  ScopedRun& operator=(const ScopedRun&) = delete;

  const Run& get() const { return run_; }
  const Run* operator->() const { return &run_; }

  /// Transfers ownership out; the guard no longer frees anything.
  Run Release() {
    disk_ = nullptr;
    Run r = run_;
    run_ = Run{};
    return r;
  }

  /// Frees the held run now and reports the free's status (success paths
  /// call this so free errors still surface; the destructor ignores them,
  /// since it runs on paths that already carry a primary error).
  Status Free() {
    if (disk_ == nullptr) return Status::OK();
    Disk* d = disk_;
    disk_ = nullptr;
    return FreeRun(d, &run_);
  }

  void Reset() { Free().ok(); }

 private:
  Disk* disk_ = nullptr;
  Run run_;
};

/// Membership labels in the merged stream (Figs. 2/4/5: label(r) = {i |
/// r in Li}).
inline constexpr uint8_t kInL1 = 1;
inline constexpr uint8_t kInL2 = 2;
inline constexpr uint8_t kInL3 = 4;

/// One element of a labeled merge.
struct LabeledRecord {
  uint8_t labels = 0;
  std::string entry_record;
  std::string_view key;  // into entry_record
};

/// The order a stream visits an entry list's keys in. Entry lists are
/// stored ascending; a descending stream reads them backwards
/// (ReverseRunReader).
enum class KeyOrder { kAscending, kDescending };

/// Reads a run forwards, or backwards when `order` is kDescending: an
/// ascending entry list then streams in descending key order, and a
/// descending annotated list in ascending order.
class DirectedRunReader {
 public:
  DirectedRunReader(Disk* disk, const Run& run, KeyOrder order);

  /// Reads the next record in the chosen direction; false at the end.
  Result<bool> Next(std::string* record);

 private:
  std::optional<RunReader> forward_;
  std::optional<ReverseRunReader> backward_;
};

/// \brief Streaming lexicographic merge of up to three entry lists.
///
/// Produces each distinct entry once, labels OR-ed across the lists that
/// contain it, in `order`. An ascending merge holds one page buffer per
/// input; a descending one reads each input backwards, straight from its
/// run, and holds a reverse reader's buffers per input.
class LabeledMerge {
 public:
  /// Any list pointer may be null (treated as empty). The constructor does
  /// no I/O; the first Next() call primes the inputs, so read errors from
  /// the initial page fetches surface through Next()'s Status instead of
  /// being lost in a constructor.
  LabeledMerge(Disk* disk, const EntryList* l1, const EntryList* l2,
               const EntryList* l3, KeyOrder order = KeyOrder::kAscending);

  /// Reads the next merged element; returns false at end.
  Result<bool> Next(LabeledRecord* out);

 private:
  struct Input {
    std::unique_ptr<DirectedRunReader> reader;
    uint8_t label;
    std::string record;
    std::string key;
    uint64_t head = 0;  // ExtractHead64(key), cached at refill
    bool has = false;
  };

  Status Refill(Input* in);

  std::vector<Input> inputs_;
  const bool descending_;
  bool primed_ = false;
};

// ---------------------------------------------------------------------------
// Annotated records: [varint n][n x (u8 defined, zigzag value)][entry bytes]
// ---------------------------------------------------------------------------

void WriteAnnotated(const std::vector<std::optional<int64_t>>& vals,
                    std::string_view entry_record, std::string* out);

Status ParseAnnotated(std::string_view rec,
                      std::vector<std::optional<int64_t>>* vals,
                      std::string_view* entry_record);

// ---------------------------------------------------------------------------
// Accumulator wire format (for spillable stacks and ER pair lists)
// ---------------------------------------------------------------------------

void SerializeAcc(const AggAccumulator& acc, std::string* out);
Result<AggAccumulator> DeserializeAcc(ByteReader* reader);

// ---------------------------------------------------------------------------
// AggProgram
// ---------------------------------------------------------------------------

/// \brief Compiled evaluation plan for one AggSelFilter.
struct AggProgram {
  AggSelFilter filter;
  /// Distinct $2-targeted entry aggregates phase 1 must maintain; the
  /// annotated record carries one value per element, in this order.
  std::vector<EntryAgg> witness_aggs;

  /// Builds the program; `structural` controls whether $2 targets are
  /// legal (they are not in simple aggregate selection).
  static Result<AggProgram> Compile(const AggSelFilter& filter,
                                    bool structural);

  /// Index into witness_aggs, or npos for self-targeted aggregates.
  size_t WitnessIndex(const EntryAgg& ea) const;

  bool NeedsSetAggregates() const { return filter.NeedsSetAggregates(); }

  /// Fresh accumulators, one per witness aggregate.
  std::vector<AggAccumulator> MakeWitnessAccs() const;

  /// Folds `entry`'s contribution (as a witness) into `accs`.
  void AddWitnessContribution(const EntryView& entry,
                              std::vector<AggAccumulator>* accs) const;

  /// Globals computed by the pre-filter scan: one slot per comparison side.
  struct Globals {
    std::optional<int64_t> lhs;
    std::optional<int64_t> rhs;
    uint64_t set_size = 0;  // |M(Q1)|, for count($1)/count($$)
  };

  /// Evaluates one side of the comparison for an annotated entry.
  std::optional<int64_t> EvalSide(
      bool lhs_side, const EntryView& entry,
      const std::vector<std::optional<int64_t>>& witness_vals,
      const Globals& globals) const;

  /// True for the annotated entry iff the filter comparison holds.
  bool Matches(const EntryView& entry,
               const std::vector<std::optional<int64_t>>& witness_vals,
               const Globals& globals) const;
};

/// Runs the filter phase over an annotated list: an optional globals scan
/// (when the program needs entry-set aggregates) followed by the selection
/// scan. `order` is the annotated list's key order; a descending list is
/// read backwards, so the result is ascending either way. The annotated
/// input is consumed (freed); the result contains the plain entry records
/// that pass. Linear I/O (<= 2 scans + output).
Result<EntryList> FilterAnnotatedList(Disk* disk, Run annotated,
                                      const AggProgram& prog,
                                      KeyOrder order = KeyOrder::kAscending);

/// Simple aggregate selection "(g L1 AggSelFilter)" over a materialized
/// list (Theorem 6.1: at most two scans + output): annotates L1 with no
/// witness values and runs the filter phase above.
Result<EntryList> EvalSimpleAgg(Disk* disk, const EntryList& l1,
                                const AggSelFilter& filter,
                                OpTrace* trace = nullptr);

/// The implicit existential filter "count($2) > 0" (Sec. 6.2 observes the
/// L1 operators are this special case).
AggSelFilter ExistentialFilter();

// ---------------------------------------------------------------------------
// Test/bench helpers
// ---------------------------------------------------------------------------

/// Materializes entries (already key-ordered) into an EntryList.
Result<EntryList> MakeEntryList(Disk* disk,
                                const std::vector<const Entry*>& entries);

/// Reads back a whole entry list (for tests).
Result<std::vector<Entry>> ReadEntryList(Disk* disk,
                                         const EntryList& list);

}  // namespace ndq

#endif  // NDQ_EXEC_COMMON_H_
