// Aggregate terms and accumulators for L2 aggregate selection (Sec. 6).
//
// The grammar (Fig. 9) distinguishes:
//   entry aggregates      agg(a), agg($1.a), agg($2.a), count($2)
//     — one value per (entry, witness-set) pair;
//   entry-set aggregates  agg1(ea), count($1), count($$)
//     — one value per whole operand set.
// All aggregate functions here are distributive or algebraic in the sense
// of [27] (min, max, sum, count; average = sum/count), so accumulators can
// be merged incrementally — which is exactly what lets the stack-based
// algorithms of Sec. 6.4 maintain them in linear I/O.
//
// Semantics of edge cases (applied consistently by the reference evaluator
// and the external-memory engine):
//   * min/max/sum/average aggregate only int-typed values; count counts
//     values of any type.
//   * an aggregate over an empty (int-)multiset is undefined, except count,
//     which is 0; a comparison involving an undefined aggregate is false.
//   * average uses integer division (sum/count of int values), keeping the
//     aggregate domain integral as the grammar's IntOp comparisons expect.
//   * sums are accumulated in 128-bit arithmetic, so the result is
//     independent of accumulation/merge order (the stack algorithms fold
//     contributions in a different order than a linear scan). A sum whose
//     true value does not fit in int64 is undefined (null), never a
//     silently wrapped value; average stays defined as long as the 128-bit
//     quotient fits (it always does: |avg| <= max |value|).

#ifndef NDQ_QUERY_AGGREGATE_H_
#define NDQ_QUERY_AGGREGATE_H_

#include <cstdint>
#include <limits>
#include <optional>
#include <string>

#include "core/value.h"
#include "filter/atomic_filter.h"  // for CompareOp

namespace ndq {

/// The aggregate functions of Fig. 9.
enum class AggFn { kMin, kMax, kSum, kCount, kAvg };

const char* AggFnToString(AggFn fn);
Result<AggFn> AggFnFromString(const std::string& name);

/// \brief Incremental accumulator for one aggregate function.
struct AggAccumulator {
  /// 128-bit signed accumulator type for sums: wide enough that adding
  /// int64 values cannot reach its bounds for any feasible multiset size
  /// (overflow would need ~2^64 extreme values), so sum results are
  /// order-independent. `overflow` is a defensive sticky flag should that
  /// bound ever be hit.
  using Sum128 = __int128;

  explicit AggAccumulator(AggFn fn = AggFn::kCount) : fn(fn) {}

  AggFn fn;
  uint64_t count = 0;       // values seen (count fn counts everything)
  uint64_t int_count = 0;   // int values seen (for avg)
  Sum128 sum = 0;
  int64_t min = 0;
  int64_t max = 0;
  bool any_int = false;
  bool overflow = false;  // 128-bit accumulator itself overflowed

  /// Folds in one attribute value.
  void AddValue(ValueView v) {
    ++count;
    if (v.is_int()) AddInt(v.AsInt());
  }

  void AddInt(int64_t x) {
    ++int_count;
    if (__builtin_add_overflow(sum, static_cast<Sum128>(x), &sum)) {
      overflow = true;
    }
    if (!any_int || x < min) min = x;
    if (!any_int || x > max) max = x;
    any_int = true;
  }

  /// Counts an occurrence without a value (count($2)-style counting).
  void AddUnit() { ++count; }

  /// Merges another accumulator of the same fn (distributivity).
  void Merge(const AggAccumulator& other) {
    count += other.count;
    int_count += other.int_count;
    if (__builtin_add_overflow(sum, other.sum, &sum)) overflow = true;
    overflow = overflow || other.overflow;
    if (other.any_int) {
      if (!any_int || other.min < min) min = other.min;
      if (!any_int || other.max > max) max = other.max;
      any_int = true;
    }
  }

  /// The aggregate value, or nullopt if undefined. A sum outside the
  /// int64 domain is undefined (comparisons against it are false) rather
  /// than a wrapped value; the average is computed in 128-bit arithmetic
  /// and is always representable when any int value was seen.
  std::optional<int64_t> Finish() const {
    constexpr Sum128 kInt64Min = std::numeric_limits<int64_t>::min();
    constexpr Sum128 kInt64Max = std::numeric_limits<int64_t>::max();
    switch (fn) {
      case AggFn::kCount:
        return static_cast<int64_t>(count);
      case AggFn::kMin:
        return any_int ? std::optional<int64_t>(min) : std::nullopt;
      case AggFn::kMax:
        return any_int ? std::optional<int64_t>(max) : std::nullopt;
      case AggFn::kSum:
        if (!any_int || overflow || sum < kInt64Min || sum > kInt64Max) {
          return std::nullopt;
        }
        return static_cast<int64_t>(sum);
      case AggFn::kAvg: {
        if (!any_int || overflow) return std::nullopt;
        Sum128 avg = sum / static_cast<Sum128>(int_count);
        if (avg < kInt64Min || avg > kInt64Max) return std::nullopt;
        return static_cast<int64_t>(avg);
      }
    }
    return std::nullopt;
  }
};

/// What an entry aggregate ranges over.
enum class AggTarget {
  kSelfAttr,      ///< agg(a) / agg($1.a): values of a in the entry itself
  kWitnessAttr,   ///< agg($2.a): values of a across the witness set
  kWitnessCount,  ///< count($2): size of the witness set
};

/// \brief An entry aggregate (one value per entry + witness set).
struct EntryAgg {
  AggFn fn = AggFn::kCount;
  AggTarget target = AggTarget::kSelfAttr;
  std::string attr;  // empty for kWitnessCount

  std::string ToString() const;
  bool operator==(const EntryAgg&) const = default;
};

/// \brief One side of an aggregate selection comparison (AggAttribute in
/// Fig. 9): a constant, an entry aggregate, or an entry-set aggregate.
struct AggAttr {
  enum class Kind {
    kConst,     ///< integer literal
    kEntry,     ///< entry aggregate
    kEntrySet,  ///< agg1(ea) over all of M(Q1), or count($1)/count($$)
  };
  enum class SetForm {
    kAggOfEntry,  ///< agg1(ea)
    kCountSet,    ///< count($1) (structural) / count($$) (simple)
  };

  Kind kind = Kind::kConst;
  int64_t constant = 0;
  EntryAgg entry;           // kEntry, and the inner ea of kEntrySet
  AggFn outer_fn = AggFn::kCount;  // kEntrySet with kAggOfEntry
  SetForm set_form = SetForm::kAggOfEntry;
  bool spelled_dollar_dollar = false;  // count($$) vs count($1) rendering

  static AggAttr Const(int64_t c);
  static AggAttr Entry(EntryAgg ea);
  static AggAttr EntrySet(AggFn outer, EntryAgg inner);
  static AggAttr CountSet(bool dollar_dollar);

  std::string ToString() const;
  bool operator==(const AggAttr&) const = default;
};

/// \brief The aggregate selection filter: AggAttr IntOp AggAttr.
struct AggSelFilter {
  AggAttr lhs;
  CompareOp op = CompareOp::kEq;
  AggAttr rhs;

  /// True iff either side requires an entry-set aggregate (which forces a
  /// two-phase evaluation, as in Fig. 6).
  bool NeedsSetAggregates() const {
    return lhs.kind == AggAttr::Kind::kEntrySet ||
           rhs.kind == AggAttr::Kind::kEntrySet;
  }

  std::string ToString() const;
  bool operator==(const AggSelFilter&) const = default;
};

/// Applies an IntOp comparison; false when either side is undefined.
bool CompareAgg(std::optional<int64_t> lhs, CompareOp op,
                std::optional<int64_t> rhs);

/// Parses an aggregate selection filter, e.g.
/// "count(SLAPVPRef) > 1", "count($2)=max(count($2))",
/// "min(SLARulePriority)=min(min(SLARulePriority))".
Result<AggSelFilter> ParseAggSelFilter(std::string_view text);

}  // namespace ndq

#endif  // NDQ_QUERY_AGGREGATE_H_
