// Random query generation for property testing (exec engine vs. the
// definitional reference evaluator) across all language levels.

#ifndef NDQ_GEN_RANDOM_QUERY_H_
#define NDQ_GEN_RANDOM_QUERY_H_

#include <random>

#include "core/instance.h"
#include "query/ast.h"

namespace ndq {
namespace gen {

struct RandomQueryOptions {
  /// Highest language allowed in the generated tree.
  Language max_language = Language::kL3;
  /// Maximum operator-tree depth (atomic leaves not counted).
  int max_depth = 3;
  /// Probability that a hierarchy/ER operator carries an aggregate
  /// selection filter (when the language allows).
  double agg_probability = 0.5;
  /// Probability that an interior position becomes an atomic leaf anyway
  /// (controls tree size; depth 0 always forces a leaf).
  double leaf_probability = 0.35;
  /// Relative weights for operator classes at interior nodes, used only
  /// when the language level admits the class: boolean (L0+), plain
  /// hierarchy (L1+), constrained hierarchy (L1+), simple aggregation
  /// `g` (L2+), embedded reference (L3+). A zero weight disables the
  /// class — the fuzzer's shrinker uses that to localize a divergence to
  /// one operator family.
  int bool_weight = 1;
  int hierarchy_weight = 2;
  int constrained_weight = 1;
  int agg_weight = 1;
  int embedded_ref_weight = 2;
};

/// Generates a random query against instances produced by RandomForest
/// (attributes objectClass/x/tag/ref). Bases are drawn from the
/// instance's dns (or null), and a leaf reuses the base of the sibling
/// leaf generated before it about a third of the time (with a scope of
/// its own); every generated query parses back from its ToString form.
QueryPtr RandomQuery(std::mt19937* rng, const DirectoryInstance& instance,
                     const RandomQueryOptions& options);

}  // namespace gen
}  // namespace ndq

#endif  // NDQ_GEN_RANDOM_QUERY_H_
