// Random directory forests for property testing and algorithm benches.
//
// The generated instances are schema-light (validation off) but exercise
// every feature the operators care about: variable depth/fan-out, multi-
// valued attributes, multiple classes, int/string/dn-typed values, and
// DN-valued reference attributes ("ref") for the embedded-reference
// operators.

#ifndef NDQ_GEN_RANDOM_FOREST_H_
#define NDQ_GEN_RANDOM_FOREST_H_

#include <cstdint>
#include <random>

#include "core/instance.h"

namespace ndq {
namespace gen {

struct RandomForestOptions {
  uint32_t seed = 1;
  size_t num_entries = 200;
  size_t num_roots = 3;        ///< forest, not tree
  size_t max_children = 4;     ///< fan-out bound when growing
  int num_classes = 3;         ///< objectClass drawn from classA..classN
  int int_attr_range = 20;     ///< "x" values in [0, range)
  int num_tags = 8;            ///< "tag" values tag0..tagN
  double ref_probability = 0.4;  ///< chance an entry gets "ref" values
  int max_refs = 3;            ///< max "ref" values per entry
  /// Fuzzing hooks (default 0 so existing tests/benches are unchanged):
  /// chance an "x" value is drawn near ±INT64_MAX instead of
  /// [0, int_attr_range) — exercises the aggregate overflow paths.
  double extreme_int_probability = 0.0;
  /// Chance an RDN value is decorated with DN metacharacters
  /// (',', '=', '+', '\\', edge spaces) — exercises escaping round-trips.
  /// Serial numbers keep decorated values unique.
  double weird_rdn_probability = 0.0;
  /// Chance a "tag" value is drawn as "tagshare<N>": longer than 8 bytes,
  /// with the first 8 shared by every such tag — exercises the 8-byte
  /// string bounds of page synopses (store/page_synopsis.h).
  double long_tag_probability = 0.0;
  /// Chance an entry also carries its first "x" value's decimal spelling
  /// as a string "x" value — an int and its spelling on one attribute.
  double spelled_x_probability = 0.0;
};

/// Generates a random forest instance. Entries have attributes:
///   objectClass (1-2 classes), x (1-2 int values, and at times the first
///   one's spelling), tag (string), ref (0..max_refs DN references to
///   random entries).
DirectoryInstance RandomForest(const RandomForestOptions& options);

}  // namespace gen
}  // namespace ndq

#endif  // NDQ_GEN_RANDOM_FOREST_H_
