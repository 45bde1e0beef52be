// Structured "this result is degraded" notes.
//
// Several layers can decide to return a partial or empty result instead
// of failing outright: the distributed coordinator drops an unreachable
// server's contribution after retries (dist/distributed.h), and the batch
// engine's admission control rejects a query whose estimated page budget
// is exceeded (engine/engine.h). Both attach one DegradationWarning per
// degradation so callers can tell a complete answer from a partial one.

#ifndef NDQ_CORE_DEGRADATION_H_
#define NDQ_CORE_DEGRADATION_H_

#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace ndq {

/// One structured degradation note: which component degraded the result
/// and why. `source` is a server name for distributed degradation, or a
/// component label such as "admission" for engine-side rejection.
struct DegradationWarning {
  std::string source;
  std::string detail;

  std::string ToString() const {
    return "degraded: " + source + ": " + detail;
  }
};

/// The warnings one evaluation (or one subtree of it) recorded, in
/// recording order. Thread-safe: sibling subtrees record concurrently.
class DegradationLog {
 public:
  void Record(DegradationWarning warning) {
    std::lock_guard<std::mutex> lock(mu_);
    warnings_.push_back(std::move(warning));
  }
  std::vector<DegradationWarning> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::exchange(warnings_, {});
  }

 private:
  std::mutex mu_;
  std::vector<DegradationWarning> warnings_;
};

}  // namespace ndq

#endif  // NDQ_CORE_DEGRADATION_H_
