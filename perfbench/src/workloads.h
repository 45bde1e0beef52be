// The benchmark's three workloads and the seeded inputs they drive.
//
//   local_mix     one closed-loop session over a 64k-entry local store;
//                 a mixed L0-L3 stream whose leaves rarely repeat, so the
//                 cost is page decode, record materialisation, filters
//                 and operators.
//   fleet_open    the same directory on a sharded, replicated fleet,
//                 driven open-loop at a fixed rate by four sessions with
//                 E21's class mix; the cost is routing, replica locking,
//                 scatter-gather merge and session queueing.
//   provision_rw  a mutable owning-mode store loaded through
//                 Session::Apply, with one closed-loop writer and one
//                 closed-loop reader; the cost is the write path and
//                 reads over a changing LSM view.

#ifndef NDQ_PERFBENCH_WORKLOADS_H_
#define NDQ_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "gen/dif_gen.h"
#include "harness.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint32_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory for the result record and the span file.
  std::string out_dir = ".";
};

/// What a run observed besides its metrics.
struct RunStatus {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> problems;

  void Fail(const std::string& why) {
    correct = false;
    problems.push_back(why);
  }
};

/// Query classes; "heavy" is every class except kSub and kOrg.
enum class QueryClass { kSub, kOrg, kHier, kL3, kJoin, kGlobal };
const char* ClassName(QueryClass c);
inline bool IsHeavy(QueryClass c) {
  return c != QueryClass::kSub && c != QueryClass::kOrg;
}

struct GenQuery {
  std::string text;
  QueryClass cls;
};

/// Deals query classes in shuffled blocks of an exact mix, so every run
/// carries the same share of each class whatever its seed; only the order
/// within a block and the queries' parameters vary.
class ClassDeck {
 public:
  explicit ClassDeck(std::vector<QueryClass> block)
      : block_(std::move(block)), pos_(block_.size()) {}
  QueryClass Next(std::mt19937& rng);

 private:
  std::vector<QueryClass> block_;
  size_t pos_;
};

/// Seeded query streams. Each is a function of the directory's shape, so
/// the same generator feeds the full-size run and the small validation
/// directory.
class LocalMixStream {
 public:
  LocalMixStream(const ndq::gen::DifOptions& dif, uint32_t seed);
  GenQuery Next();

 private:
  const ndq::gen::DifOptions dif_;
  std::mt19937 rng_;
  ClassDeck deck_;
};

class FleetStream {
 public:
  FleetStream(const ndq::gen::DifOptions& dif, uint32_t seed);
  GenQuery Next();

 private:
  const ndq::gen::DifOptions dif_;
  std::mt19937 rng_;
  ClassDeck deck_;
};

/// The directory shapes of the workloads.
ndq::gen::DifOptions LocalDif(uint32_t seed);     // 4 x 4 x 400, ~64k
ndq::gen::DifOptions ProvisionDif(uint32_t seed); // 1 x 2 x 400, ~8k

/// "shard root dc=com" plus one shard per org, `replicas` each.
std::string FleetTopology(const ndq::gen::DifOptions& dif, int replicas);

int RunLocalMix(const Args& args, Report* report, RunStatus* status);
int RunFleetOpen(const Args& args, Report* report, RunStatus* status);
int RunProvisionRw(const Args& args, Report* report, RunStatus* status);

}  // namespace perfbench

#endif  // NDQ_PERFBENCH_WORKLOADS_H_
