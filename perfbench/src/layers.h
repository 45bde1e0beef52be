// The traced run's per-layer replays. Each replay calls the public
// functions of one src/ module directly, from the benchmark, around the
// same inputs the engine just served, and records a span per call:
//
//   query    ParseQuery + RewriteQuery + OptimizeQuery + EstimateCost
//   exec     ParallelEvaluator::Evaluate, EvalAtomic per leaf,
//            ReadEntryList of the result
//   storage  EntrySource::ScanRange + PeekEntryKey over each leaf's range
//   filter   DeserializeEntry and AtomicFilter/LdapFilter::Matches over
//            each leaf's in-scope records
//   dist     DistributedDirectory::Execute
//   store    DirectoryStore::Put (volatile and durable), merged LSM scan
//            against a bulk-loaded segment
//
// The engine layer is timed around Session::Run / Session::Apply by the
// workloads themselves.

#ifndef NDQ_PERFBENCH_LAYERS_H_
#define NDQ_PERFBENCH_LAYERS_H_

#include <map>
#include <memory>
#include <string>

#include "core/instance.h"
#include "engine/engine.h"
#include "harness.h"
#include "workloads.h"

namespace perfbench {

/// Sums over every replayed query.
struct LayerTotals {
  uint64_t replayed = 0;
  Samples plan_us;
  double decode_us = 0;
  uint64_t decode_records = 0;
  double deserialize_us = 0;
  uint64_t deserialize_records = 0;
  double match_us = 0;
  uint64_t match_records = 0;
  uint64_t matched = 0;
  Samples leaf_ms;      // per query: EvalAtomic summed over its leaves
  Samples operator_ms;  // per query: Evaluate minus its leaves, >= 0
  double materialize_us = 0;
  uint64_t materialized = 0;
  Samples overhead_ms;  // per query: Session::Run minus the replayed parts
  std::map<std::string, Samples> dist_execute_ms;  // by query class
};

/// Replays queries against an engine's own store (local or owning
/// backends) or fleet (distributed backend). The engine must be idle.
class LayerReplayer {
 public:
  LayerReplayer(ndq::Engine* engine, Tracer* tracer);
  ~LayerReplayer();
  LayerReplayer(const LayerReplayer&) = delete;
  LayerReplayer& operator=(const LayerReplayer&) = delete;

  /// Runs `q` once through Session::Run and once through the layers.
  ndq::Status Replay(ndq::Session* session, const GenQuery& q,
                     uint64_t query_id, LayerTotals* totals);

 private:
  ndq::Engine* engine_;
  Tracer* tracer_;
  std::unique_ptr<ndq::SimDisk> scratch_;
  std::unique_ptr<ndq::ParallelEvaluator> evaluator_;  // local backends
};

/// What the store probe measured.
struct StoreProbe {
  Samples put_us;                 // every volatile Put
  std::map<int, double> put_us_at;  // median Put over the 1024 puts
                                    // ending at this store size
  Samples durable_put_us;
  uint64_t wal_records = 0;
  double scan_lsm_us_per_rec = 0;
  double scan_bulk_us_per_rec = 0;
};

/// Loads `inst` entry by entry into a fresh volatile DirectoryStore and a
/// fresh durable one, then compares a merged scan of the volatile store
/// with a scan of the same entries bulk-loaded into one segment.
ndq::Status ProbeStore(const ndq::DirectoryInstance& inst, Tracer* tracer,
                       StoreProbe* out);

}  // namespace perfbench

#endif  // NDQ_PERFBENCH_LAYERS_H_
