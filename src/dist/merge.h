// Streaming scatter-gather merge at the coordinator (Sec. 8.3, scaled).
//
// Every server returns its result — an atomic query's, or a shipped
// subtree's — as a SORTED run in reverse-DN order, and shard contexts are
// disjoint, so the coordinator can restore global order with a plain
// k-way merge — no dedup, no re-sort (a shipment is a merge of one). The
// per-shard runs STAY on the serving replicas' disks and the coordinator
// consumes them record-at-a-time, writing the merged output exactly once:
// each record crosses the "network" once, and the coordinator's footprint
// is one page per input stream.
//
// Replication makes the streams resumable: if a replica dies mid-stream
// (a read fails), the stream re-fetches the same result from a sibling
// replica — replicas hold identical partitions, so the replacement run is
// byte-identical — and skips the records already consumed. A mid-merge
// failover is therefore invisible in the merged output.

#ifndef NDQ_DIST_MERGE_H_
#define NDQ_DIST_MERGE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "storage/external_sort.h"
#include "storage/run.h"

namespace ndq {

/// One shard's sorted result stream, resumable across replica failures.
class ShardStream {
 public:
  /// A run on the disk that holds it (a serving replica's own disk).
  struct Source {
    Disk* disk = nullptr;
    Run run;
  };
  /// Re-fetches the shard's result from another replica after a
  /// mid-stream failure. Must return a Source holding the same record
  /// sequence, or the failure that exhausted the shard's replicas.
  using Refetch = std::function<Result<Source>()>;

  ShardStream(std::string shard, Source source, Refetch refetch);
  ~ShardStream();  // frees the current run, best effort

  ShardStream(const ShardStream&) = delete;
  ShardStream& operator=(const ShardStream&) = delete;

  /// Reads the next record; false at end-of-stream. A read failure
  /// triggers a refetch + resume; the error only surfaces if the refetch
  /// itself fails (every replica of the shard is gone).
  Result<bool> Next(std::string* record);

  /// Frees the underlying run, best effort: a replica that refuses the
  /// free leaves its pages behind but cannot change what was read.
  /// Idempotent; the destructor covers error paths.
  void Close();

  const std::string& shard() const { return shard_; }
  uint64_t consumed() const { return consumed_; }
  uint64_t bytes_consumed() const { return bytes_consumed_; }
  uint64_t num_records() const { return source_.run.num_records; }

 private:
  /// Swaps in a replacement source and skips the consumed prefix.
  Status Reopen();

  std::string shard_;
  Source source_;
  Refetch refetch_;
  std::unique_ptr<RunReader> reader_;
  uint64_t consumed_ = 0;
  uint64_t bytes_consumed_ = 0;
  bool closed_ = false;
};

/// Merges the streams into one run on `out_disk`, written in `format`,
/// with the head-of-key fast comparator (core/head64.h) over `key_fn`.
/// Streams must each be sorted by key and pairwise disjoint (shard
/// contexts are). Exhausted streams are Close()d as the merge drains them;
/// on failure the failing stream's index lands in `*failed_stream` (when
/// non-null) so the caller can degrade that shard and retry without it.
/// The streams stay owned by the caller — read
/// consumed()/bytes_consumed() afterwards for shipping accounting.
Result<Run> MergeShardStreams(Disk* out_disk, const RecordKeyFn& key_fn,
                              const std::vector<ShardStream*>& streams,
                              PageFormat format,
                              size_t* failed_stream = nullptr);

}  // namespace ndq

#endif  // NDQ_DIST_MERGE_H_
