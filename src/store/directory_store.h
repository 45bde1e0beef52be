// The mutable directory store: a small LSM over EntryStore segments, safe
// for concurrent queries and (optionally) durable across crashes.
//
// TOPS subscriber policies "can be created and modified dynamically"
// (Sec. 2.2), so a directory server needs an update path. DirectoryStore
// keeps a sorted in-memory memtable of recent Put/Remove operations
// (removals as tombstones) over a stack of immutable sorted segments; the
// memtable flushes to a new segment when full, and Compact() merges all
// segments into one. Reads are a newest-wins merge across memtable and
// segments — still in HierKey order, so the evaluation engine runs over a
// DirectoryStore exactly as over one segment (both implement EntrySource).
//
// Concurrency (docs/WRITE_PATH.md): all state lives in an immutable
// StoreState published through a shared_ptr under a short-section mutex.
// The published state is itself an EntrySource: a reader pins it
// (PinSnapshot) and runs lock-free against that one version. Every state
// transition holds one writer lock: an update batch (Apply) copies the
// published state once, applies its ops to the copy and publishes it
// once, so a reader sees all of a batch or none of it; a flush's freeze
// and install and a compaction's install publish a new copy the same way.
// A segment's pages live as long as the states that name them: a segment
// a compaction replaced frees its pages when the last such state is
// released. Flush/Compact serialize on a maintenance mutex and do their
// heavy building outside all locks, so queries never wait on segment
// construction.
//
// Durability: EnableDurability() attaches a write-ahead log (store/wal.h);
// every applied op then commits to the log (checksummed, synced) before
// any in-memory effect, flushes seal + checkpoint the log, and Recover()
// rebuilds the exact acknowledged state after a crash.

#ifndef NDQ_STORE_DIRECTORY_STORE_H_
#define NDQ_STORE_DIRECTORY_STORE_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "core/ldif_update.h"
#include "store/entry_store.h"
#include "store/stats.h"

namespace ndq {

class Wal;

/// One mutation of an update batch (DirectoryStore::Apply).
struct UpdateOp {
  enum class Kind {
    kAdd,    ///< insert; fails with AlreadyExists if the dn is bound
    kPut,    ///< insert or replace
    kRemove  ///< delete; fails with NotFound / InvalidArgument (children)
  };
  Kind kind = Kind::kPut;
  Entry entry;  ///< kAdd / kPut payload
  Dn dn;        ///< kRemove target

  static UpdateOp Add(Entry e);
  static UpdateOp Put(Entry e);
  static UpdateOp Remove(Dn dn);
};

/// An ordered list of mutations, applied as one state transition: a
/// concurrent reader sees all of the ops that applied or none of them.
/// Each op is individually atomic (it either fully applies or leaves the
/// store untouched) and sees the ops before it. The batch itself is NOT a
/// transaction — a failed op does not undo earlier ones and later ops
/// still run, exactly like a stream of LDAP updates.
struct UpdateBatch {
  std::vector<UpdateOp> ops;

  void Add(Entry e) { ops.push_back(UpdateOp::Add(std::move(e))); }
  void Put(Entry e) { ops.push_back(UpdateOp::Put(std::move(e))); }
  void Remove(Dn dn) { ops.push_back(UpdateOp::Remove(std::move(dn))); }
  bool empty() const { return ops.empty(); }
  size_t size() const { return ops.size(); }
};

struct UpdateResult {
  /// The first per-op error (OK when every op applied).
  Status status;
  /// Ops that took effect. They became visible together: a snapshot
  /// pinned before the batch published sees none of them, one pinned
  /// after sees all of them.
  size_t applied = 0;
  /// Per-op status, in batch order.
  std::vector<Status> op_status;

  bool ok() const { return status.ok(); }
};

struct DirectoryStoreOptions {
  /// Memtable flush threshold (entries + tombstones).
  size_t memtable_limit = 1024;
  /// Validate entries against the schema on write.
  bool validate = true;
  /// Compact automatically when the segment stack reaches this depth. A
  /// flush also compacts, whatever the depth, once the segments' dead
  /// records reach DirectoryStore::kMaxDeadFraction of the live entries.
  size_t max_segments = 8;
};

/// Maintenance work since the store was built (relaxed counters).
struct MaintenanceCounters {
  uint64_t flushes = 0;            ///< flushed segments installed
  uint64_t compactions = 0;        ///< compactions installed
  uint64_t records_rewritten = 0;  ///< records the compactions wrote
};

class DirectoryStore : public EntrySource, public UpdateTarget {
 public:
  /// A flush compacts once the segments hold this many dead records
  /// (shadowed versions and tombstones: their records minus the live
  /// entries) per live entry. Space, and the records any range scan reads
  /// per live one, then stay within 1 + kMaxDeadFraction whatever the
  /// writer's pace. A key-ordered load of fresh keys leaves no dead
  /// records, so it compacts only at max_segments.
  static constexpr double kMaxDeadFraction = 0.25;

  DirectoryStore(Disk* disk, Schema schema,
                 DirectoryStoreOptions options = {});
  /// Waits for in-flight maintenance; every snapshot must already be
  /// released. Frees no page: a durable store's segments stay on the disk
  /// for Recover().
  ~DirectoryStore() override;

  /// Attaches a write-ahead log to an EMPTY store on a fresh disk (the
  /// superblock claims page 0). Subsequent mutations are durable.
  Status EnableDurability();

  /// Constructs an empty durable store (EnableDurability included).
  static Result<std::unique_ptr<DirectoryStore>> CreateDurable(
      Disk* disk, Schema schema, DirectoryStoreOptions options = {});

  /// Rebuilds a durable store from the disk after a crash or restart:
  /// re-attaches the checkpointed segments, replays the log tail,
  /// rebuilds statistics, and checkpoints. The recovered state contains
  /// exactly the acknowledged mutations.
  static Result<std::unique_ptr<DirectoryStore>> Recover(
      Disk* disk, Schema schema, DirectoryStoreOptions options = {});

  /// Applies `batch` as one state transition: copies the published state
  /// once (at the first op that applies), applies every op to that working
  /// copy in order, and publishes it with one version bump. Op k's checks
  /// read the working copy, so they see ops 0..k-1. On a durable store
  /// each op commits to the log before it touches the copy. A failed op
  /// (validation, I/O, log commit, a failed check) leaves no counter,
  /// statistic or memtable effect; the ops after it still run.
  UpdateResult Apply(const UpdateBatch& batch);

  /// One-op batches. Add fails with AlreadyExists if the dn is bound; Put
  /// adds or replaces; Remove fails with NotFound if the entry is absent
  /// and with InvalidArgument if it has descendants (namespaces stay
  /// prefix-closed, as in LDAP).
  Status Add(Entry entry);
  Status Put(Entry entry);
  Status Remove(const Dn& dn);

  /// Point lookup (memtable-over-segments, newest wins).
  Result<std::optional<Entry>> Get(const Dn& dn) const;

  // UpdateTarget (drives core/ldif_update.h change streams).
  Status AddEntry(Entry entry) override { return Add(std::move(entry)); }
  Status DeleteEntry(const Dn& dn) override { return Remove(dn); }
  Result<std::optional<Entry>> GetEntry(const Dn& dn) override {
    return Get(dn);
  }
  Status ReplaceEntry(Entry entry) override { return Put(std::move(entry)); }

  using EntrySource::ScanRange;

  /// Merged key-ordered scan (EntrySource) over a snapshot taken at call
  /// time; concurrent mutations do not affect an in-progress scan. It
  /// reads every record of the range: segments carry no page synopses,
  /// and a merge may skip no page, since a newer segment's version
  /// shadows an older one's.
  Status ScanRange(std::string_view start_key, std::string_view end_key,
                   ScanFilters filters, const RecordFn& fn,
                   uint64_t* skipped_pages) const override;

  uint64_t num_entries() const override;
  /// Maintained exactly across applied ops and refreshed from segment
  /// build-time statistics on compaction, so estimate quality does not
  /// drift under remove/re-add churn. The pointer is only stable while no
  /// concurrent mutation runs — concurrent callers must read through
  /// PinSnapshot()->stats().
  const StoreStats* stats() const override;

  /// Cost-model hooks: summed over segments (sparse indexes) plus the
  /// memtable span. Slight over-counts where versions shadow each other.
  RangeEstimate EstimateRange(std::string_view start_key,
                              std::string_view end_key,
                              ScanFilters filters) const override;

  /// The published state: scans, estimates, and stats all observe one
  /// version while writers proceed, and the segment pages it names stay
  /// allocated until it is released. Must be released before the store
  /// is destroyed.
  std::shared_ptr<const EntrySource> PinSnapshot() const override;

  /// Bumped once per published state transition: an update batch that
  /// applied at least one op, a flush's freeze and its install, a
  /// compaction, and DestroyAll.
  uint64_t version() const override;

  /// Writes the memtable out as a new segment. On failure the memtable
  /// contents stay readable (frozen) and the next flush retries.
  Status Flush();

  /// Merges everything into a single segment, dropping shadowed versions
  /// and tombstones, refreshes statistics, and retires the old segments:
  /// each frees its pages when the last state naming it is released. When
  /// no snapshot names them, that is before Compact returns, and a failed
  /// free is its status; otherwise the free runs at the last such
  /// snapshot's release and a failure lands in maintenance_status().
  Status Compact();

  size_t num_segments() const;
  size_t memtable_size() const;
  const Schema& schema() const { return schema_; }

  /// Routes background maintenance (threshold-triggered flush/compact)
  /// through `executor` — e.g. Engine wires its thread pool dispatch.
  /// Without an executor, maintenance runs inline on the mutating thread
  /// (still after the triggering mutation has committed).
  void SetMaintenanceExecutor(
      std::function<void(std::function<void()>)> executor);

  /// First error of any background maintenance task (threshold flushes,
  /// a retired segment's free at a snapshot's release). Sticky until
  /// cleared. Mutations keep succeeding into the memtable while
  /// maintenance is failing.
  Status maintenance_status() const;
  void ClearMaintenanceStatus();

  /// Blocks until no scheduled maintenance task is pending or running.
  void WaitForMaintenance();

  /// Frees every page the store owns (segments + log). Teardown hook for
  /// leak-checked tests; requires quiescence (no snapshots, no queries).
  Status DestroyAll();

  /// Observability: pages currently owned by the log (0 when not durable)
  /// and records appended to it.
  uint64_t wal_pages() const;
  uint64_t wal_records() const;
  MaintenanceCounters maintenance_counters() const;

 private:
  struct Segment;
  struct StoreState;
  class MergedCursor;

  std::shared_ptr<const StoreState> SnapshotState() const;
  /// Publishes `next` as the following version; call with write_mu_ held.
  void Publish(std::shared_ptr<StoreState> next);

  /// Flush with maint_mu_ held; `allow_compact` gates the compaction a
  /// flush may trigger (off when called FROM compaction).
  Status FlushLocked(bool allow_compact);
  /// True at the max_segments cap or the kMaxDeadFraction bound.
  bool NeedsCompaction(const StoreState& state) const;
  Status CompactLocked();
  void MaybeScheduleMaintenance();
  void RunMaintenance();
  void RecordMaintenanceError(const Status& s);

  Disk* disk_;
  Schema schema_;
  DirectoryStoreOptions options_;

  /// Serializes every state transition: Apply, a flush's freeze and
  /// install, a compaction's install, EnableDurability and DestroyAll.
  /// Guards wal_. Lock order: maint_mu_, then write_mu_, then mu_.
  mutable std::mutex write_mu_;
  std::unique_ptr<Wal> wal_;

  /// Guards state_ and the maintenance bookkeeping; held briefly, never
  /// across I/O or a state copy, so readers pin snapshots without waiting
  /// on a writer.
  mutable std::mutex mu_;
  std::shared_ptr<const StoreState> state_;
  Status maintenance_status_;
  std::function<void(std::function<void()>)> maintenance_executor_;
  bool maintenance_scheduled_ = false;
  int maintenance_inflight_ = 0;
  std::condition_variable maintenance_cv_;

  /// Serializes Flush/Compact so segment building happens outside the
  /// other locks without two maintainers racing.
  std::mutex maint_mu_;

  std::atomic<uint64_t> flushes_{0};
  std::atomic<uint64_t> compactions_{0};
  std::atomic<uint64_t> records_rewritten_{0};
};

}  // namespace ndq

#endif  // NDQ_STORE_DIRECTORY_STORE_H_
