#include "store/directory_store.h"

#include <iterator>
#include <map>
#include <utility>

#include "storage/serde.h"
#include "store/wal.h"

namespace ndq {

namespace {

// Tombstone wire format, for the records a flush writes to a segment:
// the key followed by a marker varint no serialized entry can produce
// (attribute counts never reach 2^62).
constexpr uint64_t kTombstoneMarker = ~uint64_t{0} >> 2;

std::string MakeTombstoneRecord(std::string_view key) {
  std::string out;
  ByteWriter w(&out);
  w.PutString(key);
  w.PutVarint(kTombstoneMarker);
  return out;
}

bool IsTombstoneRecord(std::string_view record) {
  ByteReader r(record);
  Result<std::string_view> key = r.GetString();
  if (!key.ok()) return false;
  Result<uint64_t> marker = r.GetVarint();
  return marker.ok() && *marker == kTombstoneMarker;
}

}  // namespace

// A segment of the stack. Every state that names it shares it, so it is
// destroyed when the last of them is released. A segment a compaction
// replaced is retired and frees its pages then; any other frees nothing,
// because a durable store's segments must outlive the store for
// Recover().
struct DirectoryStore::Segment {
  explicit Segment(EntryStore s) : store(std::move(s)) {}
  Segment(const Segment&) = delete;
  Segment& operator=(const Segment&) = delete;
  ~Segment();

  EntryStore store;
  // Set by the compaction that retires the segment: the store whose
  // maintenance_status() takes a failed free.
  DirectoryStore* retired_by = nullptr;
};

// All mutable store state as one immutable value, and the snapshot a
// reader pins. A state transition copies the published version, edits
// the copy, and publishes it by swapping the shared_ptr under mu_;
// readers work against whichever version they pinned, so a query never
// observes a half-applied batch or a segment list mid-compaction.
struct DirectoryStore::StoreState : public EntrySource {
  // Key -> serialized entry, or empty string = tombstone.
  std::map<std::string, std::string> active;
  // Memtable frozen for an in-progress (or failed, pending retry) flush.
  // Read priority: active > frozen > segments newest-to-oldest.
  std::shared_ptr<const std::map<std::string, std::string>> frozen;
  std::vector<std::shared_ptr<Segment>> segments;  // oldest first
  uint64_t live_entries = 0;
  uint64_t state_version = 0;
  StoreStats store_stats;

  using EntrySource::ScanRange;

  /// Every record of the range: the merge skips no page.
  Status ScanRange(std::string_view start_key, std::string_view end_key,
                   ScanFilters filters, const RecordFn& fn,
                   uint64_t* skipped_pages) const override;
  uint64_t num_entries() const override { return live_entries; }
  const StoreStats* stats() const override { return &store_stats; }
  /// Summed over segments (sparse indexes) plus the memtable span.
  RangeEstimate EstimateRange(std::string_view start_key,
                              std::string_view end_key,
                              ScanFilters filters) const override;
  // PinSnapshot() keeps the default nullptr: a state is already a
  // snapshot, callers read it directly.
  uint64_t version() const override { return state_version; }

  Result<std::optional<Entry>> Get(const std::string& key) const;
  Result<bool> HasDescendants(const std::string& key) const;
};

// Newest-wins pull merge across one StoreState's version streams: active
// memtable, frozen memtable (if any), then segments newest to oldest.
class DirectoryStore::MergedCursor {
 public:
  MergedCursor(const DirectoryStore::StoreState& state,
               std::string_view start_key) {
    const std::string start(start_key);
    maps_.push_back({state.active.lower_bound(start), state.active.end()});
    if (state.frozen != nullptr) {
      maps_.push_back(
          {state.frozen->lower_bound(start), state.frozen->end()});
    }
    for (auto it = state.segments.rbegin(); it != state.segments.rend();
         ++it) {
      cursors_.emplace_back(&(*it)->store, start_key);
      primed_.push_back(false);
      done_.push_back(false);
    }
  }

  /// Advances to the next live (non-tombstone, non-shadowed) record.
  /// Returns false at end. record() valid after true.
  Result<bool> Next(bool include_tombstones = false) {
    while (true) {
      NDQ_ASSIGN_OR_RETURN(bool any, Step());
      if (!any) return false;
      if (!include_tombstones && IsTombstoneRecord(record_)) continue;
      return true;
    }
  }

  const std::string& record() const { return record_; }
  std::string_view key() const { return key_; }

 private:
  struct MapRange {
    std::map<std::string, std::string>::const_iterator it, end;
  };

  // One newest-wins step over the raw version streams.
  Result<bool> Step() {
    for (size_t i = 0; i < cursors_.size(); ++i) {
      if (!primed_[i]) {
        NDQ_ASSIGN_OR_RETURN(bool more, cursors_[i].Next());
        done_[i] = !more;
        primed_[i] = true;
      }
    }
    // Minimum key across sources.
    const std::string* min_key = nullptr;
    for (const MapRange& m : maps_) {
      if (m.it == m.end) continue;
      if (min_key == nullptr || m.it->first < *min_key) {
        min_key = &m.it->first;
      }
    }
    std::string cursor_key;
    for (size_t i = 0; i < cursors_.size(); ++i) {
      if (done_[i]) continue;
      if (min_key == nullptr ||
          std::string_view(cursors_[i].key()) < std::string_view(*min_key)) {
        cursor_key = std::string(cursors_[i].key());
        min_key = &cursor_key;
      }
    }
    if (min_key == nullptr) return false;
    std::string key = *min_key;

    // Pick the highest-priority version; advance every source at key.
    bool picked = false;
    for (MapRange& m : maps_) {
      if (m.it == m.end || m.it->first != key) continue;
      if (!picked) {
        record_ = m.it->second.empty() ? MakeTombstoneRecord(key)
                                       : m.it->second;
        picked = true;
      }
      ++m.it;
    }
    for (size_t i = 0; i < cursors_.size(); ++i) {
      if (done_[i] || cursors_[i].key() != key) continue;
      if (!picked) {
        record_ = cursors_[i].record();
        picked = true;
      }
      NDQ_ASSIGN_OR_RETURN(bool more, cursors_[i].Next());
      done_[i] = !more;
    }
    key_ = key;
    return picked;
  }

  std::vector<MapRange> maps_;  // priority order: active, then frozen
  std::vector<EntryStore::Cursor> cursors_;
  std::vector<bool> primed_, done_;
  std::string record_;
  std::string key_;
};

namespace {

// Memtable lookup outcome: found a record, found a tombstone, or absent.
enum class MemHit { kMiss, kTombstone, kRecord };

MemHit LookupMap(const std::map<std::string, std::string>& map,
                 const std::string& key, const std::string** record) {
  auto it = map.find(key);
  if (it == map.end()) return MemHit::kMiss;
  if (it->second.empty()) return MemHit::kTombstone;
  *record = &it->second;
  return MemHit::kRecord;
}

// While a compaction drops its references to the segments it retired,
// the status their frees on that thread report to; nullptr otherwise.
thread_local Status* compaction_free_status = nullptr;

}  // namespace

DirectoryStore::Segment::~Segment() {
  if (retired_by == nullptr) return;
  Status s = store.Destroy();
  if (compaction_free_status == nullptr) {
    retired_by->RecordMaintenanceError(s);
  } else if (compaction_free_status->ok()) {
    *compaction_free_status = s;
  }
}

DirectoryStore::DirectoryStore(Disk* disk, Schema schema,
                               DirectoryStoreOptions options)
    : disk_(disk),
      schema_(std::move(schema)),
      options_(options),
      state_(std::make_shared<StoreState>()) {}

DirectoryStore::~DirectoryStore() { WaitForMaintenance(); }

std::shared_ptr<const DirectoryStore::StoreState>
DirectoryStore::SnapshotState() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_;
}

void DirectoryStore::Publish(std::shared_ptr<StoreState> next) {
  std::shared_ptr<const StoreState> old;
  {
    std::lock_guard<std::mutex> lock(mu_);
    next->state_version = state_->state_version + 1;
    old = std::exchange(state_, std::move(next));
  }
  // `old` dies here, outside mu_, when no snapshot still holds it.
}

// ---------------------------------------------------------------------------
// Reads.

Result<std::optional<Entry>> DirectoryStore::StoreState::Get(
    const std::string& key) const {
  const std::string* record = nullptr;
  MemHit hit = LookupMap(active, key, &record);
  if (hit == MemHit::kMiss && frozen != nullptr) {
    hit = LookupMap(*frozen, key, &record);
  }
  if (hit == MemHit::kTombstone) return std::optional<Entry>();
  if (hit == MemHit::kRecord) {
    NDQ_ASSIGN_OR_RETURN(Entry e, DeserializeEntry(*record));
    return std::optional<Entry>(std::move(e));
  }
  const std::string end = KeyExactEnd(key);
  for (auto it = segments.rbegin(); it != segments.rend(); ++it) {
    std::optional<Entry> found;
    bool tombstoned = false;
    Status s = (*it)->store.ScanRange(
        key, end, [&](std::string_view rec) -> Status {
          if (IsTombstoneRecord(rec)) {
            tombstoned = true;
            return Status::OK();
          }
          NDQ_ASSIGN_OR_RETURN(Entry e, DeserializeEntry(rec));
          found = std::move(e);
          return Status::OK();
        });
    NDQ_RETURN_IF_ERROR(s);
    if (tombstoned) return std::optional<Entry>();
    if (found.has_value()) return found;
  }
  return std::optional<Entry>();
}

Result<bool> DirectoryStore::StoreState::HasDescendants(
    const std::string& key) const {
  MergedCursor cursor(*this, KeyDescendantsBegin(key));
  NDQ_ASSIGN_OR_RETURN(bool more, cursor.Next());
  if (!more) return false;
  return KeyIsAncestor(key, cursor.key());
}

Status DirectoryStore::StoreState::ScanRange(
    std::string_view start_key, std::string_view end_key, ScanFilters,
    const RecordFn& fn, uint64_t*) const {
  MergedCursor cursor(*this, start_key);
  while (true) {
    NDQ_ASSIGN_OR_RETURN(bool more, cursor.Next());
    if (!more) break;
    if (!end_key.empty() && cursor.key() >= end_key) break;
    NDQ_RETURN_IF_ERROR(fn(cursor.record()));
  }
  return Status::OK();
}

EntrySource::RangeEstimate DirectoryStore::StoreState::EstimateRange(
    std::string_view start_key, std::string_view end_key,
    ScanFilters) const {
  RangeEstimate total;
  for (const auto& seg : segments) {
    const RangeEstimate one = seg->store.EstimateRange(start_key, end_key, {});
    total.pages += one.pages;
    total.records += one.records;
  }
  auto span = [&](const std::map<std::string, std::string>& m) {
    auto lo = m.lower_bound(std::string(start_key));
    auto hi =
        end_key.empty() ? m.end() : m.lower_bound(std::string(end_key));
    return static_cast<uint64_t>(std::distance(lo, hi));
  };
  total.records += span(active);
  if (frozen != nullptr) total.records += span(*frozen);
  total.pages += 1;  // + the memtable (memory-resident)
  return total;
}

Result<std::optional<Entry>> DirectoryStore::Get(const Dn& dn) const {
  return SnapshotState()->Get(dn.HierKey());
}

Status DirectoryStore::ScanRange(std::string_view start_key,
                                 std::string_view end_key,
                                 ScanFilters filters, const RecordFn& fn,
                                 uint64_t* skipped_pages) const {
  return SnapshotState()->ScanRange(start_key, end_key, filters, fn,
                                    skipped_pages);
}

uint64_t DirectoryStore::num_entries() const {
  return SnapshotState()->live_entries;
}

const StoreStats* DirectoryStore::stats() const {
  // The pointer is into the current state; see the header caveat about
  // stability under concurrent mutations.
  std::lock_guard<std::mutex> lock(mu_);
  return &state_->store_stats;
}

EntrySource::RangeEstimate DirectoryStore::EstimateRange(
    std::string_view start_key, std::string_view end_key,
    ScanFilters filters) const {
  return SnapshotState()->EstimateRange(start_key, end_key, filters);
}

std::shared_ptr<const EntrySource> DirectoryStore::PinSnapshot() const {
  return SnapshotState();
}

uint64_t DirectoryStore::version() const {
  return SnapshotState()->state_version;
}

size_t DirectoryStore::num_segments() const {
  return SnapshotState()->segments.size();
}

size_t DirectoryStore::memtable_size() const {
  return SnapshotState()->active.size();
}

// ---------------------------------------------------------------------------
// Mutations.
//
// Protocol (docs/WRITE_PATH.md): validation and serialization run before
// any lock. Under write_mu_ each op then does its fallible work — the
// existence/descendant reads against the batch's working state (which
// touch segment pages), the WAL commit — before its first in-memory
// effect; the effect itself is infallible (map insert into the batch's
// exclusively-owned copy), so a failed op leaves no trace. The batch
// publishes once, after its last op.

UpdateOp UpdateOp::Add(Entry e) {
  UpdateOp op;
  op.kind = Kind::kAdd;
  op.entry = std::move(e);
  return op;
}

UpdateOp UpdateOp::Put(Entry e) {
  UpdateOp op;
  op.kind = Kind::kPut;
  op.entry = std::move(e);
  return op;
}

UpdateOp UpdateOp::Remove(Dn dn) {
  UpdateOp op;
  op.kind = Kind::kRemove;
  op.dn = std::move(dn);
  return op;
}

UpdateResult DirectoryStore::Apply(const UpdateBatch& batch) {
  const size_t n = batch.ops.size();
  UpdateResult res;
  res.op_status.resize(n);
  std::vector<std::string> keys(n), records(n);
  auto prepare = [this](const UpdateOp& op, std::string* key,
                        std::string* record) -> Status {
    if (op.kind == UpdateOp::Kind::kRemove) {
      *key = op.dn.HierKey();
      return Status::OK();
    }
    if (op.entry.dn().IsNull()) {
      return Status::InvalidArgument("cannot put entry with null dn");
    }
    if (options_.validate) {
      NDQ_RETURN_IF_ERROR(schema_.ValidateEntry(op.entry));
    }
    *key = op.entry.HierKey();
    SerializeEntry(op.entry, record);
    return Status::OK();
  };
  for (size_t i = 0; i < n; ++i) {
    res.op_status[i] = prepare(batch.ops[i], &keys[i], &records[i]);
  }

  bool trigger = false;
  {
    std::lock_guard<std::mutex> write(write_mu_);
    // Under write_mu_ no other transition can publish: `base` stays the
    // published state until this batch replaces it.
    const std::shared_ptr<const StoreState> base = SnapshotState();
    std::shared_ptr<StoreState> work;  // copied at the first op that applies
    auto apply_op = [&](const UpdateOp& op, const std::string& key,
                        std::string record) -> Status {
      const StoreState& cur = work != nullptr ? *work : *base;
      NDQ_ASSIGN_OR_RETURN(std::optional<Entry> existing, cur.Get(key));
      const bool remove = op.kind == UpdateOp::Kind::kRemove;
      if (remove) {
        if (!existing.has_value()) {
          return Status::NotFound("no entry named " + op.dn.ToString());
        }
        NDQ_ASSIGN_OR_RETURN(bool kids, cur.HasDescendants(key));
        if (kids) {
          return Status::InvalidArgument(
              "entry " + op.dn.ToString() +
              " has descendants; remove them first");
        }
      } else if (op.kind == UpdateOp::Kind::kAdd && existing.has_value()) {
        return Status::AlreadyExists("dn already bound: " +
                                     op.entry.dn().ToString());
      }
      if (wal_ != nullptr) {
        NDQ_RETURN_IF_ERROR(remove ? wal_->AppendRemove(key)
                                   : wal_->AppendPut(key, record));
      }
      if (work == nullptr) work = std::make_shared<StoreState>(*base);
      if (existing.has_value()) work->store_stats.RemoveEntry(*existing);
      if (remove) {
        work->active[key] = std::string();  // tombstone
        --work->live_entries;
      } else {
        work->store_stats.AddEntry(op.entry);
        work->active[key] = std::move(record);
        if (!existing.has_value()) ++work->live_entries;
      }
      return Status::OK();
    };
    for (size_t i = 0; i < n; ++i) {
      if (!res.op_status[i].ok()) continue;
      res.op_status[i] =
          apply_op(batch.ops[i], keys[i], std::move(records[i]));
    }
    if (work != nullptr) {
      trigger = work->active.size() >= options_.memtable_limit;
      Publish(std::move(work));
    }
  }
  for (const Status& s : res.op_status) {
    if (s.ok()) {
      ++res.applied;
    } else if (res.status.ok()) {
      res.status = s;
    }
  }
  if (trigger) MaybeScheduleMaintenance();
  return res;
}

Status DirectoryStore::Add(Entry entry) {
  UpdateBatch batch;
  batch.Add(std::move(entry));
  return Apply(batch).status;
}

Status DirectoryStore::Put(Entry entry) {
  UpdateBatch batch;
  batch.Put(std::move(entry));
  return Apply(batch).status;
}

Status DirectoryStore::Remove(const Dn& dn) {
  UpdateBatch batch;
  batch.Remove(dn);
  return Apply(batch).status;
}

// ---------------------------------------------------------------------------
// Maintenance: flush + compaction.

void DirectoryStore::SetMaintenanceExecutor(
    std::function<void(std::function<void()>)> executor) {
  std::lock_guard<std::mutex> lock(mu_);
  maintenance_executor_ = std::move(executor);
}

Status DirectoryStore::maintenance_status() const {
  std::lock_guard<std::mutex> lock(mu_);
  return maintenance_status_;
}

void DirectoryStore::ClearMaintenanceStatus() {
  std::lock_guard<std::mutex> lock(mu_);
  maintenance_status_ = Status::OK();
}

void DirectoryStore::RecordMaintenanceError(const Status& s) {
  if (s.ok()) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (maintenance_status_.ok()) maintenance_status_ = s;
}

void DirectoryStore::WaitForMaintenance() {
  std::unique_lock<std::mutex> lock(mu_);
  maintenance_cv_.wait(lock, [this] {
    return !maintenance_scheduled_ && maintenance_inflight_ == 0;
  });
}

void DirectoryStore::MaybeScheduleMaintenance() {
  std::function<void(std::function<void()>)> exec;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (maintenance_scheduled_) return;
    maintenance_scheduled_ = true;
    ++maintenance_inflight_;
    exec = maintenance_executor_;
  }
  auto task = [this] { RunMaintenance(); };
  if (exec != nullptr) {
    exec(std::move(task));
  } else {
    task();
  }
}

void DirectoryStore::RunMaintenance() {
  Status s;
  {
    std::lock_guard<std::mutex> maint(maint_mu_);
    {
      // Clear the dedupe flag before flushing: a mutation landing during
      // this flush can schedule the next round.
      std::lock_guard<std::mutex> lock(mu_);
      maintenance_scheduled_ = false;
    }
    s = FlushLocked(/*allow_compact=*/true);
  }
  RecordMaintenanceError(s);
  {
    std::lock_guard<std::mutex> lock(mu_);
    --maintenance_inflight_;
  }
  maintenance_cv_.notify_all();
}

Status DirectoryStore::Flush() {
  std::lock_guard<std::mutex> maint(maint_mu_);
  return FlushLocked(/*allow_compact=*/true);
}

Status DirectoryStore::FlushLocked(bool allow_compact) {
  // Phase 1 — freeze: seal the log at the exact freeze point, then move
  // the active memtable into the (immutable) frozen slot. A frozen
  // memtable left over from a failed flush is retried as-is; it stays
  // fully readable either way via the merge priority.
  std::shared_ptr<const std::map<std::string, std::string>> frozen;
  {
    std::lock_guard<std::mutex> write(write_mu_);
    std::shared_ptr<const StoreState> cur = SnapshotState();
    if (cur->active.empty() && cur->frozen == nullptr) return Status::OK();
    frozen = cur->frozen;
    if (frozen == nullptr) {
      if (wal_ != nullptr) NDQ_RETURN_IF_ERROR(wal_->Seal());
      auto next = std::make_shared<StoreState>(*cur);
      next->frozen =
          std::make_shared<const std::map<std::string, std::string>>(
              std::move(next->active));
      next->active.clear();
      frozen = next->frozen;
      Publish(std::move(next));
    }
  }

  // Phase 2 — build the segment, outside every lock: queries and
  // mutations proceed while FromStream writes pages.
  auto it = frozen->begin();
  auto next = [&](std::string* record) -> Result<bool> {
    if (it == frozen->end()) return false;
    *record =
        it->second.empty() ? MakeTombstoneRecord(it->first) : it->second;
    ++it;
    return true;
  };
  Result<EntryStore> built = EntryStore::FromStream(disk_, next);
  if (!built.ok()) return built.status();  // frozen stays; next flush retries
  auto segment = std::make_shared<Segment>(built.TakeValue());

  // Phase 3 — checkpoint + install. The checkpoint must cover the NEW
  // segment list; on checkpoint failure the segment is destroyed and the
  // frozen memtable stays (still covered by the sealed log prefix).
  {
    std::lock_guard<std::mutex> write(write_mu_);
    std::shared_ptr<const StoreState> cur = SnapshotState();
    if (wal_ != nullptr) {
      std::vector<std::string> manifests;
      manifests.reserve(cur->segments.size() + 1);
      for (const auto& seg : cur->segments) {
        manifests.push_back(seg->store.SerializeManifest());
      }
      manifests.push_back(segment->store.SerializeManifest());
      Status cs = wal_->Checkpoint(manifests);
      if (!cs.ok()) {
        Status ds = segment->store.Destroy();
        if (!ds.ok()) {
          return cs.WithContext("segment cleanup also failed (" +
                                ds.message() + ")");
        }
        return cs;
      }
    }
    auto next = std::make_shared<StoreState>(*cur);
    next->segments.push_back(std::move(segment));
    next->frozen = nullptr;
    Publish(std::move(next));
  }
  flushes_.fetch_add(1, std::memory_order_relaxed);

  if (allow_compact && NeedsCompaction(*SnapshotState())) {
    return CompactLocked();
  }
  return Status::OK();
}

bool DirectoryStore::NeedsCompaction(const StoreState& state) const {
  if (state.segments.size() >= options_.max_segments) return true;
  // Live entries the active memtable adds make this an undercount until
  // the next flush, which checks again.
  uint64_t records = 0;
  for (const auto& seg : state.segments) records += seg->store.num_entries();
  if (records <= state.live_entries) return false;
  const uint64_t dead = records - state.live_entries;
  return static_cast<double>(dead) >=
         kMaxDeadFraction * static_cast<double>(state.live_entries);
}

Status DirectoryStore::Compact() {
  std::lock_guard<std::mutex> maint(maint_mu_);
  NDQ_RETURN_IF_ERROR(FlushLocked(/*allow_compact=*/false));
  return CompactLocked();
}

Status DirectoryStore::CompactLocked() {
  // The memtable was flushed under this maint_mu_ hold, so the merge
  // covers segments only; any newer mutations live in the active memtable
  // and shadow the merged segment by read priority. Only a compaction
  // replaces segments, and maint_mu_ is held, so the published list stays
  // `old_segments` until the install below.
  std::vector<std::shared_ptr<Segment>> old_segments =
      SnapshotState()->segments;
  if (old_segments.size() <= 1) return Status::OK();

  // The merged records (tombstones and shadowed versions already gone)
  // fold into fresh statistics as they stream into the new segment.
  StoreStats fresh;
  std::shared_ptr<Segment> merged;
  {
    StoreState merge_view;  // segments only: no memtables
    merge_view.segments = old_segments;
    MergedCursor cursor(merge_view, "");
    auto next = [&](std::string* record) -> Result<bool> {
      NDQ_ASSIGN_OR_RETURN(bool more, cursor.Next());
      if (!more) return false;
      *record = cursor.record();
      NDQ_RETURN_IF_ERROR(fresh.AddRecord(*record));
      return true;
    };
    NDQ_ASSIGN_OR_RETURN(EntryStore built,
                         EntryStore::FromStream(disk_, next));
    merged = std::make_shared<Segment>(std::move(built));
  }

  // Install the merged segment; only then retire the old ones.
  {
    std::lock_guard<std::mutex> write(write_mu_);
    if (wal_ != nullptr) {
      Status cs = wal_->Checkpoint({merged->store.SerializeManifest()});
      if (!cs.ok()) {
        Status ds = merged->store.Destroy();
        if (!ds.ok()) {
          return cs.WithContext("segment cleanup also failed (" +
                                ds.message() + ")");
        }
        return cs;
      }
    }
    auto next = std::make_shared<StoreState>(*SnapshotState());
    next->segments = {merged};
    // Refresh statistics from the merged stream's exact fold plus the
    // current memtable contents re-applied on top. Memtable records
    // shadowing merged entries double-count — an over-count, which keeps
    // the estimates upper bounds. Without this refresh, remove/re-add
    // churn degrades the incremental stats without bound.
    bool ok = true;
    for (const auto& [k, rec] : next->active) {
      (void)k;
      if (rec.empty()) continue;  // tombstone: nothing to add
      if (!fresh.AddRecord(rec).ok()) {
        ok = false;
        break;
      }
    }
    if (ok) next->store_stats = std::move(fresh);
    Publish(std::move(next));
  }
  compactions_.fetch_add(1, std::memory_order_relaxed);
  records_rewritten_.fetch_add(merged->store.num_entries(),
                               std::memory_order_relaxed);

  // Retire the old segments. `old_segments` is now this call's only
  // reference to them unless a snapshot still names them, so clearing it
  // frees their pages here, and a failed free is this call's status; a
  // snapshot's release frees them later, into maintenance_status().
  Status freed;
  for (const auto& seg : old_segments) seg->retired_by = this;
  compaction_free_status = &freed;
  old_segments.clear();
  compaction_free_status = nullptr;
  return freed;
}

// ---------------------------------------------------------------------------
// Durability.

Status DirectoryStore::EnableDurability() {
  std::lock_guard<std::mutex> maint(maint_mu_);
  std::lock_guard<std::mutex> write(write_mu_);
  if (wal_ != nullptr) {
    return Status::InvalidArgument("store is already durable");
  }
  std::shared_ptr<const StoreState> cur = SnapshotState();
  if (!cur->active.empty() || cur->frozen != nullptr ||
      !cur->segments.empty()) {
    return Status::InvalidArgument(
        "durability must be enabled on an empty store");
  }
  auto wal = std::make_unique<Wal>(disk_);
  NDQ_RETURN_IF_ERROR(wal->Create());
  wal_ = std::move(wal);
  return Status::OK();
}

Result<std::unique_ptr<DirectoryStore>> DirectoryStore::CreateDurable(
    Disk* disk, Schema schema, DirectoryStoreOptions options) {
  auto store =
      std::make_unique<DirectoryStore>(disk, std::move(schema), options);
  NDQ_RETURN_IF_ERROR(store->EnableDurability());
  return store;
}

Result<std::unique_ptr<DirectoryStore>> DirectoryStore::Recover(
    Disk* disk, Schema schema, DirectoryStoreOptions options) {
  Wal::Recovered recovered;
  NDQ_ASSIGN_OR_RETURN(std::unique_ptr<Wal> wal,
                       Wal::Recover(disk, &recovered));

  auto store =
      std::make_unique<DirectoryStore>(disk, std::move(schema), options);
  auto state = std::make_shared<StoreState>();
  for (const std::string& manifest : recovered.manifests) {
    NDQ_ASSIGN_OR_RETURN(EntryStore seg,
                         EntryStore::FromManifest(disk, manifest));
    state->segments.push_back(std::make_shared<Segment>(std::move(seg)));
  }
  state->active = std::move(recovered.memtable);

  // Rebuild live count + statistics with one merged scan over the
  // recovered state (manifest-attached segments carry no stats of their
  // own).
  {
    MergedCursor cursor(*state, "");
    while (true) {
      NDQ_ASSIGN_OR_RETURN(bool more, cursor.Next());
      if (!more) break;
      ++state->live_entries;
      NDQ_RETURN_IF_ERROR(state->store_stats.AddRecord(cursor.record()));
    }
  }
  // Fold the replayed tail into a durable segment and checkpoint, retiring
  // the pre-crash chain. (The log refuses appends until this checkpoint.)
  const bool empty_tail = state->active.empty();
  Status s;
  {
    std::lock_guard<std::mutex> maint(store->maint_mu_);
    {
      std::lock_guard<std::mutex> write(store->write_mu_);
      if (empty_tail) {
        // Nothing to flush; republish the recovered manifests as-is.
        std::vector<std::string> manifests;
        for (const auto& seg : state->segments) {
          manifests.push_back(seg->store.SerializeManifest());
        }
        s = wal->Checkpoint(manifests);
      }
      store->wal_ = std::move(wal);
      store->Publish(std::move(state));
    }
    // Seal no-ops (no records on the fresh post-recovery chain), so the
    // flush checkpoint covers everything acknowledged.
    if (!empty_tail) s = store->FlushLocked(/*allow_compact=*/true);
  }
  NDQ_RETURN_IF_ERROR(s);
  return store;
}

Status DirectoryStore::DestroyAll() {
  WaitForMaintenance();
  std::lock_guard<std::mutex> maint(maint_mu_);
  std::lock_guard<std::mutex> write(write_mu_);
  std::shared_ptr<const StoreState> snap = SnapshotState();
  Publish(std::make_shared<StoreState>());
  Status agg;
  for (const auto& seg : snap->segments) {
    Status ds = seg->store.Destroy();
    if (!ds.ok() && agg.ok()) agg = ds;
  }
  if (wal_ != nullptr) {
    Status ws = wal_->DestroyAll();
    if (!ws.ok() && agg.ok()) agg = ws;
    wal_.reset();
  }
  return agg;
}

uint64_t DirectoryStore::wal_pages() const {
  std::lock_guard<std::mutex> write(write_mu_);
  return wal_ == nullptr ? 0 : wal_->chain_pages();
}

uint64_t DirectoryStore::wal_records() const {
  std::lock_guard<std::mutex> write(write_mu_);
  return wal_ == nullptr ? 0 : wal_->records_appended();
}

MaintenanceCounters DirectoryStore::maintenance_counters() const {
  MaintenanceCounters c;
  c.flushes = flushes_.load(std::memory_order_relaxed);
  c.compactions = compactions_.load(std::memory_order_relaxed);
  c.records_rewritten = records_rewritten_.load(std::memory_order_relaxed);
  return c;
}

}  // namespace ndq
