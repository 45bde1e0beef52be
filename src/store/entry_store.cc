#include "store/entry_store.h"

#include <algorithm>

#include "storage/serde.h"
#include "store/stats.h"

namespace ndq {

template <typename Pull>
Status EntryStore::BuildFrom(Disk* disk, Pull&& next) {
  disk_ = disk;
  const size_t page_size = disk->page_size();
  // Entry records are keyed (HierKey first field), so the segment is
  // written with key-aware prefix compression. Page restarts make the
  // first record starting in each page a restart, so every seek the
  // sparse index makes lands on one.
  RunWriter writer(disk, PageFormat::kKeyPrefix);
  writer.set_page_restarts(true);

  std::string record;
  std::string prev_key;
  while (true) {
    // The record starts where the payload ends; FlushPage keeps that
    // short of a full page between Adds.
    NDQ_ASSIGN_OR_RETURN(bool more, next(&record, writer.payload_bytes()));
    if (!more) break;
    NDQ_ASSIGN_OR_RETURN(std::string_view key, PeekEntryKey(record));
    if (writer.num_records() > 0 && !(prev_key < key)) {
      return Status::InvalidArgument(
          "entry records not in strictly increasing key order");
    }
    prev_key.assign(key);
    NDQ_RETURN_IF_ERROR(writer.Add(record));
    // A record that restarts in a page past the last keyed one is the
    // first to start there; the pages before it that no record starts in
    // repeat the previous key, so a binary search lands before them.
    const uint64_t page = writer.restarts().back().offset / page_size;
    if (page >= first_keys_.size()) {
      while (first_keys_.size() < page) {
        first_keys_.push_back(first_keys_.back());
      }
      first_keys_.emplace_back(key);
    }
  }
  NDQ_ASSIGN_OR_RETURN(run_, writer.Finish());
  // Nor does any record start in the trailing pages a last record spans.
  while (first_keys_.size() < run_.pages.size()) {
    first_keys_.push_back(first_keys_.back());
  }
  return Status::OK();
}

Result<EntryStore> EntryStore::BulkLoad(Disk* disk,
                                        const DirectoryInstance& instance) {
  // The statistics and the synopsis of the page the entry starts in fold
  // from each entry, in one walk over its attributes, as it is handed
  // over for serialization, so no record is decoded back.
  auto stats = std::make_shared<StoreStats>();
  PageSynopses::Builder synopses;
  auto it = instance.begin();
  EntryStore store;
  // A failed build leaks nothing: the writer frees the pages of a run it
  // never finished, and the partial index goes with `store`.
  NDQ_RETURN_IF_ERROR(store.BuildFrom(
      disk, [&](std::string* record, uint64_t offset) -> Result<bool> {
        if (it == instance.end()) return false;
        const Entry& entry = (it++)->second;
        synopses.StartRecord(offset / disk->page_size());
        stats->AddEntry(entry, &synopses);
        record->clear();
        SerializeEntry(entry, record);
        return true;
      }));
  store.stats_ = std::move(stats);
  store.synopses_ =
      std::make_shared<const PageSynopses>(synopses.Finish(store.num_pages()));
  return store;
}

Result<EntryStore> EntryStore::FromEntries(
    Disk* disk, const std::function<const Entry*()>& next) {
  EntryStore store;
  NDQ_RETURN_IF_ERROR(
      store.BuildFrom(disk, [&](std::string* record, uint64_t) -> Result<bool> {
        const Entry* entry = next();
        if (entry == nullptr) return false;
        record->clear();
        SerializeEntry(*entry, record);
        return true;
      }));
  return store;
}

Result<EntryStore> EntryStore::FromStream(
    Disk* disk, const std::function<Result<bool>(std::string*)>& next) {
  EntryStore store;
  NDQ_RETURN_IF_ERROR(store.BuildFrom(
      disk, [&](std::string* record, uint64_t) { return next(record); }));
  return store;
}

Result<EntryStore> EntryStore::CopyTo(Disk* disk) const {
  if (disk_ == nullptr) {
    return Status::InvalidArgument("segment copy needs a built segment");
  }
  EntryStore copy = *this;  // sparse index, shared stats and synopses
  copy.disk_ = disk;
  NDQ_ASSIGN_OR_RETURN(copy.run_, CopyRun(disk_, run_, disk));
  return copy;
}

namespace {

// Index of the last page whose first-starting key is <= key (0 if none).
size_t PageLowerBound(const std::vector<std::string>& first_keys,
                      std::string_view key) {
  size_t a = 0, b = first_keys.size();
  while (a < b) {
    size_t mid = (a + b) / 2;
    if (first_keys[mid] <= key) {
      a = mid + 1;
    } else {
      b = mid;
    }
  }
  return a == 0 ? 0 : a - 1;
}

// The first of `run`'s restarts at or past byte `offset`; at a page start
// of a run written with page restarts, the first record starting there
// or later.
std::vector<RunRestart>::const_iterator RestartFrom(const Run& run,
                                                   uint64_t offset) {
  return std::lower_bound(
      run.restarts.begin(), run.restarts.end(), offset,
      [](const RunRestart& r, uint64_t at) { return r.offset < at; });
}

}  // namespace

std::vector<RunRestart>::const_iterator EntryStore::StartRestart(
    std::string_view key) const {
  // The last restart before the end of the key's page sits in the last
  // page at or before it that a record starts in (a page without one is
  // covered by a record that began earlier); that page's first restart
  // is its first record.
  const uint64_t page_size = disk_->page_size();
  const uint64_t page = PageLowerBound(first_keys_, key);
  const uint64_t start_page =
      std::prev(RestartFrom(run_, (page + 1) * page_size))->offset /
      page_size;
  return RestartFrom(run_, start_page * page_size);
}

// The pages one range scan reads. A start page (one a record starts in)
// is admitted when the probe may match a record there: every one when the
// probe admits all, else only up to the last page the range can start a
// record in. The scan reads each admitted start page and the pages its
// records run on to; After() walks those pages in order, up to that last
// page, for the prefetcher and the estimates.
class EntryStore::PagePlan {
 public:
  using RestartIt = std::vector<RunRestart>::const_iterator;

  PagePlan(const EntryStore& store, std::string_view start_key,
           std::string_view end_key, ScanFilters filters)
      : run_(store.run_),
        page_size_(store.disk_->page_size()),
        probe_(store.synopses_.get(), filters),
        last_(end_key.empty() ? run_.pages.size() - 1
                              : PageLowerBound(store.first_keys_, end_key)),
        first_(store.StartRestart(start_key)) {}

  bool selective() const { return probe_.selective(); }
  size_t last() const { return last_; }
  RestartIt first() const { return first_; }
  RestartIt end() const { return run_.restarts.end(); }
  size_t PageOf(RestartIt it) const { return it->offset / page_size_; }

  /// The first restart of the start page after page `page`, from `it`
  /// in it: a few restarts on, so a walk beats a binary search.
  RestartIt NextStart(RestartIt it, size_t page) const {
    const uint64_t limit = (page + 1) * page_size_;
    while (it != end() && it->offset < limit) ++it;
    return it;
  }
  RestartIt NextStart(RestartIt it) const {
    return NextStart(it, PageOf(it));
  }

  /// The first admitted start page from the one `it` begins (a page's
  /// first restart, or the end) on, as its first restart; end() if none.
  RestartIt NextAdmitted(RestartIt it) const {
    while (it != end()) {
      const size_t page = PageOf(it);
      if (probe_.selective() && page > last_) break;
      if (probe_.MayMatch(page)) return it;
      it = NextStart(it, page);
    }
    return end();
  }

  /// The page read after page `page` up to last(), or SIZE_MAX.
  size_t After(size_t page) const {
    const size_t next = page + 1;
    if (next > last_) return SIZE_MAX;
    // The records over page next's first byte start in `owner`, the page
    // of the last restart before it (restart 0 sits at offset 0).
    const RestartIt it = RestartFrom(run_, next * page_size_);
    const size_t owner = PageOf(std::prev(it));
    if ((it == end() || it->offset > next * page_size_) &&
        probe_.MayMatch(owner)) {
      return next;
    }
    const RestartIt at = NextAdmitted(it);
    return at == end() ? SIZE_MAX : PageOf(at);
  }

 private:
  const Run& run_;
  const uint64_t page_size_;
  const PageSynopses::Probe probe_;
  const size_t last_;
  const RestartIt first_;
};

Status EntryStore::ScanRange(std::string_view start_key,
                             std::string_view end_key, ScanFilters filters,
                             const RecordFn& fn,
                             uint64_t* skipped_pages) const {
  Cursor cursor(this, start_key, end_key, filters);
  Status status;
  while (true) {
    Result<bool> more = cursor.Next();
    if (!more.ok()) {
      status = more.status();
      break;
    }
    if (!*more || (!end_key.empty() && cursor.key() >= end_key)) break;
    status = fn(cursor.record());
    if (!status.ok()) break;
  }
  if (skipped_pages != nullptr) *skipped_pages += cursor.skipped_pages();
  return status;
}

EntryStore::Cursor::Cursor() = default;
EntryStore::Cursor::~Cursor() = default;
EntryStore::Cursor::Cursor(Cursor&&) noexcept = default;
EntryStore::Cursor& EntryStore::Cursor::operator=(Cursor&&) noexcept =
    default;

EntryStore::Cursor::Cursor(const EntryStore* store,
                           std::string_view start_key,
                           std::string_view end_key, ScanFilters filters)
    : store_(store), start_key_(start_key) {
  if (store->run_.num_records > 0) {
    plan_ = std::make_unique<PagePlan>(*store, start_key, end_key, filters);
  }
}

Result<bool> EntryStore::Cursor::Enter(PagePlan::RestartIt from) {
  const PagePlan& plan = *plan_;
  const PagePlan::RestartIt at = plan.NextAdmitted(from);
  // Pages of the range neither read nor to be read: from the one `from`
  // begins (or the first the reader has not loaded) to the one entered,
  // or past the range's last page when none is left.
  if (from != plan.end()) {
    size_t passed = plan.PageOf(from);
    if (reader_ != nullptr) passed = std::max(passed, reader_->next_page());
    const size_t to = at != plan.end() ? plan.PageOf(at)
                                       : std::max(passed, plan.last() + 1);
    if (to > passed) skipped_ += to - passed;
  }
  if (at == plan.end()) return false;
  // The reader reads on into an admitted next start page. A seek lands
  // past it, in a page the reader has not loaded (it holds at most the
  // page `from` begins), so no page is read twice.
  if (reader_ == nullptr) {
    reader_ = std::make_unique<RunReader>(
        store_->disk_, store_->run_, plan.PageOf(at),
        [&plan](size_t page) { return plan.After(page); });
    NDQ_RETURN_IF_ERROR(reader_->SeekTo(*at));
  } else if (at != from) {
    NDQ_RETURN_IF_ERROR(reader_->SeekTo(*at));
  }
  next_page_ = plan.NextStart(at);
  next_page_record_ = next_page_ == plan.end() ? store_->run_.num_records
                                                : next_page_->record;
  return true;
}

Result<bool> EntryStore::Cursor::Next() {
  if (plan_ == nullptr) return false;
  if (!primed_) {
    primed_ = true;
    // Records before start_key_ in the first page are skipped below.
    NDQ_ASSIGN_OR_RETURN(bool more, Enter(plan_->first()));
    if (!more) return false;
  }
  if (reader_ == nullptr) return false;
  while (true) {
    if (reader_->records_read() == next_page_record_ &&
        next_page_ != plan_->end()) {
      NDQ_ASSIGN_OR_RETURN(bool more, Enter(next_page_));
      if (!more) {
        reader_.reset();
        return false;
      }
    }
    NDQ_ASSIGN_OR_RETURN(bool more, reader_->Next(&record_));
    if (!more) {
      reader_.reset();
      return false;
    }
    NDQ_ASSIGN_OR_RETURN(key_, PeekEntryKey(record_));
    if (key_ >= start_key_) return true;
  }
}

EntrySource::RangeEstimate EntryStore::EstimateRange(
    std::string_view start_key, std::string_view end_key,
    ScanFilters filters) const {
  if (run_.num_records == 0) return {};
  const PagePlan plan(*this, start_key, end_key, filters);
  auto record_at = [&](PagePlan::RestartIt it) {
    return it == plan.end() ? run_.num_records : it->record;
  };
  RangeEstimate est;
  if (plan.selective()) {
    // The pages After() walks, each once: every admitted start page and
    // the pages its records run onto, up to the last page; and the
    // records starting in the admitted pages.
    size_t unread = 0;  // the first page no earlier span covers
    for (PagePlan::RestartIt at = plan.NextAdmitted(plan.first());
         at != plan.end();) {
      const PagePlan::RestartIt next = plan.NextStart(at);
      est.records += record_at(next) - at->record;
      const uint64_t span_end =
          next == plan.end() ? run_.payload_bytes : next->offset;
      const size_t last =
          std::min<size_t>((span_end - 1) / disk_->page_size(), plan.last());
      const size_t from = std::max(plan.PageOf(at), unread);
      if (last >= from) est.pages += last - from + 1;
      unread = std::max(unread, last + 1);
      at = plan.NextAdmitted(next);
    }
    return est;
  }
  // From the page the scan starts at (StartRestart backs up to it) to the
  // last page the range reaches, and the records starting in them.
  const size_t lo = plan.PageOf(plan.first());
  const size_t hi = end_key.empty() ? run_.pages.size() : plan.last() + 1;
  est.pages = hi > lo ? hi - lo : 1;
  const uint64_t lo_rec = plan.first()->record;
  const uint64_t hi_rec =
      record_at(RestartFrom(run_, (plan.last() + 1) * disk_->page_size()));
  est.records = hi_rec > lo_rec ? hi_rec - lo_rec : 1;
  return est;
}

Result<std::optional<Entry>> EntryStore::Get(std::string_view hier_key) const {
  std::optional<Entry> found;
  std::string end = KeyExactEnd(hier_key);
  Status s = ScanRange(hier_key, end, [&](std::string_view record) -> Status {
    NDQ_ASSIGN_OR_RETURN(Entry e, DeserializeEntry(record));
    found = std::move(e);
    return Status::OK();
  });
  NDQ_RETURN_IF_ERROR(s);
  return found;
}

std::string EntryStore::SerializeManifest() const {
  std::string out;
  ByteWriter w(&out);
  w.PutString("ndqseg3");
  w.PutU8(static_cast<uint8_t>(run_.format));
  w.PutVarint(run_.num_records);
  w.PutVarint(run_.payload_bytes);
  w.PutVarint(run_.pages.size());
  for (PageId p : run_.pages) w.PutVarint(p);
  w.PutVarint(run_.restarts.size());
  for (const RunRestart& r : run_.restarts) {
    w.PutVarint(r.record);
    w.PutVarint(r.offset);
  }
  w.PutVarint(first_keys_.size());
  for (const std::string& key : first_keys_) w.PutString(key);
  return out;
}

Result<EntryStore> EntryStore::FromManifest(Disk* disk,
                                            std::string_view manifest) {
  ByteReader r(manifest);
  NDQ_ASSIGN_OR_RETURN(std::string_view magic, r.GetString());
  if (magic != "ndqseg3") {
    return Status::Corruption("bad entry-store manifest magic");
  }
  EntryStore store;
  store.disk_ = disk;
  NDQ_ASSIGN_OR_RETURN(uint8_t fmt, r.GetU8());
  if (fmt != static_cast<uint8_t>(PageFormat::kPrefix) &&
      fmt != static_cast<uint8_t>(PageFormat::kKeyPrefix)) {
    return Status::Corruption("bad entry-store manifest page format");
  }
  store.run_.format = static_cast<PageFormat>(fmt);
  NDQ_ASSIGN_OR_RETURN(store.run_.num_records, r.GetVarint());
  NDQ_ASSIGN_OR_RETURN(store.run_.payload_bytes, r.GetVarint());
  // Manifests come back from unchecksummed WAL pages: every page id,
  // restart and key takes at least one byte, so a count beyond the bytes
  // left is corrupt, and is rejected before it sizes an allocation.
  auto check_count = [&](uint64_t n) -> Status {
    if (n > manifest.size() - r.position()) {
      return Status::Corruption("entry-store manifest count past end");
    }
    return Status::OK();
  };
  NDQ_ASSIGN_OR_RETURN(uint64_t npages, r.GetVarint());
  NDQ_RETURN_IF_ERROR(check_count(npages));
  store.run_.pages.reserve(npages);
  for (uint64_t i = 0; i < npages; ++i) {
    NDQ_ASSIGN_OR_RETURN(uint64_t p, r.GetVarint());
    store.run_.pages.push_back(static_cast<PageId>(p));
  }
  NDQ_ASSIGN_OR_RETURN(uint64_t nrestarts, r.GetVarint());
  NDQ_RETURN_IF_ERROR(check_count(nrestarts));
  store.run_.restarts.resize(nrestarts);
  for (RunRestart& restart : store.run_.restarts) {
    NDQ_ASSIGN_OR_RETURN(restart.record, r.GetVarint());
    NDQ_ASSIGN_OR_RETURN(restart.offset, r.GetVarint());
  }
  NDQ_ASSIGN_OR_RETURN(uint64_t nkeys, r.GetVarint());
  NDQ_RETURN_IF_ERROR(check_count(nkeys));
  if (nkeys != npages) {
    return Status::Corruption("entry-store manifest key/page mismatch");
  }
  for (uint64_t i = 0; i < nkeys; ++i) {
    NDQ_ASSIGN_OR_RETURN(std::string_view key, r.GetString());
    store.first_keys_.emplace_back(key);
  }
  NDQ_RETURN_IF_ERROR(CheckRestarts(store.run_, disk->page_size()));
  return store;
}

Status EntryStore::Destroy() {
  if (disk_ == nullptr) return Status::OK();
  NDQ_RETURN_IF_ERROR(FreeRun(disk_, &run_));
  first_keys_.clear();
  stats_.reset();
  synopses_.reset();
  return Status::OK();
}

}  // namespace ndq
