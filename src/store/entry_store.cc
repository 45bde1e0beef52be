#include "store/entry_store.h"

#include <algorithm>

#include "storage/serde.h"
#include "store/stats.h"

namespace ndq {

Status EntryStore::BuildFrom(Disk* disk, const RecordPull& next) {
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
    NDQ_ASSIGN_OR_RETURN(bool more, next(&record));
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
  // The statistics fold from each entry as it is handed over for
  // serialization, so no record is decoded back.
  auto stats = std::make_shared<StoreStats>();
  auto it = instance.begin();
  auto next = [&]() -> const Entry* {
    if (it == instance.end()) return nullptr;
    const Entry* entry = &(it++)->second;
    stats->AddEntry(*entry);
    return entry;
  };
  NDQ_ASSIGN_OR_RETURN(EntryStore store, FromEntries(disk, next));
  store.stats_ = std::move(stats);
  return store;
}

Result<EntryStore> EntryStore::FromEntries(
    Disk* disk, const std::function<const Entry*()>& next) {
  return FromStream(disk, [&](std::string* record) -> Result<bool> {
    const Entry* entry = next();
    if (entry == nullptr) return false;
    record->clear();
    SerializeEntry(*entry, record);
    return true;
  });
}

Result<EntryStore> EntryStore::FromStream(
    Disk* disk, const std::function<Result<bool>(std::string*)>& next) {
  // A failed build leaks nothing: the writer frees the pages of a run it
  // never finished, and the partial index goes with `store`.
  EntryStore store;
  NDQ_RETURN_IF_ERROR(store.BuildFrom(disk, next));
  return store;
}

Result<EntryStore> EntryStore::CopyTo(Disk* disk) const {
  if (disk_ == nullptr) {
    return Status::InvalidArgument("segment copy needs a built segment");
  }
  EntryStore copy = *this;  // sparse index, shared stats
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

const RunRestart& EntryStore::StartRestart(std::string_view key) const {
  // The last restart before the end of the key's page sits in the last
  // page at or before it that a record starts in (a page without one is
  // covered by a record that began earlier); that page's first restart
  // is its first record.
  const uint64_t page_size = disk_->page_size();
  const uint64_t page = PageLowerBound(first_keys_, key);
  const uint64_t start_page =
      std::prev(RestartFrom(run_, (page + 1) * page_size))->offset /
      page_size;
  return *RestartFrom(run_, start_page * page_size);
}

Status EntryStore::ScanRange(
    std::string_view start_key, std::string_view end_key,
    const std::function<Status(std::string_view record)>& fn) const {
  Cursor cursor(this, start_key);
  while (true) {
    NDQ_ASSIGN_OR_RETURN(bool more, cursor.Next());
    if (!more || (!end_key.empty() && cursor.key() >= end_key)) break;
    NDQ_RETURN_IF_ERROR(fn(cursor.record()));
  }
  return Status::OK();
}

EntryStore::Cursor::Cursor(const EntryStore* store,
                           std::string_view start_key)
    : store_(store), start_key_(start_key) {}

Result<bool> EntryStore::Cursor::Next() {
  if (store_ == nullptr) return false;
  if (!primed_) {
    primed_ = true;
    if (store_->run_.num_records == 0) return false;
    // Records before start_key_ in the seek target's page are skipped below.
    auto reader = std::make_unique<RunReader>(store_->disk_, store_->run_);
    NDQ_RETURN_IF_ERROR(reader->SeekTo(store_->StartRestart(start_key_)));
    reader_ = std::move(reader);
  }
  if (reader_ == nullptr) return false;
  while (true) {
    NDQ_ASSIGN_OR_RETURN(bool more, reader_->Next(&record_));
    if (!more) {
      reader_.reset();
      return false;
    }
    NDQ_ASSIGN_OR_RETURN(key_, PeekEntryKey(record_));
    if (key_ >= start_key_) return true;
  }
}

uint64_t EntryStore::EstimateRangePages(std::string_view start_key,
                                        std::string_view end_key) const {
  if (run_.num_records == 0) return 0;
  size_t lo = PageLowerBound(first_keys_, start_key);
  size_t hi = end_key.empty() ? run_.pages.size()
                              : PageLowerBound(first_keys_, end_key) + 1;
  if (hi <= lo) return 1;
  return hi - lo;
}

uint64_t EntryStore::EstimateRangeRecords(std::string_view start_key,
                                          std::string_view end_key) const {
  if (run_.num_records == 0) return 0;
  // The records starting before page p are those before the first
  // restart at or past it.
  auto records_before = [&](uint64_t page) {
    auto it = RestartFrom(run_, page * disk_->page_size());
    return it == run_.restarts.end() ? run_.num_records : it->record;
  };
  const uint64_t lo_rec =
      records_before(PageLowerBound(first_keys_, start_key));
  const uint64_t hi_rec =
      end_key.empty()
          ? run_.num_records
          : records_before(PageLowerBound(first_keys_, end_key) + 1);
  return hi_rec > lo_rec ? hi_rec - lo_rec : 1;
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

Status EntryStore::ScanKeys(
    const std::vector<std::string>& keys,
    const std::function<Status(std::string_view record)>& fn) const {
  RunReader reader(disk_, run_);
  bool positioned = false;
  std::string record;
  for (const std::string& key : keys) {
    if (run_.num_records == 0) {
      return Status::NotFound("segment holds no record for " + key);
    }
    const RunRestart& from = StartRestart(key);
    if (!positioned || from.offset / disk_->page_size() > reader.next_page()) {
      NDQ_RETURN_IF_ERROR(reader.SeekTo(from));
      positioned = true;
    }
    std::string_view at;
    do {
      NDQ_ASSIGN_OR_RETURN(bool more, reader.Next(&record));
      if (!more) break;
      NDQ_ASSIGN_OR_RETURN(at, PeekEntryKey(record));
    } while (at < key);
    if (at != key) {
      return Status::NotFound("segment holds no record for " + key);
    }
    NDQ_RETURN_IF_ERROR(fn(record));
  }
  return Status::OK();
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
  return Status::OK();
}

}  // namespace ndq
