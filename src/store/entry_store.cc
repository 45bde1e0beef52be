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
  // first record starting in each page decodable without history —
  // exactly the set of positions the sparse index records, so every
  // SeekReader target is self-contained.
  RunWriter writer(disk, PageFormat::kKeyPrefix);
  writer.set_page_restarts(true);

  std::string record;
  std::string prev_key;
  // Pending sparse-index entries for pages not yet flushed are appended as
  // pages fill; a page with no record start inherits a sentinel.
  auto note_record_start = [&](std::string_view key, uint64_t ordinal) {
    size_t page_idx = writer.last_record_page();
    while (first_keys_.size() <= page_idx) {
      first_keys_.emplace_back();
      first_offsets_.push_back(static_cast<uint32_t>(page_size));
      first_record_index_.push_back(ordinal);
    }
    if (first_offsets_[page_idx] == page_size) {
      first_keys_[page_idx] = std::string(key);
      first_offsets_[page_idx] = writer.last_record_offset();
      first_record_index_[page_idx] = ordinal;
    }
  };

  while (true) {
    NDQ_ASSIGN_OR_RETURN(bool more, next(&record));
    if (!more) break;
    NDQ_ASSIGN_OR_RETURN(std::string_view key, PeekEntryKey(record));
    if (writer.num_records() > 0 && !(prev_key < key)) {
      return Status::InvalidArgument(
          "entry records not in strictly increasing key order");
    }
    prev_key.assign(key);
    uint64_t ordinal = writer.num_records();
    NDQ_RETURN_IF_ERROR(writer.Add(record));
    note_record_start(key, ordinal);
  }
  NDQ_ASSIGN_OR_RETURN(run_, writer.Finish());
  // Fill index slots for trailing pages with no record start, and for
  // pages fully occupied by spanning records.
  while (first_keys_.size() < run_.pages.size()) {
    first_keys_.emplace_back();
    first_offsets_.push_back(static_cast<uint32_t>(page_size));
    first_record_index_.push_back(run_.num_records);
  }
  // Propagate keys forward so binary search sees a monotone sequence:
  // a page without a record start behaves like its successor... instead,
  // mark such pages with the previous page's key so lower_bound lands
  // before them.
  for (size_t i = 1; i < first_keys_.size(); ++i) {
    if (first_offsets_[i] == page_size) {
      first_keys_[i] = first_keys_[i - 1];
    }
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
  if (disk_ == nullptr || disk->page_size() != disk_->page_size()) {
    return Status::InvalidArgument(
        "segment copy needs a built segment and a disk of its page size");
  }
  EntryStore copy = *this;  // run metadata, sparse index, shared stats
  copy.disk_ = disk;
  copy.run_.pages.clear();
  copy.run_.pages.reserve(run_.pages.size());
  std::vector<uint8_t> page(disk->page_size());
  auto copy_pages = [&]() -> Status {
    for (PageId src : run_.pages) {
      NDQ_RETURN_IF_ERROR(disk_->ReadPage(src, page.data()));
      NDQ_ASSIGN_OR_RETURN(PageId dst, disk->Allocate());
      copy.run_.pages.push_back(dst);
      NDQ_RETURN_IF_ERROR(disk->WritePage(dst, page.data()));
    }
    return Status::OK();
  };
  Status s = copy_pages();
  if (!s.ok()) {
    (void)FreeRun(disk, &copy.run_);
    return s;
  }
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

}  // namespace

size_t EntryStore::StartPage(std::string_view key) const {
  size_t page = PageLowerBound(first_keys_, key);
  // A page without a record start is covered by a record that began
  // earlier; back up to the page where that record starts.
  while (page > 0 &&
         first_offsets_[page] == static_cast<uint32_t>(disk_->page_size())) {
    --page;
  }
  return page;
}

Result<std::unique_ptr<RunReader>> EntryStore::SeekReader(
    std::string_view start_key) const {
  if (run_.num_records == 0) return std::unique_ptr<RunReader>();
  const size_t page = StartPage(start_key);
  if (first_offsets_[page] == static_cast<uint32_t>(disk_->page_size())) {
    return std::unique_ptr<RunReader>();  // no record starts at all
  }
  auto reader = std::make_unique<RunReader>(disk_, run_);
  NDQ_RETURN_IF_ERROR(
      reader->SeekTo(page, first_offsets_[page], first_record_index_[page]));
  return reader;
}

Status EntryStore::ScanRange(
    std::string_view start_key, std::string_view end_key,
    const std::function<Status(std::string_view record)>& fn) const {
  NDQ_ASSIGN_OR_RETURN(std::unique_ptr<RunReader> reader,
                       SeekReader(start_key));
  if (reader == nullptr) return Status::OK();
  std::string record;
  while (true) {
    NDQ_ASSIGN_OR_RETURN(bool more, reader->Next(&record));
    if (!more) break;
    NDQ_ASSIGN_OR_RETURN(std::string_view key, PeekEntryKey(record));
    if (key < start_key) continue;
    if (!end_key.empty() && key >= end_key) break;
    NDQ_RETURN_IF_ERROR(fn(record));
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
    NDQ_ASSIGN_OR_RETURN(reader_, store_->SeekReader(start_key_));
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
  size_t lo = PageLowerBound(first_keys_, start_key);
  uint64_t lo_rec = first_record_index_[lo];
  uint64_t hi_rec = run_.num_records;
  if (!end_key.empty()) {
    size_t hi = PageLowerBound(first_keys_, end_key);
    hi_rec = (hi + 1 < first_record_index_.size())
                 ? first_record_index_[hi + 1]
                 : run_.num_records;
  }
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
    const size_t page = StartPage(key);
    if (!positioned || page > reader.next_page()) {
      NDQ_RETURN_IF_ERROR(reader.SeekTo(page, first_offsets_[page],
                                        first_record_index_[page]));
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
  w.PutString("ndqseg2");
  w.PutU8(static_cast<uint8_t>(run_.format));
  w.PutVarint(run_.num_records);
  w.PutVarint(run_.payload_bytes);
  w.PutVarint(run_.pages.size());
  for (PageId p : run_.pages) w.PutVarint(p);
  w.PutVarint(first_keys_.size());
  for (size_t i = 0; i < first_keys_.size(); ++i) {
    w.PutString(first_keys_[i]);
    w.PutVarint(first_offsets_[i]);
    w.PutVarint(first_record_index_[i]);
  }
  return out;
}

Result<EntryStore> EntryStore::FromManifest(Disk* disk,
                                            std::string_view manifest) {
  ByteReader r(manifest);
  NDQ_ASSIGN_OR_RETURN(std::string_view magic, r.GetString());
  if (magic != "ndqseg2") {
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
  // Manifests come back from unchecksummed WAL pages: every page id and
  // index entry takes at least one byte, so a count beyond the bytes left
  // is corrupt, and is rejected before it sizes an allocation.
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
  NDQ_ASSIGN_OR_RETURN(uint64_t nidx, r.GetVarint());
  NDQ_RETURN_IF_ERROR(check_count(nidx));
  if (nidx != npages) {
    return Status::Corruption("entry-store manifest index/page mismatch");
  }
  for (uint64_t i = 0; i < nidx; ++i) {
    NDQ_ASSIGN_OR_RETURN(std::string_view key, r.GetString());
    NDQ_ASSIGN_OR_RETURN(uint64_t off, r.GetVarint());
    NDQ_ASSIGN_OR_RETURN(uint64_t rec, r.GetVarint());
    // page_size is the "no record starts here" sentinel.
    if (off > disk->page_size()) {
      return Status::Corruption("entry-store manifest offset past page");
    }
    store.first_keys_.emplace_back(key);
    store.first_offsets_.push_back(static_cast<uint32_t>(off));
    store.first_record_index_.push_back(rec);
  }
  return store;
}

Status EntryStore::Destroy() {
  if (disk_ == nullptr) return Status::OK();
  NDQ_RETURN_IF_ERROR(FreeRun(disk_, &run_));
  first_keys_.clear();
  first_offsets_.clear();
  first_record_index_.clear();
  stats_.reset();
  return Status::OK();
}

}  // namespace ndq
