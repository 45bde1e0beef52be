#include "storage/run.h"

#include <algorithm>

#include "storage/serde.h"

namespace ndq {

Status FreeRun(Disk* disk, Run* run) {
  // Free every page even if one Free fails: stopping at the first error
  // would strand the remaining pages in the run with some already freed,
  // making a retry double-free. The run is always left empty; the first
  // error (if any) is reported.
  Status first;
  for (PageId p : run->pages) {
    Status s = disk->Free(p);
    if (!s.ok() && first.ok()) first = s;
  }
  run->pages.clear();
  run->num_records = 0;
  run->payload_bytes = 0;
  return first;
}

Result<Run> ReverseRun(Disk* disk, Run run) {
  // Spill forward-order records in ~2-page batches, then replay the
  // batches last-to-first, reversing each batch in memory. The output and
  // every intermediate batch keep the input's format: reversed records
  // are adjacent in both orders, so they compress the same, and a keyed
  // run stays keyed for downstream readers.
  const size_t batch_budget = 2 * disk->page_size();
  const PageFormat format = run.format;
  std::vector<Run> batches;
  auto impl = [&]() -> Result<Run> {
    std::vector<std::string> buffer;
    size_t buffered = 0;
    auto flush = [&]() -> Status {
      if (buffer.empty()) return Status::OK();
      RunWriter w(disk, format);
      for (const std::string& rec : buffer) NDQ_RETURN_IF_ERROR(w.Add(rec));
      NDQ_ASSIGN_OR_RETURN(Run batch, w.Finish());
      batches.push_back(std::move(batch));
      buffer.clear();
      buffered = 0;
      return Status::OK();
    };
    {
      RunReader reader(disk, run);
      std::string rec;
      while (true) {
        NDQ_ASSIGN_OR_RETURN(bool more, reader.Next(&rec));
        if (!more) break;
        buffered += rec.size();
        buffer.push_back(std::move(rec));
        if (buffered >= batch_budget) NDQ_RETURN_IF_ERROR(flush());
      }
      NDQ_RETURN_IF_ERROR(flush());
    }
    NDQ_RETURN_IF_ERROR(FreeRun(disk, &run));
    RunWriter out(disk, format);
    std::string rec;
    for (auto bit = batches.rbegin(); bit != batches.rend(); ++bit) {
      std::vector<std::string> recs;
      RunReader reader(disk, *bit);
      while (true) {
        NDQ_ASSIGN_OR_RETURN(bool more, reader.Next(&rec));
        if (!more) break;
        recs.push_back(std::move(rec));
      }
      for (auto rit = recs.rbegin(); rit != recs.rend(); ++rit) {
        NDQ_RETURN_IF_ERROR(out.Add(*rit));
      }
      NDQ_RETURN_IF_ERROR(FreeRun(disk, &*bit));
    }
    return out.Finish();
  };
  Result<Run> reversed = impl();
  if (!reversed.ok()) {
    // Best-effort cleanup: the input and any surviving spill batches.
    // FreeRun empties each run, so nothing is ever freed twice.
    (void)FreeRun(disk, &run);
    for (Run& b : batches) (void)FreeRun(disk, &b);
  }
  return reversed;
}

RunWriter::RunWriter(Disk* disk, PageFormat format) : disk_(disk) {
  run_.format = format;
  buf_.reserve(disk_->page_size());
}

RunWriter::~RunWriter() {
  // A writer destroyed before a successful Finish() owns a partial run
  // that no caller can ever free; return its pages (best-effort — the
  // device may be refusing ops, in which case the campaign's leak check
  // knows to expect it).
  if (!finished_) {
    for (PageId p : run_.pages) (void)disk_->Free(p);
  }
}

Status RunWriter::FlushPage() {
  if (buf_.empty()) return Status::OK();
  buf_.resize(disk_->page_size(), '\0');
  NDQ_ASSIGN_OR_RETURN(PageId id, disk_->Allocate());
  // Track the page before writing it so an abandoned writer frees it too.
  run_.pages.push_back(id);
  NDQ_RETURN_IF_ERROR(
      disk_->WritePage(id, reinterpret_cast<const uint8_t*>(buf_.data())));
  buf_.clear();
  return Status::OK();
}

namespace {

size_t SharedPrefix(std::string_view a, std::string_view b) {
  size_t n = std::min(a.size(), b.size());
  size_t i = 0;
  while (i < n && a[i] == b[i]) ++i;
  return i;
}

}  // namespace

Status RunWriter::Add(std::string_view record) {
  if (finished_) return Status::Internal("Add after Finish");
  // Where this record's frame will start (FlushPage keeps buf_ strictly
  // below a full page between Adds).
  last_record_page_ = run_.pages.size();
  last_record_offset_ = static_cast<uint32_t>(buf_.size());

  // Restart whenever decode-from-here must not depend on history: the
  // first record, every kRestartInterval records, and — for seekable
  // runs (set_page_restarts) — the first record starting in each page,
  // which makes every sparse-index seek target self-contained.
  const bool restart =
      run_.num_records == 0 || records_since_restart_ >= kRestartInterval ||
      (page_restarts_ && last_record_page_ != last_start_page_);
  if (restart) records_since_restart_ = 0;
  ++records_since_restart_;
  last_start_page_ = last_record_page_;

  std::string framed;
  ByteWriter w(&framed);
  switch (run_.format) {
    case PageFormat::kPrefix: {
      size_t shared = restart ? 0 : SharedPrefix(prev_record_, record);
      w.PutVarint(shared);
      w.PutVarint(record.size() - shared);
      framed.append(record.data() + shared, record.size() - shared);
      prev_record_.assign(record.data(), record.size());
      break;
    }
    case PageFormat::kKeyPrefix: {
      ByteReader r(record);
      Result<std::string_view> key = r.GetString();
      if (!key.ok()) {
        return Status::Internal("keyed run record lacks a key prefix");
      }
      std::string_view rest = record.substr(r.position());
      size_t shared_key = restart ? 0 : SharedPrefix(prev_key_, *key);
      size_t shared_rest = restart ? 0 : SharedPrefix(prev_rest_, rest);
      w.PutVarint(shared_key);
      w.PutVarint(key->size() - shared_key);
      w.PutVarint(shared_rest);
      w.PutVarint(rest.size() - shared_rest);
      framed.append(key->data() + shared_key, key->size() - shared_key);
      framed.append(rest.data() + shared_rest, rest.size() - shared_rest);
      prev_key_.assign(key->data(), key->size());
      prev_rest_.assign(rest.data(), rest.size());
      break;
    }
  }

  size_t off = 0;
  while (off < framed.size()) {
    size_t room = disk_->page_size() - buf_.size();
    size_t take = std::min(room, framed.size() - off);
    buf_.append(framed, off, take);
    off += take;
    if (buf_.size() == disk_->page_size()) NDQ_RETURN_IF_ERROR(FlushPage());
  }
  ++run_.num_records;
  run_.payload_bytes += framed.size();
  return Status::OK();
}

Result<Run> RunWriter::Finish() {
  if (finished_) return Status::Internal("double Finish");
  // Mark finished only after the flush succeeds: on error the writer
  // still owns the partial run, and the destructor reclaims it.
  NDQ_RETURN_IF_ERROR(FlushPage());
  finished_ = true;
  return run_;
}

RunReader::RunReader(Disk* disk, const Run& run)
    : disk_(disk), run_(&run), prefetch_(disk, &run.pages) {}

Status RunReader::LoadPage(size_t idx) {
  buf_.resize(disk_->page_size());
  NDQ_RETURN_IF_ERROR(
      prefetch_.Read(idx, reinterpret_cast<uint8_t*>(buf_.data())));
  buf_pos_ = 0;
  page_idx_ = idx + 1;
  return Status::OK();
}

Status RunReader::ReadBytes(size_t n, std::string* out) {
  while (n > 0) {
    if (buf_pos_ >= buf_.size()) {
      if (page_idx_ >= run_->pages.size()) {
        return Status::Corruption("run truncated");
      }
      NDQ_RETURN_IF_ERROR(LoadPage(page_idx_));
    }
    size_t take = std::min(n, buf_.size() - buf_pos_);
    out->append(buf_, buf_pos_, take);
    buf_pos_ += take;
    n -= take;
  }
  return Status::OK();
}

Result<uint64_t> RunReader::ReadVarint() {
  uint64_t v = 0;
  int shift = 0;
  while (true) {
    if (buf_pos_ >= buf_.size()) {
      if (page_idx_ >= run_->pages.size()) {
        return Status::Corruption("run truncated in varint");
      }
      NDQ_RETURN_IF_ERROR(LoadPage(page_idx_));
    }
    uint8_t b = static_cast<uint8_t>(buf_[buf_pos_++]);
    v |= static_cast<uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) break;
    shift += 7;
    if (shift > 63) return Status::Corruption("varint too long in run");
  }
  return v;
}

Status RunReader::CheckFrameLength(uint64_t claimed) const {
  // No frame can legitimately claim more bytes than the run's pages hold;
  // reject before allocating or looping, so a corrupted length prefix
  // costs O(1) instead of a page-by-page crawl to the truncation error.
  uint64_t capacity =
      static_cast<uint64_t>(run_->pages.size()) * disk_->page_size();
  if (claimed > capacity) {
    return Status::Corruption("record length prefix past run end");
  }
  return Status::OK();
}

Status RunReader::SeekTo(size_t page_idx, size_t byte_offset,
                         uint64_t record_index) {
  if (page_idx >= run_->pages.size()) {
    return Status::OutOfRange("seek past end of run");
  }
  if (byte_offset >= disk_->page_size()) {
    return Status::Corruption("seek offset past page end");
  }
  NDQ_RETURN_IF_ERROR(LoadPage(page_idx));
  buf_pos_ = byte_offset;
  records_read_ = record_index;
  // A seek lands on a restart point, which references no history; any
  // frame that does back-reference from here is caught as corruption in
  // Next() (shared count exceeds the empty reconstruction state).
  prev_key_.clear();
  prev_rest_.clear();
  prev_record_.clear();
  return Status::OK();
}

Result<bool> RunReader::Next(std::string* record) {
  if (records_read_ >= run_->num_records) return false;
  switch (run_->format) {
    case PageFormat::kPrefix: {
      NDQ_ASSIGN_OR_RETURN(uint64_t shared, ReadVarint());
      NDQ_ASSIGN_OR_RETURN(uint64_t suffix_len, ReadVarint());
      NDQ_RETURN_IF_ERROR(CheckFrameLength(suffix_len));
      if (shared > prev_record_.size()) {
        return Status::Corruption("prefix reference past previous record");
      }
      prev_record_.resize(shared);
      NDQ_RETURN_IF_ERROR(ReadBytes(suffix_len, &prev_record_));
      *record = prev_record_;
      break;
    }
    case PageFormat::kKeyPrefix: {
      NDQ_ASSIGN_OR_RETURN(uint64_t shared_key, ReadVarint());
      NDQ_ASSIGN_OR_RETURN(uint64_t key_suffix, ReadVarint());
      NDQ_ASSIGN_OR_RETURN(uint64_t shared_rest, ReadVarint());
      NDQ_ASSIGN_OR_RETURN(uint64_t rest_suffix, ReadVarint());
      NDQ_RETURN_IF_ERROR(CheckFrameLength(key_suffix));
      NDQ_RETURN_IF_ERROR(CheckFrameLength(rest_suffix));
      if (shared_key > prev_key_.size() ||
          shared_rest > prev_rest_.size()) {
        return Status::Corruption("prefix reference past previous record");
      }
      prev_key_.resize(shared_key);
      NDQ_RETURN_IF_ERROR(ReadBytes(key_suffix, &prev_key_));
      prev_rest_.resize(shared_rest);
      NDQ_RETURN_IF_ERROR(ReadBytes(rest_suffix, &prev_rest_));
      // Re-synthesize the original record: PutString(key) + rest.
      record->clear();
      ByteWriter w(record);
      w.PutString(prev_key_);
      record->append(prev_rest_);
      break;
    }
  }
  ++records_read_;
  return true;
}

}  // namespace ndq
