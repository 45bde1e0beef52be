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
  run->restarts.clear();
  run->num_records = 0;
  run->payload_bytes = 0;
  return first;
}

Status CheckRestarts(const Run& run, uint64_t page_size) {
  if (run.num_records == 0) return Status::OK();
  const std::vector<RunRestart>& rs = run.restarts;
  const uint64_t pages = run.pages.size();
  if (run.payload_bytes > pages * page_size ||
      run.payload_bytes <= (pages - 1) * page_size) {
    return Status::Corruption("run payload does not fill its pages");
  }
  if (rs.empty() || rs[0].record != 0 || rs[0].offset != 0) {
    return Status::Corruption("run's first restart is not its first record");
  }
  for (size_t c = 0; c < rs.size(); ++c) {
    const bool last = c + 1 == rs.size();
    const uint64_t next_record = last ? run.num_records : rs[c + 1].record;
    const uint64_t next_offset = last ? run.payload_bytes : rs[c + 1].offset;
    if (next_record <= rs[c].record || next_offset <= rs[c].offset ||
        next_record - rs[c].record > kRestartInterval) {
      return Status::Corruption("run restart metadata out of order");
    }
  }
  return Status::OK();
}

Result<Run> CopyRun(Disk* from, const Run& run, Disk* to) {
  if (from->page_size() != to->page_size()) {
    return Status::InvalidArgument("run copy needs disks of one page size");
  }
  Run copy = run;
  copy.pages.clear();
  copy.pages.reserve(run.pages.size());
  Prefetcher prefetch(from, &run.pages);
  std::vector<uint8_t> page(from->page_size());
  auto copy_pages = [&]() -> Status {
    for (size_t i = 0; i < run.pages.size(); ++i) {
      NDQ_RETURN_IF_ERROR(prefetch.Read(i, page.data()));
      NDQ_ASSIGN_OR_RETURN(PageId id, to->Allocate());
      copy.pages.push_back(id);
      NDQ_RETURN_IF_ERROR(to->WritePage(id, page.data()));
    }
    return Status::OK();
  };
  Status s = copy_pages();
  if (!s.ok()) {
    (void)FreeRun(to, &copy);
    return s;
  }
  return copy;
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
  // Restart whenever decode-from-here must not depend on history: the
  // first record, every kRestartInterval records, and — for seekable
  // runs (set_page_restarts) — the first record starting in each page,
  // which makes every seek target self-contained. This record starts in
  // page pages.size() (FlushPage keeps buf_ strictly below a full page
  // between Adds), and a page's first record is its first restart.
  const std::vector<RunRestart>& rs = run_.restarts;
  const bool restart =
      rs.empty() || run_.num_records - rs.back().record >= kRestartInterval ||
      (page_restarts_ &&
       rs.back().offset / disk_->page_size() != run_.pages.size());
  if (restart) run_.restarts.push_back({run_.num_records, run_.payload_bytes});

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

namespace run_internal {

void FrameDecoder::Reset() {
  prev_key_.clear();
  prev_rest_.clear();
  prev_record_.clear();
}

template <typename Input>
Status FrameDecoder::Decode(PageFormat format, Input* in,
                            std::string* record) {
  switch (format) {
    case PageFormat::kPrefix: {
      NDQ_ASSIGN_OR_RETURN(uint64_t shared, in->ReadVarint());
      NDQ_ASSIGN_OR_RETURN(uint64_t suffix_len, in->ReadVarint());
      NDQ_RETURN_IF_ERROR(in->CheckFrameLength(suffix_len));
      if (shared > prev_record_.size()) {
        return Status::Corruption("prefix reference past previous record");
      }
      prev_record_.resize(shared);
      NDQ_RETURN_IF_ERROR(in->ReadBytes(suffix_len, &prev_record_));
      *record = prev_record_;
      return Status::OK();
    }
    case PageFormat::kKeyPrefix: {
      NDQ_ASSIGN_OR_RETURN(uint64_t shared_key, in->ReadVarint());
      NDQ_ASSIGN_OR_RETURN(uint64_t key_suffix, in->ReadVarint());
      NDQ_ASSIGN_OR_RETURN(uint64_t shared_rest, in->ReadVarint());
      NDQ_ASSIGN_OR_RETURN(uint64_t rest_suffix, in->ReadVarint());
      NDQ_RETURN_IF_ERROR(in->CheckFrameLength(key_suffix));
      NDQ_RETURN_IF_ERROR(in->CheckFrameLength(rest_suffix));
      if (shared_key > prev_key_.size() ||
          shared_rest > prev_rest_.size()) {
        return Status::Corruption("prefix reference past previous record");
      }
      prev_key_.resize(shared_key);
      NDQ_RETURN_IF_ERROR(in->ReadBytes(key_suffix, &prev_key_));
      prev_rest_.resize(shared_rest);
      NDQ_RETURN_IF_ERROR(in->ReadBytes(rest_suffix, &prev_rest_));
      // Re-synthesize the original record: PutString(key) + rest.
      record->clear();
      ByteWriter w(record);
      w.PutString(prev_key_);
      record->append(prev_rest_);
      return Status::OK();
    }
  }
  return Status::Corruption("unknown run page format");
}

}  // namespace run_internal

RunReader::RunReader(Disk* disk, const Run& run, size_t first_page,
                     Prefetcher::NextPage next_page)
    : disk_(disk),
      run_(&run),
      prefetch_(disk, &run.pages, first_page, std::move(next_page)) {}

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

Status RunReader::SeekTo(const RunRestart& at) {
  const uint64_t page_size = disk_->page_size();
  if (at.offset >= run_->payload_bytes ||
      at.offset / page_size >= run_->pages.size()) {
    return Status::Corruption("seek past the run's payload");
  }
  NDQ_RETURN_IF_ERROR(LoadPage(at.offset / page_size));
  buf_pos_ = at.offset % page_size;
  records_read_ = at.record;
  // A seek lands on a restart point, which references no history; any
  // frame that does back-reference from here is caught as corruption in
  // Next() (shared count exceeds the empty reconstruction state).
  frame_.Reset();
  return Status::OK();
}

Result<bool> RunReader::Next(std::string* record) {
  if (records_read_ >= run_->num_records) return false;
  NDQ_RETURN_IF_ERROR(frame_.Decode(run_->format, this, record));
  ++records_read_;
  return true;
}

namespace {

// Checks `run`'s restart metadata against its pages and lists the pages
// in the order ReverseRunReader reads them: chunk c, last first, reads
// its pages from the one it starts on up to (not including) the page the
// chunk after it starts on, which an earlier step already read.
Status PlanReverseReads(const Run& run, uint64_t page_size,
                        std::vector<PageId>* order) {
  if (run.num_records == 0) return Status::OK();
  const std::vector<RunRestart>& rs = run.restarts;
  if (rs.empty()) {
    return Status::InvalidArgument(
        "run carries no restart metadata to read it backwards");
  }
  NDQ_RETURN_IF_ERROR(CheckRestarts(run, page_size));
  order->reserve(run.pages.size());
  uint64_t hi = run.pages.size();
  for (size_t c = rs.size(); c-- > 0;) {
    const uint64_t lo = rs[c].offset / page_size;
    for (uint64_t p = lo; p < hi; ++p) order->push_back(run.pages[p]);
    hi = lo;
  }
  return Status::OK();
}

}  // namespace

ReverseRunReader::ReverseRunReader(Disk* disk, const Run& run)
    : disk_(disk),
      run_(&run),
      status_(PlanReverseReads(run, disk->page_size(), &order_)),
      prefetch_(disk, &order_) {
  if (status_.ok() && run.num_records > 0) chunks_left_ = run.restarts.size();
}

Result<bool> ReverseRunReader::Next(std::string* record) {
  NDQ_RETURN_IF_ERROR(status_);
  if (chunk_left_ == 0) {
    if (chunks_left_ == 0) return false;
    status_ = DecodeChunk(--chunks_left_);
    NDQ_RETURN_IF_ERROR(status_);
  }
  record->swap(chunk_[--chunk_left_]);
  return true;
}

Status ReverseRunReader::LoadPage(uint64_t page) {
  if (next_read_ >= order_.size() || order_[next_read_] != run_->pages[page]) {
    return Status::Internal("reverse run read out of its planned order");
  }
  if (page_no_ == first_page_) head_.assign(page_, 0, head_len_);
  page_no_ = kNoPage;
  page_.resize(disk_->page_size());
  NDQ_RETURN_IF_ERROR(prefetch_.Read(next_read_++,
                                     reinterpret_cast<uint8_t*>(page_.data())));
  page_no_ = page;
  return Status::OK();
}

Status ReverseRunReader::Fill() {
  if (pos_ >= end_) {
    return Status::Corruption("record frame runs past its restart chunk");
  }
  const uint64_t page_size = disk_->page_size();
  const uint64_t page = pos_ / page_size;
  const std::string* src = &page_;
  if (page == carry_page_) {
    src = &carry_;
  } else if (page != page_no_) {
    NDQ_RETURN_IF_ERROR(LoadPage(page));
  }
  const uint64_t off = pos_ % page_size;
  const uint64_t stop = std::min<uint64_t>(src->size(), off + (end_ - pos_));
  if (off >= stop) return Status::Corruption("restart chunk past its page");
  cur_ = src->data() + off;
  avail_ = stop - off;
  return Status::OK();
}

Result<uint64_t> ReverseRunReader::ReadVarint() {
  uint64_t v = 0;
  int shift = 0;
  while (true) {
    if (avail_ == 0) NDQ_RETURN_IF_ERROR(Fill());
    uint8_t b = static_cast<uint8_t>(*cur_++);
    --avail_;
    ++pos_;
    v |= static_cast<uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) break;
    shift += 7;
    if (shift > 63) return Status::Corruption("varint too long in run");
  }
  return v;
}

Status ReverseRunReader::ReadBytes(uint64_t n, std::string* out) {
  while (n > 0) {
    if (avail_ == 0) NDQ_RETURN_IF_ERROR(Fill());
    size_t take = static_cast<size_t>(std::min<uint64_t>(n, avail_));
    out->append(cur_, take);
    cur_ += take;
    avail_ -= take;
    pos_ += take;
    n -= take;
  }
  return Status::OK();
}

Status ReverseRunReader::CheckFrameLength(uint64_t claimed) const {
  if (claimed > end_ - pos_) {
    return Status::Corruption("record length prefix past its restart chunk");
  }
  return Status::OK();
}

Status ReverseRunReader::DecodeChunk(size_t c) {
  const std::vector<RunRestart>& rs = run_->restarts;
  const uint64_t page_size = disk_->page_size();
  const bool last = c + 1 == rs.size();
  const uint64_t count =
      (last ? run_->num_records : rs[c + 1].record) - rs[c].record;
  pos_ = rs[c].offset;
  end_ = last ? run_->payload_bytes : rs[c + 1].offset;
  avail_ = 0;
  first_page_ = pos_ / page_size;
  head_len_ = pos_ % page_size;
  if (chunk_.size() < count) chunk_.resize(count);
  frame_.Reset();
  for (uint64_t k = 0; k < count; ++k) {
    NDQ_RETURN_IF_ERROR(frame_.Decode(run_->format, this, &chunk_[k]));
  }
  if (pos_ != end_) {
    return Status::Corruption("restart chunk holds bytes past its records");
  }
  // The bytes of this chunk's first page before its restart end the
  // chunk before it: carry them, and nothing else, to the next step.
  if (first_page_ == carry_page_) {
    carry_.resize(head_len_);
  } else if (page_no_ == first_page_) {
    page_.resize(head_len_);
    carry_.swap(page_);
    page_no_ = kNoPage;
  } else {
    carry_.swap(head_);  // LoadPage saved it before moving past the page
  }
  carry_page_ = first_page_;
  chunk_left_ = count;
  return Status::OK();
}

}  // namespace ndq
