#include "store/wal.h"

#include <algorithm>
#include <array>
#include <cstring>

#include "storage/serde.h"

namespace ndq {

namespace {

constexpr uint32_t kSuperMagic = 0x5351444e;  // "NDQS"
constexpr uint32_t kChainMagic = 0x5751444e;  // "NDQW"
constexpr size_t kChainHeaderSize = 16;
constexpr uint64_t kSuperVersion = 1;

void PutU32(std::string* out, uint32_t v) {
  out->push_back(static_cast<char>(v & 0xff));
  out->push_back(static_cast<char>((v >> 8) & 0xff));
  out->push_back(static_cast<char>((v >> 16) & 0xff));
  out->push_back(static_cast<char>((v >> 24) & 0xff));
}

uint32_t GetU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

}  // namespace

uint32_t Crc32(std::string_view data, uint32_t crc) {
  static const std::array<uint32_t, 256> kTable = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  crc = ~crc;
  for (char ch : data) {
    crc = kTable[(crc ^ static_cast<uint8_t>(ch)) & 0xff] ^ (crc >> 8);
  }
  return ~crc;
}

Wal::Wal(Disk* disk) : disk_(disk) {}

size_t Wal::PayloadCapacity() const {
  return disk_->page_size() - kChainHeaderSize;
}

Status Wal::WriteChainPage(PageId id, const PageHeader& header,
                           std::string_view payload) {
  std::string page;
  page.reserve(disk_->page_size());
  PutU32(&page, kChainMagic);
  PutU32(&page, header.seq);
  PutU32(&page, header.used);
  PutU32(&page, header.next);
  page.append(payload);
  page.resize(disk_->page_size(), '\0');
  return disk_->WritePage(id, reinterpret_cast<const uint8_t*>(page.data()));
}

void Wal::InvalidateAndFree(PageId id) {
  // Best-effort: a zeroed image can never parse as a chain page, so even a
  // stale next pointer (from a commit that failed between its page write
  // and its barrier) stops a future replay here.
  std::string zero(disk_->page_size(), '\0');
  (void)disk_->WritePage(id, reinterpret_cast<const uint8_t*>(zero.data()));
  if (!disk_->Free(id).ok()) ++lost_pages_;
}

Status Wal::WriteSuperblock(const std::string& bytes) {
  if (bytes.size() > disk_->page_size()) {
    return Status::ResourceExhausted("wal superblock overflows one page");
  }
  std::string page = bytes;
  page.resize(disk_->page_size(), '\0');
  return disk_->WritePage(super_page_,
                          reinterpret_cast<const uint8_t*>(page.data()));
}

std::string Wal::SerializeSuperblock(
    uint64_t blob_len, const std::vector<PageId>& blob_pages) const {
  std::string out;
  PutU32(&out, kSuperMagic);
  ByteWriter w(&out);
  w.PutVarint(kSuperVersion);
  w.PutVarint(checkpoint_seq_);
  w.PutVarint(cur_pages_.front());
  w.PutVarint(head_seq_);
  w.PutVarint(blob_len);
  w.PutVarint(blob_pages.size());
  for (PageId p : blob_pages) w.PutVarint(p);
  PutU32(&out, Crc32(out));
  return out;
}

Status Wal::Create() {
  NDQ_ASSIGN_OR_RETURN(PageId sb, disk_->Allocate());
  if (sb != 0) {
    (void)disk_->Free(sb);
    return Status::InvalidArgument(
        "durable store needs a fresh disk: superblock must be page 0, got " +
        std::to_string(sb));
  }
  super_page_ = sb;
  auto cleanup = [&](std::vector<PageId> pages) {
    for (PageId p : pages) (void)disk_->Free(p);
    super_page_ = kInvalidPage;
    cur_pages_.clear();
  };
  auto head_or = disk_->Allocate();
  if (!head_or.ok()) {
    cleanup({sb});
    return head_or.status();
  }
  PageId head = *head_or;
  cur_pages_ = {head};
  head_seq_ = 0;
  next_seq_ = 1;
  tail_buf_.clear();
  PageHeader h;
  h.seq = 0;
  h.used = 0;
  h.next = kInvalidPage;
  Status s = WriteChainPage(head, h, "");
  if (s.ok()) {
    std::string sb_bytes = SerializeSuperblock(0, {});
    s = WriteSuperblock(sb_bytes);
    if (s.ok()) s = disk_->Sync();
    if (s.ok()) last_superblock_ = std::move(sb_bytes);
  }
  if (!s.ok()) {
    cleanup({head, sb});
    return s;
  }
  return Status::OK();
}

Status Wal::AppendPut(std::string_view key, std::string_view record) {
  return AppendRecord(OpKind::kPut, key, record);
}

Status Wal::AppendRemove(std::string_view key) {
  return AppendRecord(OpKind::kRemove, key, "");
}

Status Wal::AppendRecord(OpKind op, std::string_view key,
                         std::string_view value) {
  if (super_page_ == kInvalidPage) {
    return Status::Internal("wal is not initialized");
  }
  if (poisoned_) {
    return Status::Unavailable(
        "wal poisoned: a rollback could not restore the device");
  }
  if (needs_checkpoint_) {
    return Status::Internal(
        "wal append before the post-recovery checkpoint");
  }
  std::string body;
  {
    ByteWriter w(&body);
    w.PutU8(static_cast<uint8_t>(op));
    w.PutString(key);
    if (op == OpKind::kPut) w.PutString(value);
  }
  std::string framed;
  {
    ByteWriter w(&framed);
    w.PutVarint(body.size());
  }
  framed += body;
  PutU32(&framed, Crc32(body));

  // Rollback snapshot: on any failure the in-memory tail reverts and the
  // on-disk tail is restored, so no unacknowledged byte can ever replay.
  const PageId snap_tail = cur_pages_.back();
  const std::string snap_buf = tail_buf_;
  const size_t snap_pages = cur_pages_.size();
  const uint64_t snap_next_seq = next_seq_;
  auto rollback = [&] {
    PageHeader h;
    h.seq = static_cast<uint32_t>(snap_next_seq - 1);
    h.used = static_cast<uint32_t>(snap_buf.size());
    h.next = kInvalidPage;
    if (!WriteChainPage(snap_tail, h, snap_buf).ok()) poisoned_ = true;
    while (cur_pages_.size() > snap_pages) {
      InvalidateAndFree(cur_pages_.back());
      cur_pages_.pop_back();
    }
    tail_buf_ = snap_buf;
    next_seq_ = snap_next_seq;
  };

  const size_t cap = PayloadCapacity();
  size_t off = 0;
  while (off < framed.size()) {
    if (tail_buf_.size() == cap) {
      // Tail full: close it, linking to a fresh page.
      auto p_or = disk_->Allocate();
      if (!p_or.ok()) {
        rollback();
        return p_or.status();
      }
      PageId p = *p_or;
      PageHeader h;
      h.seq = static_cast<uint32_t>(next_seq_ - 1);
      h.used = static_cast<uint32_t>(cap);
      h.next = p;
      Status s = WriteChainPage(cur_pages_.back(), h, tail_buf_);
      if (!s.ok()) {
        InvalidateAndFree(p);
        rollback();
        return s;
      }
      cur_pages_.push_back(p);
      ++next_seq_;
      tail_buf_.clear();
      continue;
    }
    size_t take = std::min(cap - tail_buf_.size(), framed.size() - off);
    tail_buf_.append(framed, off, take);
    off += take;
  }
  // Commit: persist the tail, then the durability barrier.
  PageHeader h;
  h.seq = static_cast<uint32_t>(next_seq_ - 1);
  h.used = static_cast<uint32_t>(tail_buf_.size());
  h.next = kInvalidPage;
  Status s = WriteChainPage(cur_pages_.back(), h, tail_buf_);
  if (s.ok()) s = disk_->Sync();
  if (!s.ok()) {
    rollback();
    return s;
  }
  ++records_appended_;
  ++records_since_seal_;
  return Status::OK();
}

Status Wal::Seal() {
  if (super_page_ == kInvalidPage) {
    return Status::Internal("wal is not initialized");
  }
  // Nothing appended since the last seal: the chain already splits here.
  if (records_since_seal_ == 0) return Status::OK();
  auto p_or = disk_->Allocate();
  if (!p_or.ok()) return p_or.status();
  PageId p = *p_or;
  PageHeader h;
  h.seq = static_cast<uint32_t>(next_seq_ - 1);
  h.used = static_cast<uint32_t>(tail_buf_.size());
  h.next = p;
  Status s = WriteChainPage(cur_pages_.back(), h, tail_buf_);
  if (!s.ok()) {
    // The failed write had no side effect; the fresh page was never
    // referenced, so plain freeing suffices.
    if (!disk_->Free(p).ok()) ++lost_pages_;
    return s;
  }
  // No barrier needed: the link becomes durable with the next commit's
  // Sync, and until a post-seal record is acknowledged a replay that stops
  // at the old tail loses nothing.
  old_pages_.insert(old_pages_.end(), cur_pages_.begin(), cur_pages_.end());
  cur_pages_ = {p};
  head_seq_ = next_seq_;
  ++next_seq_;
  tail_buf_.clear();
  records_since_seal_ = 0;
  return Status::OK();
}

Status Wal::Checkpoint(const std::vector<std::string>& manifests) {
  if (super_page_ == kInvalidPage) {
    return Status::Internal("wal is not initialized");
  }
  // Serialize and write the manifest blob.
  std::string blob;
  {
    ByteWriter w(&blob);
    w.PutVarint(manifests.size());
    for (const std::string& m : manifests) w.PutString(m);
  }
  const size_t ps = disk_->page_size();
  std::vector<PageId> new_blob;
  auto free_new_blob = [&] {
    for (PageId p : new_blob) {
      if (!disk_->Free(p).ok()) ++lost_pages_;
    }
  };
  for (size_t off = 0; off < blob.size(); off += ps) {
    auto p_or = disk_->Allocate();
    Status s = p_or.ok() ? Status::OK() : p_or.status();
    if (s.ok()) {
      std::string page = blob.substr(off, ps);
      page.resize(ps, '\0');
      s = disk_->WritePage(*p_or,
                           reinterpret_cast<const uint8_t*>(page.data()));
      if (!s.ok() && !disk_->Free(*p_or).ok()) ++lost_pages_;
    }
    if (!s.ok()) {
      free_new_blob();
      return s;
    }
    new_blob.push_back(*p_or);
  }
  // Publish the new superblock.
  std::string sb = SerializeSuperblock(blob.size(), new_blob);
  Status s = WriteSuperblock(sb);
  if (s.ok()) s = disk_->Sync();
  if (!s.ok()) {
    // The write may have landed without its barrier; restore the previous
    // superblock so the device matches the caller's rollback.
    if (!WriteSuperblock(last_superblock_).ok()) poisoned_ = true;
    free_new_blob();
    return s;
  }
  last_superblock_ = std::move(sb);
  ++checkpoint_seq_;
  needs_checkpoint_ = false;
  // Retire everything the new superblock no longer references.
  for (PageId p : old_pages_) {
    if (!disk_->Free(p).ok()) ++lost_pages_;
  }
  old_pages_.clear();
  for (PageId p : blob_pages_) {
    if (!disk_->Free(p).ok()) ++lost_pages_;
  }
  blob_pages_ = std::move(new_blob);
  return Status::OK();
}

Result<std::unique_ptr<Wal>> Wal::Recover(Disk* disk, Recovered* out) {
  auto wal = std::make_unique<Wal>(disk);
  wal->super_page_ = 0;
  const size_t ps = disk->page_size();
  std::string page(ps, '\0');
  NDQ_RETURN_IF_ERROR(
      disk->ReadPage(0, reinterpret_cast<uint8_t*>(page.data())));
  const uint8_t* raw = reinterpret_cast<const uint8_t*>(page.data());
  if (GetU32(raw) != kSuperMagic) {
    return Status::Corruption("wal superblock: bad magic");
  }
  // Locate the CRC by re-parsing: body is everything up to the trailing 4
  // bytes of the serialized superblock, whose length we recover by parsing
  // the fields first against the full page.
  ByteReader r(std::string_view(page).substr(4));
  NDQ_ASSIGN_OR_RETURN(uint64_t version, r.GetVarint());
  if (version != kSuperVersion) {
    return Status::Corruption("wal superblock: unsupported version " +
                              std::to_string(version));
  }
  NDQ_ASSIGN_OR_RETURN(uint64_t checkpoint_seq, r.GetVarint());
  NDQ_ASSIGN_OR_RETURN(uint64_t head, r.GetVarint());
  NDQ_ASSIGN_OR_RETURN(uint64_t head_seq, r.GetVarint());
  NDQ_ASSIGN_OR_RETURN(uint64_t blob_len, r.GetVarint());
  NDQ_ASSIGN_OR_RETURN(uint64_t blob_count, r.GetVarint());
  std::vector<PageId> blob_pages;
  for (uint64_t i = 0; i < blob_count; ++i) {
    NDQ_ASSIGN_OR_RETURN(uint64_t p, r.GetVarint());
    blob_pages.push_back(static_cast<PageId>(p));
  }
  size_t body_len = 4 + r.position();
  if (body_len + 4 > ps) return Status::Corruption("wal superblock: torn");
  uint32_t want_crc = GetU32(raw + body_len);
  if (Crc32(std::string_view(page.data(), body_len)) != want_crc) {
    return Status::Corruption("wal superblock: checksum mismatch");
  }

  // Load the manifest blob.
  std::string blob;
  for (PageId p : blob_pages) {
    std::string bp(ps, '\0');
    NDQ_RETURN_IF_ERROR(
        disk->ReadPage(p, reinterpret_cast<uint8_t*>(bp.data())));
    blob += bp;
  }
  if (blob_len > blob.size()) {
    return Status::Corruption("wal superblock: manifest blob truncated");
  }
  blob.resize(blob_len);
  out->manifests.clear();
  // A zero-length blob means "no checkpoint yet" (Create() writes the
  // superblock before the first Checkpoint): zero manifests, nothing to
  // parse. Only a non-empty blob carries a count.
  if (!blob.empty()) {
    ByteReader br(blob);
    NDQ_ASSIGN_OR_RETURN(uint64_t n, br.GetVarint());
    for (uint64_t i = 0; i < n; ++i) {
      NDQ_ASSIGN_OR_RETURN(std::string_view m, br.GetString());
      out->manifests.emplace_back(m);
    }
  }

  // Walk the chain, concatenating payloads. Stops at the first page that
  // is unreadable or fails magic/sequence validation — by the commit
  // protocol everything beyond that point is unacknowledged.
  std::string stream;
  std::vector<PageId> walked;
  PageId p = static_cast<PageId>(head);
  uint64_t seq = head_seq;
  while (p != kInvalidPage) {
    std::string cp(ps, '\0');
    if (!disk->ReadPage(p, reinterpret_cast<uint8_t*>(cp.data())).ok()) break;
    const uint8_t* craw = reinterpret_cast<const uint8_t*>(cp.data());
    uint32_t magic = GetU32(craw);
    if (magic != kChainMagic) {
      // A zeroed page is one we allocated but never wrote (a seal or
      // overflow interrupted before its first commit): adopt it so the
      // post-recovery checkpoint reclaims it.
      if (magic == 0) walked.push_back(p);
      break;
    }
    if (GetU32(craw + 4) != static_cast<uint32_t>(seq)) break;
    uint32_t used = GetU32(craw + 8);
    if (used > ps - kChainHeaderSize) break;
    walked.push_back(p);
    stream.append(cp, kChainHeaderSize, used);
    p = GetU32(craw + 12);
    ++seq;
  }

  // Replay records until the first torn or checksum-failing frame: a
  // committed record is always fully synced before it is acknowledged, so
  // any tail damage covers only unacknowledged bytes.
  out->memtable.clear();
  uint64_t replayed = 0;
  size_t pos = 0;
  while (pos < stream.size()) {
    uint64_t len = 0;
    int shift = 0;
    size_t q = pos;
    bool len_ok = false;
    while (q < stream.size() && shift <= 63) {
      uint8_t b = static_cast<uint8_t>(stream[q++]);
      len |= static_cast<uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) {
        len_ok = true;
        break;
      }
      shift += 7;
    }
    // Torn unless the body and its 4-byte checksum fit in what is left;
    // compared without a sum, which a length near 2^64 would wrap.
    size_t left = stream.size() - q;
    if (!len_ok || left < 4 || len > left - 4) break;
    std::string_view body(stream.data() + q, len);
    uint32_t crc =
        GetU32(reinterpret_cast<const uint8_t*>(stream.data()) + q + len);
    if (Crc32(body) != crc) break;
    ByteReader br(body);
    auto op_or = br.GetU8();
    if (!op_or.ok()) break;
    auto key_or = br.GetString();
    if (!key_or.ok()) break;
    if (*op_or == static_cast<uint8_t>(OpKind::kPut)) {
      auto value_or = br.GetString();
      if (!value_or.ok()) break;
      out->memtable[std::string(*key_or)] = std::string(*value_or);
    } else if (*op_or == static_cast<uint8_t>(OpKind::kRemove)) {
      out->memtable[std::string(*key_or)] = std::string();
    } else {
      break;
    }
    pos = q + len + 4;
    ++replayed;
  }

  // The previous chain and blob are superseded once the caller
  // checkpoints; until then appends are refused.
  wal->old_pages_ = std::move(walked);
  wal->blob_pages_ = std::move(blob_pages);
  wal->checkpoint_seq_ = checkpoint_seq;
  wal->needs_checkpoint_ = true;
  wal->records_since_seal_ = 0;
  wal->last_superblock_.assign(page.data(), body_len + 4);

  // Start a fresh chain for post-recovery appends.
  NDQ_ASSIGN_OR_RETURN(PageId fresh, disk->Allocate());
  wal->cur_pages_ = {fresh};
  wal->head_seq_ = 0;
  wal->next_seq_ = 1;
  wal->tail_buf_.clear();
  PageHeader h;
  h.seq = 0;
  h.used = 0;
  h.next = kInvalidPage;
  NDQ_RETURN_IF_ERROR(wal->WriteChainPage(fresh, h, ""));
  wal->records_appended_ = replayed;
  return wal;
}

Status Wal::DestroyAll() {
  if (super_page_ == kInvalidPage) return Status::OK();
  Status result = Status::OK();
  auto free_all = [&](std::vector<PageId>& pages) {
    for (PageId p : pages) {
      Status s = disk_->Free(p);
      if (!s.ok() && result.ok()) result = s;
    }
    pages.clear();
  };
  free_all(cur_pages_);
  free_all(old_pages_);
  free_all(blob_pages_);
  Status s = disk_->Free(super_page_);
  if (!s.ok() && result.ok()) result = s;
  super_page_ = kInvalidPage;
  return result;
}

}  // namespace ndq
