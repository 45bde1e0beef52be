#include "dist/merge.h"

#include <utility>

#include "core/head64.h"

namespace ndq {

namespace {

// A stream that keeps failing after successful re-fetches is going
// nowhere (every refetch re-evaluates on a live replica, so repeated
// failures mean the fleet is flapping faster than we can read); cap the
// attempts so Next always terminates.
constexpr uint64_t kMaxReopens = 8;

}  // namespace

ShardStream::ShardStream(std::string shard, Source source, Refetch refetch)
    : shard_(std::move(shard)),
      source_(std::move(source)),
      refetch_(std::move(refetch)) {
  reader_ = std::make_unique<RunReader>(source_.disk, source_.run);
}

ShardStream::~ShardStream() { Close(); }

Status ShardStream::Reopen() {
  if (refetch_ == nullptr) {
    return Status::Unavailable("shard '" + shard_ +
                               "': stream failed and no replica to resume "
                               "from");
  }
  NDQ_ASSIGN_OR_RETURN(Source fresh, refetch_());
  // Best effort: the old run lives on the failed replica's disk, which
  // may refuse the frees too. Nothing downstream depends on them.
  FreeRun(source_.disk, &source_.run).ok();
  source_ = std::move(fresh);
  reader_ = std::make_unique<RunReader>(source_.disk, source_.run);
  // Replicas hold identical partitions, so the replacement run carries
  // the same record sequence: skip the prefix the caller already saw.
  std::string skipped;
  for (uint64_t i = 0; i < consumed_; ++i) {
    NDQ_ASSIGN_OR_RETURN(bool more, reader_->Next(&skipped));
    if (!more) {
      return Status::Internal("shard '" + shard_ +
                              "': replica stream shorter than the " +
                              std::to_string(consumed_) +
                              " records already consumed");
    }
  }
  return Status::OK();
}

Result<bool> ShardStream::Next(std::string* record) {
  if (closed_) return false;
  uint64_t reopens = 0;
  while (true) {
    Result<bool> more = reader_->Next(record);
    if (more.ok()) {
      if (*more) {
        ++consumed_;
        bytes_consumed_ += record->size();
      }
      return more;
    }
    if (++reopens > kMaxReopens) return more.status();
    Status resumed = Reopen();
    if (!resumed.ok()) return resumed;
  }
}

void ShardStream::Close() {
  if (closed_) return;
  closed_ = true;
  reader_.reset();
  // Best effort, like Reopen: every record has been read, so a replica
  // that refuses the free cannot change the result.
  FreeRun(source_.disk, &source_.run).ok();
}

Result<Run> MergeShardStreams(Disk* out_disk, const RecordKeyFn& key_fn,
                              const std::vector<ShardStream*>& streams,
                              PageFormat format, size_t* failed_stream) {
  if (failed_stream != nullptr) *failed_stream = static_cast<size_t>(-1);
  struct Head {
    std::string record;
    uint64_t head64 = 0;
    bool active = false;
  };
  std::vector<Head> heads(streams.size());
  auto advance = [&](size_t i) -> Status {
    Head& h = heads[i];
    Result<bool> more = streams[i]->Next(&h.record);
    if (!more.ok()) {
      if (failed_stream != nullptr) *failed_stream = i;
      return more.status();
    }
    if (!*more) {
      h.active = false;
      // The merge drains streams whole, so this is the natural place to
      // release the shard's server-side pages.
      streams[i]->Close();
      return Status::OK();
    }
    h.active = true;
    h.head64 = ExtractHead64(key_fn(h.record));
    return Status::OK();
  };
  for (size_t i = 0; i < streams.size(); ++i) {
    NDQ_RETURN_IF_ERROR(advance(i));
  }

  RunWriter writer(out_disk, format);
  while (true) {
    // Min-scan with cached head words: the 8-byte prefix decides almost
    // every comparison (reverse-DN keys diverge early), and the stream
    // count is the shard count — small — so a heap buys nothing.
    size_t best = streams.size();
    for (size_t i = 0; i < streams.size(); ++i) {
      const Head& h = heads[i];
      if (!h.active) continue;
      if (best == streams.size()) {
        best = i;
        continue;
      }
      const Head& b = heads[best];
      if (h.head64 != b.head64) {
        if (h.head64 < b.head64) best = i;
      } else if (key_fn(h.record) < key_fn(b.record)) {
        best = i;
      }
    }
    if (best == streams.size()) break;
    NDQ_RETURN_IF_ERROR(writer.Add(heads[best].record));
    NDQ_RETURN_IF_ERROR(advance(best));
  }
  return writer.Finish();
}

}  // namespace ndq
