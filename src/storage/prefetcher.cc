#include "storage/prefetcher.h"

#include <algorithm>

#include "storage/disk.h"

namespace ndq {

Prefetcher::Prefetcher(Disk* disk, const std::vector<PageId>* pages,
                       size_t first, NextPage next)
    : disk_(disk),
      pages_(pages),
      next_(std::move(next)),
      async_(disk->async()),
      next_submit_(first) {
  TopUpWindow();
}

Prefetcher::~Prefetcher() { DropWindow(); }

Status Prefetcher::Read(size_t idx, uint8_t* buf) {
  if (idx >= pages_->size()) {
    return Status::Internal("prefetcher: page index out of range");
  }
  const PageId page = (*pages_)[idx];
  if (async_ == nullptr) return disk_->ReadPage(page, buf);

  AsyncDisk::RequestHandle req;
  auto it = window_.find(idx);
  if (it != window_.end()) {
    req = std::move(it->second);
    window_.erase(it);
  } else if (!disk_->PrefetchWorthwhile()) {
    // The device is currently faster than the async round trip (see
    // Disk::PrefetchWorthwhile); serve the miss synchronously. ReadPage
    // performs the identical observable sequence (fault consult, then
    // transfer count), so accounting is unchanged — only the queue
    // handoff is skipped.
    Status s = disk_->ReadPage(page, buf);
    if (idx >= next_submit_) next_submit_ = After(idx);
    TopUpWindow();
    return s;
  } else {
    // Out-of-window access (a seek, or a window the scan outran): fetch
    // fresh and restart streaming from here.
    req = async_->Submit(page);
  }
  if (async_->IsReady(req)) disk_->CountPrefetchHit();

  uint64_t waited = 0;
  Status physical = async_->Wait(req, buf, &waited);
  if (waited > 0) disk_->AddIoWaitMicros(waited);

  // Consumption-time accounting: fault check + transfer count happen here,
  // in scan order, exactly as a synchronous ReadPage would have.
  Status final = disk_->FinishAsyncRead(page, physical);

  if (idx >= next_submit_) next_submit_ = After(idx);
  TopUpWindow();
  return final;
}

void Prefetcher::TopUpWindow() {
  if (async_ == nullptr) return;
  // Back off while the device is serving reads faster than the engine's
  // round-trip cost; requests already in flight drain normally, and the
  // window refills if the device slows down again (e.g. the scan leaves
  // the OS page cache).
  if (!disk_->PrefetchWorthwhile()) return;
  const size_t depth = async_->io_depth();
  while (window_.size() < depth && next_submit_ < pages_->size()) {
    const size_t idx = next_submit_;
    next_submit_ = After(idx);
    if (window_.count(idx) > 0) continue;
    window_.emplace(idx, async_->Submit((*pages_)[idx]));
  }
}

void Prefetcher::DropWindow() {
  if (async_ == nullptr) return;
  uint64_t wasted = 0;
  for (auto& [idx, req] : window_) {
    // Cancel reports whether a worker had already spent (or committed to
    // spend) a physical transfer on the request.
    if (async_->Cancel(req)) ++wasted;
  }
  window_.clear();
  if (wasted > 0) disk_->CountPrefetchWasted(wasted);
}

}  // namespace ndq
