#include "exec/operand_cache.h"

namespace ndq {

OperandCache::OperandCache(Disk* disk, size_t capacity_pages)
    : disk_(disk), capacity_pages_(capacity_pages) {}

OperandCache::~OperandCache() { Clear(); }

Result<bool> OperandCache::Lookup(const std::string& key, EntryList* out) {
  std::shared_ptr<Entry> entry;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it == entries_.end()) {
      ++stats_.misses;
      return false;
    }
    entry = it->second;
    ++entry->pins;
    lru_.splice(lru_.end(), lru_, entry->lru_it);  // most recently used
    ++stats_.hits;
  }
  Result<EntryList> copy = CopyRun(disk_, entry->list, disk_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    bool last_unpin = --entry->pins == 0;
    if (!copy.ok()) {
      // The copy-out failed (e.g. an injected read fault). Evict the
      // entry — a cache that served an unreadable list once must not
      // serve it again — and fall through to report a miss so the
      // caller recomputes. If other copy-outs are still pinning the
      // entry, eviction dooms it; FreeRun empties the run when it fires,
      // so the doomed-path free after the last unpin finds an empty run
      // and never double-frees.
      ++stats_.copy_failures;
      --stats_.hits;  // reclassified: this lookup ends up a miss
      ++stats_.misses;
      auto it = entries_.find(key);
      if (it != entries_.end() && it->second == entry) {
        EvictLocked(it);
        ++stats_.evictions;
      }
    }
    if (last_unpin && entry->doomed) {
      FreeRun(disk_, &entry->list).ok();
    }
  }
  if (!copy.ok()) return false;
  *out = copy.TakeValue();
  return true;
}

Status OperandCache::Insert(const std::string& key, const EntryList& list) {
  if (list.pages.size() > capacity_pages_) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.oversize_rejects;
    return Status::OK();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (entries_.count(key) != 0) return Status::OK();
  }
  // Copy outside the lock; a racing insert of the same key can slip in,
  // in which case the loser's copy is freed below.
  Result<EntryList> copied = CopyRun(disk_, list, disk_);
  if (!copied.ok()) {
    // CopyRun reclaimed the partial copy's pages. Nothing is inserted;
    // the caller's own list is untouched and the query goes on.
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.copy_failures;
    return Status::OK();
  }
  EntryList copy = copied.TakeValue();
  std::lock_guard<std::mutex> lock(mu_);
  if (entries_.count(key) != 0) {
    FreeRun(disk_, &copy).ok();
    return Status::OK();
  }
  // Evict from the LRU front until the copy fits. Pinned entries are
  // skipped (their pages stay resident until the in-flight copy-out
  // finishes); if only pinned entries remain, admit over capacity rather
  // than fail — the overshoot is transient.
  auto lru_it = lru_.begin();
  while (resident_pages_ + copy.pages.size() > capacity_pages_ &&
         lru_it != lru_.end()) {
    auto it = entries_.find(*lru_it);
    ++lru_it;  // advance before EvictLocked erases the list node
    if (it->second->pins > 0) continue;
    EvictLocked(it);
    ++stats_.evictions;
  }
  auto entry = std::make_shared<Entry>();
  entry->list = copy;
  lru_.push_back(key);
  entry->lru_it = std::prev(lru_.end());
  entries_.emplace(key, std::move(entry));
  resident_pages_ += copy.pages.size();
  ++stats_.insertions;
  return Status::OK();
}

void OperandCache::EvictLocked(
    std::unordered_map<std::string, std::shared_ptr<Entry>>::iterator it) {
  std::shared_ptr<Entry>& entry = it->second;
  resident_pages_ -= entry->list.pages.size();
  lru_.erase(entry->lru_it);
  if (entry->pins > 0) {
    entry->doomed = true;  // last unpin frees the run
  } else {
    FreeRun(disk_, &entry->list).ok();
  }
  entries_.erase(it);
}

void OperandCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  while (!entries_.empty()) EvictLocked(entries_.begin());
}

OperandCacheStats OperandCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  OperandCacheStats s = stats_;
  s.resident_pages = resident_pages_;
  s.resident_entries = entries_.size();
  return s;
}

}  // namespace ndq
