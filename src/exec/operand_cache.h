// A bounded LRU cache of finished sorted operand lists.
//
// Sub-plans recur — within one query (the same leaf under several
// operators) and across a workload batch (every query anchored at the same
// base/scope/filter, or sharing a whole operand subtree). Their outputs
// are immutable sorted EntryLists, so the cache can hand back a copy for
// the cost of re-reading it (~out pages) instead of re-evaluating it
// (scan >> out for selective filters).
//
// Keys are plan fingerprints (query/fingerprint.h QueryFingerprint): a
// version-tagged, typed, length-prefixed encoding of the whole subtree —
// operators, scopes, base HierKeys and filters — so two sub-plans share
// an entry only when they are semantically the same plan (int- and
// string-typed equality, True and Presence(objectClass), atomic and LDAP
// leaves never collide). Parallelism and tracing are not in the key: the
// cached list is invariant under them. The cache owns PRIVATE copies of
// the runs it stores: Insert copies the caller's list in, Lookup copies
// the cached list out into a fresh run the caller owns, both page for
// page (CopyRun, storage/run.h). Nothing the caller later frees can
// invalidate a cached entry, and concurrent hits on one entry are plain
// concurrent page reads.
//
// Thread safety: one mutex guards the map, the LRU order and the stats;
// page copying happens OUTSIDE the lock under a per-entry pin count, so
// one thread copying a large list out does not stall other lookups. A
// pinned entry cannot be evicted; eviction skips past pinned entries to
// the next least-recently-used one.

#ifndef NDQ_EXEC_OPERAND_CACHE_H_
#define NDQ_EXEC_OPERAND_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "exec/common.h"

namespace ndq {

struct OperandCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  /// Inserts rejected because the list alone exceeds the capacity.
  uint64_t oversize_rejects = 0;
  /// Copy-in or copy-out failures absorbed by the cache (the query
  /// proceeds without it: a failed copy-in is not cached, a failed
  /// copy-out reads as a miss and evicts the entry). Counts failures
  /// under async I/O too: a prefetched read's fault/error surfaces when
  /// the copy CONSUMES the page (Disk::FinishAsyncRead), i.e. on the
  /// copying thread inside CopyRun — never on an I/O worker where it
  /// could bypass this accounting. Guarded by
  /// OperandCacheAsyncCopyFailure in tests/exec/operand_cache_test.
  uint64_t copy_failures = 0;
  uint64_t resident_pages = 0;
  uint64_t resident_entries = 0;
};

class OperandCache {
 public:
  /// `capacity_pages` bounds the total pages of cached runs (on `disk`).
  OperandCache(Disk* disk, size_t capacity_pages);
  ~OperandCache();

  OperandCache(const OperandCache&) = delete;
  OperandCache& operator=(const OperandCache&) = delete;

  Disk* disk() const { return disk_; }
  size_t capacity_pages() const { return capacity_pages_; }

  /// On a hit, copies the cached list into a fresh run owned by the caller
  /// and returns true (counting a hit); on a miss returns false (counting
  /// a miss). `out` is written only on a hit. An I/O failure while copying
  /// out is ABSORBED: the affected entry is evicted (never served again)
  /// and the lookup reports a miss, so the caller transparently recomputes.
  Result<bool> Lookup(const std::string& key, EntryList* out);

  /// Copies `list` into the cache under `key` (the caller keeps ownership
  /// of `list` itself). No-op if the key is already cached or the list
  /// alone exceeds the capacity; otherwise evicts least-recently-used
  /// unpinned entries until the copy fits. An I/O failure while copying in
  /// is ABSORBED: nothing (in particular no truncated list) is inserted
  /// and OK is returned — the cache is an optimization, never a reason to
  /// fail a query.
  Status Insert(const std::string& key, const EntryList& list);

  /// Drops every entry (pinned entries are doomed and freed when their
  /// in-flight copies finish). Call when the underlying store mutates:
  /// cached lists reflect a snapshot of it.
  void Clear();

  OperandCacheStats stats() const;

 private:
  // Entries are shared_ptr-held so a copy-out can keep its entry's
  // storage alive across an unlock even if the entry is evicted meanwhile
  // (the eviction dooms it; the last unpin frees the run).
  struct Entry {
    EntryList list;           // cache-private copy
    uint64_t pins = 0;        // in-flight copy-outs
    bool doomed = false;      // evicted/cleared while pinned
    std::list<std::string>::iterator lru_it;
  };

  /// Caller holds mu_. Frees `it`'s run (or dooms it if pinned) and
  /// removes it from the map.
  void EvictLocked(
      std::unordered_map<std::string, std::shared_ptr<Entry>>::iterator it);

  Disk* const disk_;
  const size_t capacity_pages_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<Entry>> entries_;
  std::list<std::string> lru_;  // front = least recently used
  size_t resident_pages_ = 0;   // over non-doomed entries
  OperandCacheStats stats_;
};

}  // namespace ndq

#endif  // NDQ_EXEC_OPERAND_CACHE_H_
