// Write-ahead log + checkpoint superblock for the durable DirectoryStore
// (docs/WRITE_PATH.md).
//
// Layout on the Disk abstraction (works identically on SimDisk and
// FileDisk):
//
//   page 0            superblock: magic, checkpoint sequence, the page id
//                     + sequence number of the live log chain's first
//                     page, and the page ids of the manifest blob;
//                     CRC-protected.
//   manifest blob     the segment manifests (EntryStore::SerializeManifest)
//                     as of the last checkpoint, serialized across
//                     dedicated pages (they outgrow one page easily: a
//                     manifest embeds the segment's sparse key index).
//   chain pages       a singly linked list of log pages. Each page carries
//                     a 16-byte header {magic, seq, used, next} and a
//                     payload byte stream of framed records
//                     {varint len, body, crc32(body)}; records may span
//                     pages. body = {op, key[, serialized entry]}.
//
// Commit protocol: every acknowledged mutation is appended to the tail
// page, the tail is rewritten, and Disk::Sync() is issued before the store
// mutates any in-memory state. A failed append or commit rolls the
// in-memory tail back and invalidates any pages the failed operation
// created, so unacknowledged bytes can never replay as committed records.
//
// Seal/checkpoint protocol: when the store freezes its memtable for a
// flush, Seal() closes the tail (linking it to a fresh page), so the log
// splits at exactly the freeze point: everything before the seal is
// covered by the frozen memtable / segments, everything after belongs to
// the live memtable. After the new segment is built, Checkpoint(manifests)
// publishes a new superblock pointing past the sealed prefix and frees the
// superseded log pages. A crash anywhere in between replays from the OLD
// superblock through the seal link — the full acknowledged history.
//
// Recovery walks the superblock's chain, validating page magic/sequence
// and record CRCs, stops at the first torn or unreachable byte (which by
// the commit protocol can only cover unacknowledged data), and returns the
// manifests plus the replayed memtable.
//
// Not thread-safe: the owning DirectoryStore serializes all calls under
// its writer mutex.

#ifndef NDQ_STORE_WAL_H_
#define NDQ_STORE_WAL_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/status.h"
#include "storage/disk.h"

namespace ndq {

/// CRC-32 (IEEE 802.3, reflected) over `data`; seed with a previous crc to
/// chain. Used for WAL record and superblock checksums.
uint32_t Crc32(std::string_view data, uint32_t crc = 0);

class Wal {
 public:
  /// Mutation kinds recorded in the log.
  enum class OpKind : uint8_t { kPut = 1, kRemove = 2 };

  explicit Wal(Disk* disk);

  /// Initializes a fresh log on an empty device: superblock (which must
  /// land on page 0 — the durable store owns its disk from page zero) plus
  /// an empty chain, synced.
  Status Create();

  /// What Recover() reconstructs: the checkpointed segment manifests and
  /// the memtable replayed from the log tail (empty value = tombstone).
  struct Recovered {
    std::vector<std::string> manifests;
    std::map<std::string, std::string> memtable;
  };

  /// Re-attaches to a device carrying a log (after a crash or restart):
  /// validates the superblock, replays the chain into `out`, and returns a
  /// Wal whose replayed pages are retired at the next Checkpoint. The
  /// caller must rebuild its segments from out->manifests and then
  /// checkpoint promptly to bound the chain.
  static Result<std::unique_ptr<Wal>> Recover(Disk* disk, Recovered* out);

  /// Appends one committed record and issues the durability barrier.
  /// On error the log is unchanged (in-memory tail rolled back, partial
  /// pages invalidated) — the caller must not apply the mutation.
  Status AppendPut(std::string_view key, std::string_view record);
  Status AppendRemove(std::string_view key);

  /// Closes the tail at the current byte (the memtable-freeze barrier) and
  /// starts a fresh linked page. Records appended before the seal become
  /// reclaimable at the next Checkpoint; records after it survive.
  /// On error the log is unchanged and no barrier exists.
  Status Seal();

  /// Publishes a new superblock {manifests, current chain} and frees every
  /// sealed page. After OK, a crash recovers exactly {manifests} + the
  /// records appended since the last Seal(). On error the previous
  /// superblock is restored and nothing is freed.
  Status Checkpoint(const std::vector<std::string>& manifests);

  /// Frees every page the log owns (superblock + chains). For teardown in
  /// leak-checked tests; the log is unusable afterwards.
  Status DestroyAll();

  /// Log pages currently owned (superblock excluded).
  uint64_t chain_pages() const {
    return cur_pages_.size() + old_pages_.size() + blob_pages_.size();
  }
  /// True between Recover() and the first successful Checkpoint: the
  /// superblock still references the pre-crash chain, so appends are
  /// refused (they would land on pages a replay cannot reach).
  bool needs_checkpoint() const { return needs_checkpoint_; }
  /// True once a failed rollback left the device indeterminate (only
  /// reachable under sticky fault policies); every later append refuses.
  bool poisoned() const { return poisoned_; }
  /// Pages stranded by failed best-effort cleanup (never by a successful
  /// operation); nonzero only after injected faults on recovery paths.
  uint64_t lost_pages() const { return lost_pages_; }
  uint64_t checkpoint_seq() const { return checkpoint_seq_; }
  uint64_t records_appended() const { return records_appended_; }
  Disk* disk() const { return disk_; }

 private:
  struct PageHeader {
    uint32_t seq = 0;
    uint32_t used = 0;
    PageId next = kInvalidPage;
  };

  size_t PayloadCapacity() const;
  Status AppendRecord(OpKind op, std::string_view key,
                      std::string_view value);
  /// Serializes + writes one chain page.
  Status WriteChainPage(PageId id, const PageHeader& header,
                        std::string_view payload);
  /// Best-effort: overwrite `id` with an invalid header and free it, so a
  /// rolled-back page can never replay, even if later reallocated.
  void InvalidateAndFree(PageId id);
  Status WriteSuperblock(const std::string& bytes);
  std::string SerializeSuperblock(uint64_t blob_len,
                                  const std::vector<PageId>& blob_pages) const;

  Disk* disk_;
  PageId super_page_ = kInvalidPage;
  // Current (unsealed) chain; cur_pages_.front() is what the next
  // checkpoint will publish as the head, cur_pages_.back() is the tail.
  // Invariant: seq(cur_pages_[i]) == head_seq_ + i and
  // next_seq_ == head_seq_ + cur_pages_.size().
  std::vector<PageId> cur_pages_;
  // Sealed pages awaiting the next checkpoint, oldest first.
  std::vector<PageId> old_pages_;
  // Pages holding the last checkpoint's manifest blob.
  std::vector<PageId> blob_pages_;
  std::string tail_buf_;      // payload bytes of the tail page
  uint64_t next_seq_ = 0;     // seq for the NEXT allocated chain page
  uint64_t head_seq_ = 0;     // seq of cur_pages_.front()
  uint64_t checkpoint_seq_ = 0;
  uint64_t records_appended_ = 0;
  uint64_t records_since_seal_ = 0;
  uint64_t lost_pages_ = 0;
  bool needs_checkpoint_ = false;
  bool poisoned_ = false;
  std::string last_superblock_;  // restore image for failed checkpoints
};

}  // namespace ndq

#endif  // NDQ_STORE_WAL_H_
