// The 64-bit hash the store's summaries key names and values by.
//
// StoreStats (store/stats.h) keys attributes by a hash of their name and
// string values by a hash of their bytes; a bulk load's page synopses
// (store/page_synopsis.h) reuse both hashes from the same fold, and probe
// with them at query time, so the two must hash alike.

#ifndef NDQ_STORE_HASH_H_
#define NDQ_STORE_HASH_H_

#include <cstdint>
#include <cstring>
#include <string_view>

namespace ndq {
namespace store_hash {

inline constexpr uint64_t kSeed = 0x9E3779B97F4A7C15ull;

// One mixing step: folds a word into `h`, eight bytes per multiply.
inline uint64_t Step(uint64_t h, uint64_t word) {
  h = (h ^ word) * 0xBF58476D1CE4E5B9ull;
  return h ^ (h >> 31);
}

// Up to eight bytes as one word, without a variable-length copy: two
// overlapping 4-byte loads, or three single bytes below four. Together
// with the length, the word determines the bytes.
inline uint64_t LoadTail(const char* p, size_t n) {
  if (n >= 4) {
    uint32_t lo = 0, hi = 0;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + n - 4, 4);
    return (static_cast<uint64_t>(hi) << 32) | lo;
  }
  if (n == 0) return 0;
  return (static_cast<uint64_t>(static_cast<uint8_t>(p[0])) << 16) |
         (static_cast<uint64_t>(static_cast<uint8_t>(p[n / 2])) << 8) |
         static_cast<uint8_t>(p[n - 1]);
}

// Hashes one more run of bytes, length included, onto `h`, so the hash of
// a HierKey prefix extends to the next prefix one component at a time.
inline uint64_t Extend(uint64_t h, std::string_view bytes) {
  const char* p = bytes.data();
  size_t n = bytes.size();
  for (; n > 8; p += 8, n -= 8) {
    uint64_t word = 0;
    std::memcpy(&word, p, 8);
    h = Step(h, word);
  }
  // The length rides on the last step; scaling the tail by an odd
  // constant keeps a shorter run's tail from cancelling it.
  return Step(h, LoadTail(p, n) * kSeed + bytes.size());
}

inline uint64_t Hash(std::string_view bytes) { return Extend(kSeed, bytes); }

// Table keys for name and prefix hashes: 0 marks an empty slot, so a hash
// of 0 shares a slot with a hash of 1 (a collision, summed like any other).
inline uint64_t SlotKey(uint64_t hash) { return hash == 0 ? 1 : hash; }

// The key of an attribute name in both summaries.
inline uint64_t NameKey(std::string_view name) { return SlotKey(Hash(name)); }

}  // namespace store_hash
}  // namespace ndq

#endif  // NDQ_STORE_HASH_H_
