// Byte-level record serialization used by runs, the entry store, indexes
// and the spillable stack: varints, length-prefixed strings, and the
// canonical Entry wire format.

#ifndef NDQ_STORAGE_SERDE_H_
#define NDQ_STORAGE_SERDE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "core/entry.h"
#include "core/status.h"

namespace ndq {

/// Appends serialized primitives to a std::string buffer.
class ByteWriter {
 public:
  explicit ByteWriter(std::string* out) : out_(out) {}

  void PutU8(uint8_t v) { out_->push_back(static_cast<char>(v)); }

  /// LEB128 unsigned varint.
  void PutVarint(uint64_t v) {
    while (v >= 0x80) {
      out_->push_back(static_cast<char>((v & 0x7f) | 0x80));
      v >>= 7;
    }
    out_->push_back(static_cast<char>(v));
  }

  /// Zig-zag encoded signed varint.
  void PutSigned(int64_t v) {
    PutVarint((static_cast<uint64_t>(v) << 1) ^
              static_cast<uint64_t>(v >> 63));
  }

  /// Length-prefixed byte string.
  void PutString(std::string_view s) {
    PutVarint(s.size());
    out_->append(s.data(), s.size());
  }

 private:
  std::string* out_;
};

/// Reads serialized primitives from a byte buffer.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  bool AtEnd() const { return pos_ >= data_.size(); }
  size_t position() const { return pos_; }

  Result<uint8_t> GetU8() {
    if (pos_ >= data_.size()) return Status::Corruption("u8 past end");
    return static_cast<uint8_t>(data_[pos_++]);
  }

  Result<uint64_t> GetVarint() {
    uint64_t v = 0;
    int shift = 0;
    while (true) {
      if (pos_ >= data_.size()) return Status::Corruption("varint past end");
      uint8_t b = static_cast<uint8_t>(data_[pos_++]);
      v |= static_cast<uint64_t>(b & 0x7f) << shift;
      if ((b & 0x80) == 0) break;
      shift += 7;
      if (shift > 63) return Status::Corruption("varint too long");
    }
    return v;
  }

  Result<int64_t> GetSigned() {
    NDQ_ASSIGN_OR_RETURN(uint64_t u, GetVarint());
    return static_cast<int64_t>((u >> 1) ^ (~(u & 1) + 1));
  }

  Result<std::string_view> GetString() {
    NDQ_ASSIGN_OR_RETURN(uint64_t len, GetVarint());
    // Not pos_ + len, which a length near 2^64 would wrap.
    if (len > data_.size() - pos_) {
      return Status::Corruption("string past end");
    }
    std::string_view s = data_.substr(pos_, len);
    pos_ += len;
    return s;
  }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Page format (prefix compression)
// ---------------------------------------------------------------------------

/// On-disk framing of the records inside a run's pages. Every run is
/// prefix-compressed; what a record holds picks the format. The format is
/// carried PER RUN (in Run metadata and segment manifests), so readers
/// never guess.
///
///   kPrefix    — each record prefix-compressed against the previous one:
///                varint(shared) varint(suffix_len) suffix. For opaque
///                records (labeled/annotated runs); RunWriter's default.
///   kKeyPrefix — key-aware compression for records whose FIRST field is a
///                length-prefixed sort key (serialized entries, pair
///                records, spill-stack items). The key and the remainder
///                are compressed independently against the previous
///                record's, so differing key lengths (whose varint prefix
///                would defeat kPrefix at byte 0) still share their DN
///                prefix:
///                varint(shared_key) varint(key_suffix_len)
///                varint(shared_rest) varint(rest_suffix_len)
///                key_suffix rest_suffix.
///
/// Writers emit a RESTART (all shared counts forced to 0) for the first
/// record, every kRestartInterval records, and — for seekable runs
/// (RunWriter::set_page_restarts, used by the entry store) — for every
/// record that starts in a new page, so the first record starting in any
/// page is decodable without history and the sparse-index seek targets
/// stay valid. Scan-only runs skip the per-page restarts: on deep
/// directories a restart re-emits the whole reverse-DN key, which is
/// most of the compression win.
///
/// The values are the on-disk format byte; 0 was the retired
/// uncompressed layout and decodes as corruption.
enum class PageFormat : uint8_t {
  kPrefix = 1,
  kKeyPrefix = 2,
};

/// Writer-side restart interval (records between forced restarts).
/// Seeks never depend on it — the per-page forced restart (where
/// enabled) is what makes sparse-index targets decodable — so the
/// interval only bounds how far a mid-page corruption can smear. Deep-
/// directory keys make full restart records expensive (a restart
/// re-emits the whole reverse-DN key), so the interval is deliberately
/// loose.
inline constexpr uint64_t kRestartInterval = 64;

/// Always true: every run is prefix-compressed. Benchmarks record it as
/// the page format in their provenance lines.
inline bool PageCompressionEnabled() { return true; }

// ---------------------------------------------------------------------------
// Order-preserving typed key encoding
// ---------------------------------------------------------------------------

/// Order-preserving fixed-width encoding of a signed 64-bit integer: the
/// sign bit is flipped and the bytes stored big-endian, so memcmp order on
/// the 8-byte strings equals numeric order.
void AppendOrderedInt64(int64_t v, std::string* out);
int64_t DecodeOrderedInt64(std::string_view bytes);

/// Order-preserving encoding of a typed Value: a kind-rank tag byte
/// followed by the domain encoding (sign-flipped big-endian for kInt, raw
/// bytes otherwise). memcmp order on encodings equals Value::operator<
/// (kind first, then domain order) — the SerializeKeyByType idiom, used by
/// the secondary indexes and verified by the codec property tests.
void AppendOrderedValueKey(const Value& value, std::string* out);

/// Appends the wire form of `value` to `out`.
void SerializeValue(const Value& value, std::string* out);
/// Reads one Value.
Result<Value> DeserializeValue(ByteReader* reader);

/// Appends the wire form of `entry` (HierKey + attribute map) to `out`.
void SerializeEntry(const Entry& entry, std::string* out);
/// Parses an Entry from its wire form.
Result<Entry> DeserializeEntry(std::string_view record);

/// Reads just the HierKey prefix of a serialized entry — the sort key —
/// without materializing the rest.
Result<std::string_view> PeekEntryKey(std::string_view record);

}  // namespace ndq

#endif  // NDQ_STORAGE_SERDE_H_
