// The byte codec of the record wire format: LEB128 varints, zig-zag signed
// varints, length-prefixed strings and typed values. An Entry keeps its
// attributes in this format (core/entry.h), and storage/serde.h frames
// whole records with it.

#ifndef NDQ_CORE_WIRE_H_
#define NDQ_CORE_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "core/status.h"
#include "core/value.h"

namespace ndq {

/// Decodes the LEB128 varint at data[*pos] and advances *pos past it.
/// Returns false if it runs off the end of `data` or past ten bytes; bits
/// beyond the 64th are dropped, as they always were.
inline bool ReadVarint(std::string_view data, size_t* pos, uint64_t* v) {
  uint64_t out = 0;
  for (int shift = 0; shift <= 63; shift += 7) {
    if (*pos >= data.size()) return false;
    uint8_t b = static_cast<uint8_t>(data[(*pos)++]);
    out |= static_cast<uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) {
      *v = out;
      return true;
    }
  }
  return false;
}

/// Decodes a length-prefixed string at data[*pos] and advances past it.
inline bool ReadString(std::string_view data, size_t* pos,
                       std::string_view* s) {
  uint64_t len = 0;
  if (!ReadVarint(data, pos, &len)) return false;
  // Not *pos + len, which a length near 2^64 would wrap.
  if (len > data.size() - *pos) return false;
  *s = data.substr(*pos, len);
  *pos += len;
  return true;
}

/// Inverse of the zig-zag mapping ByteWriter::PutSigned applies.
inline int64_t ZigZagDecode(uint64_t u) {
  return static_cast<int64_t>((u >> 1) ^ (~(u & 1) + 1));
}

/// Decodes one typed value (a kind byte, then a signed varint or a
/// string) at data[*pos] and advances past it. Returns false on a short
/// read or a kind byte that names no TypeKind.
inline bool ReadValue(std::string_view data, size_t* pos, ValueView* v) {
  if (*pos >= data.size()) return false;
  uint8_t kind = static_cast<uint8_t>(data[(*pos)++]);
  if (kind == static_cast<uint8_t>(TypeKind::kInt)) {
    uint64_t u = 0;
    if (!ReadVarint(data, pos, &u)) return false;
    *v = ValueView::Int(ZigZagDecode(u));
    return true;
  }
  if (kind > static_cast<uint8_t>(TypeKind::kDn)) return false;
  std::string_view s;
  if (!ReadString(data, pos, &s)) return false;
  *v = ValueView::Str(static_cast<TypeKind>(kind), s);
  return true;
}

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

  /// A typed value: its kind byte, then a signed varint or a string.
  void PutValue(ValueView v) {
    PutU8(static_cast<uint8_t>(v.kind()));
    if (v.is_int()) {
      PutSigned(v.AsInt());
    } else {
      PutString(v.AsString());
    }
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
    if (!ReadVarint(data_, &pos_, &v)) {
      return Status::Corruption("varint past end or too long");
    }
    return v;
  }

  Result<int64_t> GetSigned() {
    NDQ_ASSIGN_OR_RETURN(uint64_t u, GetVarint());
    return ZigZagDecode(u);
  }

  Result<std::string_view> GetString() {
    std::string_view s;
    if (!ReadString(data_, &pos_, &s)) {
      return Status::Corruption("string past end");
    }
    return s;
  }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

}  // namespace ndq

#endif  // NDQ_CORE_WIRE_H_
