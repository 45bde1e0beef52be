#include "storage/serde.h"

namespace ndq {

void AppendOrderedInt64(int64_t v, std::string* out) {
  uint64_t u = static_cast<uint64_t>(v) ^ (uint64_t{1} << 63);
  for (int i = 7; i >= 0; --i) {
    out->push_back(static_cast<char>((u >> (8 * i)) & 0xff));
  }
}

int64_t DecodeOrderedInt64(std::string_view bytes) {
  uint64_t u = 0;
  for (size_t i = 0; i < 8 && i < bytes.size(); ++i) {
    u = (u << 8) | static_cast<uint8_t>(bytes[i]);
  }
  return static_cast<int64_t>(u ^ (uint64_t{1} << 63));
}

void AppendOrderedValueKey(const Value& value, std::string* out) {
  // Kind ranks match TypeKind's numeric order, which is how
  // Value::operator< ranks kinds.
  out->push_back(static_cast<char>(value.kind()));
  if (value.is_int()) {
    AppendOrderedInt64(value.AsInt(), out);
  } else {
    out->append(value.AsString());
  }
}

void SerializeValue(const Value& value, std::string* out) {
  ByteWriter w(out);
  w.PutU8(static_cast<uint8_t>(value.kind()));
  if (value.is_int()) {
    w.PutSigned(value.AsInt());
  } else {
    w.PutString(value.AsString());
  }
}

Result<Value> DeserializeValue(ByteReader* reader) {
  NDQ_ASSIGN_OR_RETURN(uint8_t kind_byte, reader->GetU8());
  if (kind_byte > static_cast<uint8_t>(TypeKind::kDn)) {
    return Status::Corruption("bad value kind byte");
  }
  TypeKind kind = static_cast<TypeKind>(kind_byte);
  switch (kind) {
    case TypeKind::kInt: {
      NDQ_ASSIGN_OR_RETURN(int64_t v, reader->GetSigned());
      return Value::Int(v);
    }
    case TypeKind::kString: {
      NDQ_ASSIGN_OR_RETURN(std::string_view s, reader->GetString());
      return Value::String(std::string(s));
    }
    case TypeKind::kDn: {
      NDQ_ASSIGN_OR_RETURN(std::string_view s, reader->GetString());
      return Value::DnRef(std::string(s));
    }
  }
  return Status::Corruption("unreachable value kind");
}

void SerializeEntry(const Entry& entry, std::string* out) {
  ByteWriter w(out);
  w.PutString(entry.HierKey());
  w.PutVarint(entry.attributes().size());
  for (const auto& [attr, vals] : entry.attributes()) {
    w.PutString(attr);
    w.PutVarint(vals.size());
    for (const Value& v : vals) SerializeValue(v, out);
  }
}

Result<Entry> DeserializeEntry(std::string_view record) {
  ByteReader r(record);
  NDQ_ASSIGN_OR_RETURN(std::string_view key, r.GetString());
  NDQ_ASSIGN_OR_RETURN(Dn dn, Dn::FromHierKey(key));
  Entry entry(std::move(dn));
  NDQ_ASSIGN_OR_RETURN(uint64_t nattrs, r.GetVarint());
  for (uint64_t i = 0; i < nattrs; ++i) {
    NDQ_ASSIGN_OR_RETURN(std::string_view attr, r.GetString());
    std::string attr_name(attr);
    NDQ_ASSIGN_OR_RETURN(uint64_t nvals, r.GetVarint());
    for (uint64_t j = 0; j < nvals; ++j) {
      NDQ_ASSIGN_OR_RETURN(Value v, DeserializeValue(&r));
      entry.AddValue(attr_name, std::move(v));
    }
  }
  return entry;
}

Result<std::string_view> PeekEntryKey(std::string_view record) {
  ByteReader r(record);
  return r.GetString();
}

}  // namespace ndq
