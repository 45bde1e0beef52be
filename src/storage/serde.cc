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

void SerializeEntry(const Entry& entry, std::string* out) {
  ByteWriter(out).PutString(entry.HierKey());
  out->append(entry.view().attribute_bytes());
}

Result<Entry> DeserializeEntry(std::string_view record) {
  Entry slow;
  NDQ_ASSIGN_OR_RETURN(EntryView view, EntryView::Parse(record, &slow));
  return Entry(view);
}

Result<std::string_view> PeekEntryKey(std::string_view record) {
  ByteReader r(record);
  return r.GetString();
}

}  // namespace ndq
