#include "core/entry.h"

#include <cstring>

namespace ndq {

static_assert(sizeof(Entry) == sizeof(Dn) + sizeof(std::string),
              "an Entry is its record");

namespace {

// Whether the varint at data[begin, end) is the one ByteWriter writes for
// the value it decodes to: one byte, or a non-zero last byte that drops
// no bits (a tenth byte carries only bit 63).
bool MinimalVarint(std::string_view data, size_t begin, size_t end) {
  const size_t n = end - begin;
  const uint8_t last = static_cast<uint8_t>(data[end - 1]);
  return n == 1 || (last != 0 && (n < 10 || last == 1));
}

// The one pass of EntryView::Parse over attribute bytes, reading what
// DeserializeEntry always read: false on a short read or a bad kind byte.
// Sets *end past the last attribute and *canonical to whether the bytes
// are exactly what Entry keeps for the pairs they hold.
bool CheckAttributes(std::string_view data, size_t* end, bool* canonical) {
  size_t pos = 0;
  uint64_t nattrs = 0;
  if (!ReadVarint(data, &pos, &nattrs)) return false;
  bool canon = MinimalVarint(data, 0, pos);
  std::string_view prev_name;
  for (uint64_t i = 0; i < nattrs; ++i) {
    std::string_view name;
    uint64_t nvals = 0;
    size_t mark = pos;
    if (!ReadString(data, &pos, &name)) return false;
    canon = canon && MinimalVarint(data, mark, pos - name.size()) &&
            (i == 0 || prev_name < name);
    mark = pos;
    if (!ReadVarint(data, &pos, &nvals)) return false;
    canon = canon && nvals > 0 && MinimalVarint(data, mark, pos);
    ValueView prev, v;
    for (uint64_t j = 0; j < nvals; ++j) {
      mark = pos + 1;  // past the kind byte
      if (!ReadValue(data, &pos, &v)) return false;
      const size_t varint_end = v.is_int() ? pos : pos - v.AsString().size();
      canon = canon && MinimalVarint(data, mark, varint_end) &&
              (j == 0 || prev < v);
      prev = v;
    }
    prev_name = name;
  }
  *end = pos;
  *canonical = canon;
  return true;
}

// Where attribute `attr` sits in canonical attribute bytes. `begin` is
// the offset of its block, or, when absent, of the first block with a
// greater name (the end if none). For a present attribute, `count_pos`
// is the offset of varint(nvals), `values` of its first value and `end`
// past its block.
struct AttrSlot {
  uint64_t nattrs = 0;
  size_t nattrs_end = 0;
  bool found = false;
  size_t begin = 0, count_pos = 0, values = 0, end = 0;
  uint64_t nvals = 0;
};

AttrSlot Locate(std::string_view bytes, std::string_view attr) {
  AttrSlot slot;
  size_t pos = 0;
  ReadVarint(bytes, &pos, &slot.nattrs);
  slot.nattrs_end = pos;
  for (uint64_t i = 0; i < slot.nattrs; ++i) {
    const size_t begin = pos;
    std::string_view name;
    uint64_t nvals = 0;
    ReadString(bytes, &pos, &name);
    const size_t count_pos = pos;
    ReadVarint(bytes, &pos, &nvals);
    const size_t values = pos;
    ValueView v;
    for (uint64_t j = 0; j < nvals; ++j) ReadValue(bytes, &pos, &v);
    const int c = name.compare(attr);
    if (c < 0) continue;
    slot.begin = begin;
    if (c == 0) {
      slot.found = true;
      slot.count_pos = count_pos;
      slot.values = values;
      slot.end = pos;
      slot.nvals = nvals;
    }
    return slot;
  }
  slot.begin = pos;
  return slot;
}

// Offset of the first value of `slot` not less than `value` (slot.end if
// none); *equal says whether it equals `value`.
size_t LocateValue(std::string_view bytes, const AttrSlot& slot,
                   ValueView value, bool* equal) {
  size_t pos = slot.values;
  *equal = false;
  for (uint64_t j = 0; j < slot.nvals; ++j) {
    const size_t at = pos;
    ValueView v;
    ReadValue(bytes, &pos, &v);
    const int c = ValueView::Compare(v, value);
    if (c >= 0) {
      *equal = c == 0;
      return at;
    }
  }
  return slot.end;
}

// `bytes` with the varint at [count_pos, count_end) rewritten to `count`
// and [from, to) replaced by `with` (count_end <= from), built in a
// string of exactly the new size.
std::string Rewrite(std::string_view bytes, size_t count_pos,
                    size_t count_end, uint64_t count, size_t from, size_t to,
                    std::string_view with) {
  std::string varint;
  ByteWriter(&varint).PutVarint(count);
  std::string out(bytes.size() - (count_end - count_pos) + varint.size() -
                      (to - from) + with.size(),
                  '\0');
  char* p = out.data();
  auto put = [&p](std::string_view piece) {
    if (piece.empty()) return;  // an empty view's data() may be null
    std::memcpy(p, piece.data(), piece.size());
    p += piece.size();
  };
  put(bytes.substr(0, count_pos));
  put(varint);
  put(bytes.substr(count_end, from - count_end));
  put(with);
  put(bytes.substr(to));
  return out;
}

}  // namespace

bool ValueList::Contains(ValueView v) const {
  for (ValueView x : *this) {
    const int c = ValueView::Compare(x, v);
    if (c >= 0) return c == 0;
  }
  return false;
}

std::vector<Value> ValueList::ToVector() const {
  std::vector<Value> out;
  out.reserve(count_);
  for (ValueView v : *this) out.push_back(v.ToValue());
  return out;
}

void EntryView::Iterator::Read() {
  uint64_t nvals = 0;
  if (!ReadString(bytes_, &pos_, &cur_.name) ||
      !ReadVarint(bytes_, &pos_, &nvals)) {
    left_ = 0;
    return;
  }
  const size_t values = pos_;
  ValueView v;
  for (uint64_t j = 0; j < nvals; ++j) {
    if (!ReadValue(bytes_, &pos_, &v)) {
      left_ = 0;
      return;
    }
  }
  cur_.values = ValueList(bytes_.substr(values, pos_ - values), nvals);
}

Result<EntryView> EntryView::Parse(std::string_view record, Entry* slow) {
  size_t pos = 0;
  std::string_view key;
  if (!ReadString(record, &pos, &key)) {
    return Status::Corruption("entry record: key past end");
  }
  bool canonical = true;
  NDQ_RETURN_IF_ERROR(Dn::CheckHierKey(key, &canonical));
  const std::string_view attrs = record.substr(pos);
  size_t end = 0;
  bool canonical_attrs = true;
  if (!CheckAttributes(attrs, &end, &canonical_attrs)) {
    return Status::Corruption("entry record: attributes past end or bad");
  }
  const EntryView raw(key, attrs.substr(0, end));
  if (canonical && canonical_attrs) return raw;
  // The slow path: rebuild the entry pair by pair, so AddValue merges
  // and sorts the attributes, sorts and dedupes the values and drops
  // empty attributes.
  NDQ_ASSIGN_OR_RETURN(Dn dn, Dn::FromHierKey(key));
  *slow = Entry(std::move(dn));
  for (const AttributeView& a : raw) {
    for (ValueView v : a.values) slow->AddValue(a.name, v);
  }
  return slow->view();
}

EntryView::Iterator EntryView::begin() const {
  size_t pos = 0;
  uint64_t nattrs = 0;
  if (!ReadVarint(attrs_, &pos, &nattrs)) nattrs = 0;
  return Iterator(attrs_, pos, nattrs);
}

ValueList EntryView::Values(std::string_view attr) const {
  for (const AttributeView& a : *this) {
    const int c = a.name.compare(attr);
    if (c == 0) return a.values;
    if (c > 0) break;  // names ascend
  }
  return ValueList();
}

Entry::Entry(const EntryView& view)
    : dn_(std::string(view.key())), attrs_(view.attribute_bytes()) {}

void Entry::AddValue(std::string_view attr, ValueView value) {
  const AttrSlot slot = Locate(attrs_, attr);
  std::string enc;
  ByteWriter w(&enc);
  if (!slot.found) {
    w.PutString(attr);
    w.PutVarint(1);
    w.PutValue(value);
    attrs_ = Rewrite(attrs_, 0, slot.nattrs_end, slot.nattrs + 1, slot.begin,
                     slot.begin, enc);
    return;
  }
  bool equal = false;
  const size_t at = LocateValue(attrs_, slot, value, &equal);
  if (equal) return;  // set semantics
  w.PutValue(value);
  attrs_ = Rewrite(attrs_, slot.count_pos, slot.values, slot.nvals + 1, at,
                   at, enc);
}

bool Entry::RemoveValue(std::string_view attr, ValueView value) {
  const AttrSlot slot = Locate(attrs_, attr);
  if (!slot.found) return false;
  bool equal = false;
  const size_t at = LocateValue(attrs_, slot, value, &equal);
  if (!equal) return false;
  if (slot.nvals == 1) {
    RemoveAttribute(attr);
    return true;
  }
  size_t next = at;
  ValueView v;
  ReadValue(attrs_, &next, &v);
  attrs_ = Rewrite(attrs_, slot.count_pos, slot.values, slot.nvals - 1, at,
                   next, {});
  return true;
}

size_t Entry::RemoveAttribute(std::string_view attr) {
  const AttrSlot slot = Locate(attrs_, attr);
  if (!slot.found) return 0;
  attrs_ = Rewrite(attrs_, 0, slot.nattrs_end, slot.nattrs - 1, slot.begin,
                   slot.end, {});
  return slot.nvals;
}

std::vector<std::string> Entry::Classes() const {
  std::vector<std::string> out;
  for (ValueView v : view().Values(kObjectClassAttr)) {
    if (v.is_string()) out.emplace_back(v.AsString());
  }
  return out;
}

size_t Entry::NumPairs() const {
  size_t n = 0;
  for (const AttributeView& a : view()) n += a.values.size();
  return n;
}

std::string Entry::ToString() const {
  std::string out = "dn: " + dn_.ToString() + "\n";
  for (const AttributeView& a : view()) {
    for (ValueView v : a.values) {
      out += a.name;
      out += ": ";
      out += v.ToString();
      out += '\n';
    }
  }
  return out;
}

}  // namespace ndq
