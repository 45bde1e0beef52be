// Directory entries (Def. 3.2): the basic unit of information.

#ifndef NDQ_CORE_ENTRY_H_
#define NDQ_CORE_ENTRY_H_

#include <string>
#include <string_view>
#include <vector>

#include "core/dn.h"
#include "core/schema.h"
#include "core/value.h"
#include "core/wire.h"

namespace ndq {

class Entry;

/// \brief The values of one attribute of a record, read in place: sorted
/// and unique in Value order. Iterating yields ValueViews.
class ValueList {
 public:
  class Iterator {
   public:
    ValueView operator*() const { return cur_; }
    Iterator& operator++() {
      if (--left_ > 0 && !ReadValue(bytes_, &pos_, &cur_)) left_ = 0;
      return *this;
    }
    bool operator!=(const Iterator& other) const {
      return left_ != other.left_;
    }

   private:
    friend class ValueList;
    Iterator(std::string_view bytes, uint64_t count)
        : bytes_(bytes), left_(count) {
      if (left_ > 0 && !ReadValue(bytes_, &pos_, &cur_)) left_ = 0;
    }

    std::string_view bytes_;
    size_t pos_ = 0;
    uint64_t left_;
    ValueView cur_;
  };

  ValueList() = default;

  size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  Iterator begin() const { return Iterator(bytes_, count_); }
  Iterator end() const { return Iterator({}, 0); }

  /// True iff `v` is one of the values.
  bool Contains(ValueView v) const;
  /// Owning copies of the values, in order.
  std::vector<Value> ToVector() const;

 private:
  friend class EntryView;
  ValueList(std::string_view bytes, uint64_t count)
      : bytes_(bytes), count_(count) {}

  std::string_view bytes_;  // the encoded values
  uint64_t count_ = 0;
};

/// One attribute of a record: its name and its values.
struct AttributeView {
  std::string_view name;
  ValueList values;
};

/// \brief A checked entry record, read in place: the HierKey and the
/// attribute bytes of the wire format, both borrowed.
///
/// The attribute bytes are varint(nattrs), then per attribute its
/// length-prefixed name, varint(nvals) and its values, each a kind byte
/// followed by a zig-zag varint (int) or a length-prefixed string. A view
/// is always canonical: attributes in name order, each with at least one
/// value, values sorted and unique, every varint minimal, the key as
/// Dn::FromHierKey leaves it. Its bytes are then exactly the ones
/// SerializeEntry writes for the entry it denotes.
///
/// Scans, filters and operators read records through views instead of
/// building an Entry per record. A view is valid while the bytes it
/// borrows are.
class EntryView {
 public:
  /// Iterates the attributes in name order.
  class Iterator {
   public:
    const AttributeView& operator*() const { return cur_; }
    Iterator& operator++() {
      if (--left_ > 0) Read();
      return *this;
    }
    bool operator!=(const Iterator& other) const {
      return left_ != other.left_;
    }

   private:
    friend class EntryView;
    Iterator(std::string_view bytes, size_t pos, uint64_t count)
        : bytes_(bytes), pos_(pos), left_(count) {
      if (left_ > 0) Read();
    }
    void Read();

    std::string_view bytes_;
    size_t pos_;
    uint64_t left_;
    AttributeView cur_;
  };

  /// Checks `record` (a HierKey, then attribute bytes) in one pass,
  /// rejecting exactly what DeserializeEntry rejects with the same status
  /// code: Corruption for a short read or a bad kind byte, and the errors
  /// of Dn::FromHierKey for the key. Bytes past the attributes are
  /// ignored. A canonical record is viewed in place. Any other accepted
  /// record (attributes out of order, repeated or empty, values unsorted
  /// or repeated, a non-minimal varint, a key Dn::FromHierKey normalizes)
  /// takes the slow path: it is decoded into `*slow`, whose view is
  /// returned.
  static Result<EntryView> Parse(std::string_view record, Entry* slow);

  std::string_view key() const { return key_; }
  /// The attribute bytes: SerializeEntry's output after the key.
  std::string_view attribute_bytes() const { return attrs_; }

  Iterator begin() const;
  Iterator end() const { return Iterator({}, 0, 0); }

  /// The values of `attr`; empty if the record has none.
  ValueList Values(std::string_view attr) const;
  bool HasPair(std::string_view attr, ValueView value) const {
    return Values(attr).Contains(value);
  }
  bool HasClass(std::string_view cls) const {
    return HasPair(kObjectClassAttr, ValueView::Str(TypeKind::kString, cls));
  }

 private:
  friend class Entry;
  /// The attribute bytes of an entry with no attributes: varint(0).
  static constexpr std::string_view kNoAttributes{"\0", 1};

  EntryView(std::string_view key, std::string_view attrs)
      : key_(key), attrs_(attrs) {}

  std::string_view key_;
  std::string_view attrs_;
};

/// \brief A directory entry: a distinguished name plus a set of
/// (attribute, value) pairs.
///
/// An entry may belong to several classes (the values of its objectClass
/// attribute) and an attribute may have several values — the two forms of
/// heterogeneity Sec. 3.5 calls out. val(r) is a set of pairs as in the
/// formal model.
///
/// An Entry is its record: its only data are its Dn (which is its
/// HierKey) and one string holding its attribute bytes in the canonical
/// wire format EntryView describes. Serializing appends the key and a
/// copy of those bytes; every accessor reads them through view(), and
/// every mutator re-encodes them.
class Entry {
 public:
  Entry() : attrs_(EntryView::kNoAttributes) {}
  explicit Entry(Dn dn)
      : dn_(std::move(dn)), attrs_(EntryView::kNoAttributes) {}
  /// Copies a view's key and attribute bytes.
  explicit Entry(const EntryView& view);

  const Dn& dn() const { return dn_; }
  const std::string& HierKey() const { return dn_.HierKey(); }
  EntryView view() const { return EntryView(dn_.HierKey(), attrs_); }

  /// Inserts (attr, value) into val(r); duplicates are ignored.
  void AddValue(std::string_view attr, ValueView value);

  /// Convenience inserters.
  void AddString(std::string_view attr, std::string_view v) {
    AddValue(attr, ValueView::Str(TypeKind::kString, v));
  }
  void AddInt(std::string_view attr, int64_t v) {
    AddValue(attr, ValueView::Int(v));
  }
  void AddDnRef(std::string_view attr, const Dn& target) {
    AddValue(attr, Value::DnRef(target.ToString()));
  }
  void AddClass(std::string_view cls) { AddString(kObjectClassAttr, cls); }

  /// Removes one (attr, value) pair; returns false if absent.
  bool RemoveValue(std::string_view attr, ValueView value);
  /// Removes all values of `attr`; returns the number removed.
  size_t RemoveAttribute(std::string_view attr);

  bool HasAttribute(std::string_view attr) const {
    return !view().Values(attr).empty();
  }
  /// The (sorted) values of `attr`; empty if the entry has none.
  std::vector<Value> Values(std::string_view attr) const {
    return view().Values(attr).ToVector();
  }
  /// True iff (attr, value) is in val(r).
  bool HasPair(std::string_view attr, ValueView value) const {
    return view().HasPair(attr, value);
  }

  /// The classes of the entry = the values of its objectClass attribute.
  std::vector<std::string> Classes() const;
  bool HasClass(std::string_view cls) const { return view().HasClass(cls); }

  /// Total number of (attribute, value) pairs in val(r).
  size_t NumPairs() const;

  /// Multi-line rendering: the DN followed by "attr: value" lines, in the
  /// style of the paper's figures (and of LDIF).
  std::string ToString() const;

  /// Canonical bytes make equal sets of pairs equal strings.
  bool operator==(const Entry& other) const {
    return dn_ == other.dn_ && attrs_ == other.attrs_;
  }

 private:
  Dn dn_;
  std::string attrs_;
};

}  // namespace ndq

#endif  // NDQ_CORE_ENTRY_H_
