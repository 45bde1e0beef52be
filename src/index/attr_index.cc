#include "index/attr_index.h"

#include <algorithm>
#include <utility>

#include "storage/external_sort.h"
#include "storage/serde.h"

namespace ndq {

namespace {

constexpr char kIntTag = 'i';
constexpr char kTextTag = 's';

// Appends `s` escaped and terminated: 0x00 becomes 0x00 0xFF and the end
// is 0x00 0x01. No encoding is a proper prefix of another, byte order on
// encodings is byte order on the strings, and the encodings of the
// strings that start with p all start with p's escaped bytes.
void AppendTerminated(std::string_view s, std::string* out) {
  for (char c : s) {
    out->push_back(c);
    if (c == '\0') out->push_back('\xff');
  }
  out->append("\0\x01", 2);
}

// Moves *pos past one AppendTerminated encoding in `key`.
Status SkipTerminated(std::string_view key, size_t* pos) {
  while (*pos + 1 < key.size()) {
    if (key[*pos] != '\0') {
      ++*pos;
      continue;
    }
    const char next = key[*pos + 1];
    *pos += 2;
    if (next == '\x01') return Status::OK();
    if (next != '\xff') break;
  }
  return Status::Corruption("index key: unterminated string");
}

// The HierKey that ends index key `key`.
Result<std::string_view> EntryKeyOf(std::string_view key) {
  size_t pos = 0;
  NDQ_RETURN_IF_ERROR(SkipTerminated(key, &pos));
  if (pos == key.size()) return Status::Corruption("index key: no kind");
  const char tag = key[pos++];
  if (tag == kIntTag) {
    pos += 8;
  } else if (tag == kTextTag) {
    NDQ_RETURN_IF_ERROR(SkipTerminated(key, &pos));
  } else {
    return Status::Corruption("index key: bad kind tag");
  }
  if (pos > key.size()) return Status::Corruption("index key: short int");
  return key.substr(pos);
}

// The prefix of every index key of `attr`.
std::string AttrPrefix(std::string_view attr) {
  std::string out;
  AppendTerminated(attr, &out);
  return out;
}

// The prefix of the index keys of `attr`'s values of one kind.
std::string KindPrefix(std::string_view attr, char tag) {
  std::string out = AttrPrefix(attr);
  out.push_back(tag);
  return out;
}

std::string IntPrefix(std::string_view attr, int64_t v) {
  std::string out = KindPrefix(attr, kIntTag);
  AppendOrderedInt64(v, &out);
  return out;
}

std::string TextPrefix(std::string_view attr, std::string_view s) {
  std::string out = KindPrefix(attr, kTextTag);
  AppendTerminated(s, &out);
  return out;
}

// The least string above every string that starts with `prefix`. Index
// prefixes hold a byte below 0xFF, so the result is never empty (which
// ScanRange would read as unbounded).
std::string PrefixEnd(std::string prefix) {
  while (!prefix.empty() && prefix.back() == '\xff') prefix.pop_back();
  if (!prefix.empty()) {
    prefix.back() =
        static_cast<char>(static_cast<unsigned char>(prefix.back()) + 1);
  }
  return prefix;
}

// The sort key of an index record: the record is its PutString'd key.
std::string_view RecordKey(std::string_view record) {
  Result<std::string_view> key = PeekEntryKey(record);
  return key.ok() ? *key : std::string_view();
}

}  // namespace

AttributeIndexes::~AttributeIndexes() { (void)run_.Destroy(); }

AttributeIndexes::AttributeIndexes(AttributeIndexes&& other) noexcept
    : run_(std::exchange(other.run_, EntryStore())),
      suffixes_(std::move(other.suffixes_)),
      text_keys_(std::move(other.text_keys_)) {}

AttributeIndexes& AttributeIndexes::operator=(
    AttributeIndexes&& other) noexcept {
  if (this != &other) {
    (void)run_.Destroy();
    run_ = std::exchange(other.run_, EntryStore());
    suffixes_ = std::move(other.suffixes_);
    text_keys_ = std::move(other.text_keys_);
  }
  return *this;
}

Result<AttributeIndexes> AttributeIndexes::Build(Disk* disk,
                                                 const EntryStore& store,
                                                 const IndexSpec& spec) {
  AttributeIndexes idx;
  for (const std::string& a : spec.attributes) idx.suffixes_.try_emplace(a);

  ExternalSortOptions sort;
  sort.format = PageFormat::kKeyPrefix;
  ExternalSorter sorter(disk, RecordKey, sort);
  std::string key;
  std::string record;
  Entry slow;
  NDQ_RETURN_IF_ERROR(store.ScanRange(
      "", "", [&](std::string_view stored) -> Status {
        NDQ_ASSIGN_OR_RETURN(EntryView e, EntryView::Parse(stored, &slow));
        const uint64_t id = idx.text_keys_.size();
        bool has_text = false;
        for (const AttributeView& a : e) {
          auto it = idx.suffixes_.find(a.name);
          if (it == idx.suffixes_.end()) continue;
          for (ValueView v : a.values) {
            key.clear();
            AppendTerminated(a.name, &key);
            if (v.is_int()) {
              key.push_back(kIntTag);
              AppendOrderedInt64(v.AsInt(), &key);
            } else {
              key.push_back(kTextTag);
              AppendTerminated(v.AsString(), &key);
              it->second.Add(v.AsString(), id);
              has_text = true;
            }
            key.append(e.key());
            record.clear();
            ByteWriter(&record).PutString(key);
            NDQ_RETURN_IF_ERROR(sorter.Add(record));
          }
        }
        if (has_text) idx.text_keys_.emplace_back(e.key());
        return Status::OK();
      }));
  for (auto& [attr, suffix] : idx.suffixes_) {
    (void)attr;
    suffix.Build();
  }

  NDQ_ASSIGN_OR_RETURN(Run sorted, sorter.Finish());
  // Equal records (a string and a DN value with the same bytes on one
  // entry) are written once: a segment's keys strictly increase.
  RunReader reader(disk, sorted);
  std::string prev;
  bool first = true;
  Result<EntryStore> built = EntryStore::FromStream(
      disk, [&](std::string* out) -> Result<bool> {
        while (true) {
          NDQ_ASSIGN_OR_RETURN(bool more, reader.Next(out));
          if (!more) return false;
          if (first || *out != prev) break;
        }
        first = false;
        prev = *out;
        return true;
      });
  Status freed = FreeRun(disk, &sorted);
  NDQ_RETURN_IF_ERROR(built.status());
  idx.run_ = built.TakeValue();  // freed with idx on the error path below
  NDQ_RETURN_IF_ERROR(freed);
  return idx;
}

Status AttributeIndexes::CollectRange(std::string_view start,
                                      std::string_view end,
                                      std::vector<std::string>* keys) const {
  return run_.ScanRange(start, end, [&](std::string_view record) -> Status {
    NDQ_ASSIGN_OR_RETURN(std::string_view key, PeekEntryKey(record));
    NDQ_ASSIGN_OR_RETURN(std::string_view entry_key, EntryKeyOf(key));
    keys->emplace_back(entry_key);
    return Status::OK();
  });
}

Result<std::optional<std::vector<std::string>>> AttributeIndexes::Candidates(
    const AtomicFilter& filter) const {
  using Keys = std::vector<std::string>;
  using Kind = AtomicFilter::Kind;
  if (filter.kind() == Kind::kTrue) return std::optional<Keys>();
  auto suffix = suffixes_.find(filter.attr());
  if (suffix == suffixes_.end()) return std::optional<Keys>();
  const std::string& attr = filter.attr();
  Keys keys;
  auto collect_prefix = [&](const std::string& prefix) {
    return CollectRange(prefix, PrefixEnd(prefix), &keys);
  };
  switch (filter.kind()) {
    case Kind::kTrue:
      break;
    case Kind::kPresence: {
      NDQ_RETURN_IF_ERROR(collect_prefix(AttrPrefix(attr)));
      break;
    }
    case Kind::kIntCmp: {
      const std::string ints = KindPrefix(attr, kIntTag);
      const std::string ints_end = PrefixEnd(ints);
      const std::string at = IntPrefix(attr, filter.int_rhs());
      const std::string after = PrefixEnd(at);
      switch (filter.cmp_op()) {
        case CompareOp::kEq:
          NDQ_RETURN_IF_ERROR(CollectRange(at, after, &keys));
          break;
        case CompareOp::kLt:
          NDQ_RETURN_IF_ERROR(CollectRange(ints, at, &keys));
          break;
        case CompareOp::kLe:
          NDQ_RETURN_IF_ERROR(CollectRange(ints, after, &keys));
          break;
        case CompareOp::kGt:
          NDQ_RETURN_IF_ERROR(CollectRange(after, ints_end, &keys));
          break;
        case CompareOp::kGe:
          NDQ_RETURN_IF_ERROR(CollectRange(at, ints_end, &keys));
          break;
        case CompareOp::kNe:
          NDQ_RETURN_IF_ERROR(CollectRange(ints, at, &keys));
          NDQ_RETURN_IF_ERROR(CollectRange(after, ints_end, &keys));
          break;
      }
      break;
    }
    case Kind::kEquals: {
      const Value& rhs = filter.equals_rhs();
      if (rhs.is_int()) {
        NDQ_RETURN_IF_ERROR(collect_prefix(IntPrefix(attr, rhs.AsInt())));
        // An int literal also matches its string spelling.
        NDQ_RETURN_IF_ERROR(collect_prefix(TextPrefix(attr, rhs.ToString())));
      } else {
        NDQ_RETURN_IF_ERROR(collect_prefix(TextPrefix(attr, rhs.AsString())));
      }
      break;
    }
    case Kind::kSubstring: {
      // Use the longest fixed fragment of the pattern as the needle; the
      // full wildcard match is re-verified against the fetched entries.
      std::string longest;
      for (const std::string& part : filter.pattern_parts()) {
        if (part.size() > longest.size()) longest = part;
      }
      NDQ_ASSIGN_OR_RETURN(std::vector<uint64_t> ids,
                           suffix->second.Search(longest));
      for (uint64_t id : ids) keys.push_back(text_keys_[id]);
      return std::optional<Keys>(std::move(keys));  // ids sort as keys do
    }
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return std::optional<Keys>(std::move(keys));
}

Result<std::optional<Run>> AttributeIndexes::EvalAtomic(
    Disk* disk, const EntryStore& store, const Dn& base, Scope scope,
    const AtomicFilter& filter) const {
  NDQ_ASSIGN_OR_RETURN(std::optional<std::vector<std::string>> candidates,
                       Candidates(filter));
  if (!candidates.has_value()) {
    return std::optional<Run>();  // fall back to range scan
  }
  const std::string& base_key = base.HierKey();
  std::erase_if(*candidates, [&](const std::string& key) {
    switch (scope) {
      case Scope::kBase:
        return key != base_key;
      case Scope::kOne:
        return key != base_key && !KeyIsParent(base_key, key);
      case Scope::kSub:
        return !KeyInSubtree(base_key, key);
    }
    return true;
  });
  // The candidates are sorted, so one walk over the store reads each of
  // its pages at most once. A record is checked and matched as the scan
  // does (substring candidates need the re-check; the others pass it)
  // and written out as read.
  RunWriter writer(disk, PageFormat::kKeyPrefix);
  Entry slow;
  Status s = store.ScanKeys(
      *candidates, [&](std::string_view record) -> Status {
        NDQ_ASSIGN_OR_RETURN(EntryView entry,
                             EntryView::Parse(record, &slow));
        return filter.Matches(entry) ? writer.Add(record) : Status::OK();
      });
  if (s.code() == StatusCode::kNotFound) {
    return Status::Corruption("indexed key missing from store: " +
                              s.message());
  }
  NDQ_RETURN_IF_ERROR(s);
  NDQ_ASSIGN_OR_RETURN(Run out, writer.Finish());
  return std::optional<Run>(std::move(out));
}

}  // namespace ndq
