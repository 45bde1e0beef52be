#include "storage/serde.h"

#include <functional>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "filter/ldap_filter.h"
#include "gen/dif_gen.h"
#include "gen/random_forest.h"
#include "testing/paper_fixture.h"

namespace ndq {
namespace {

using testing::D;
using testing::PaperInstance;

TEST(SerdeTest, VarintRoundTrip) {
  std::string buf;
  ByteWriter w(&buf);
  const uint64_t values[] = {0, 1, 127, 128, 300, 1u << 20, (1ull << 62)};
  for (uint64_t v : values) w.PutVarint(v);
  ByteReader r(buf);
  for (uint64_t v : values) {
    EXPECT_EQ(r.GetVarint().ValueOrDie(), v);
  }
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerdeTest, SignedRoundTrip) {
  std::string buf;
  ByteWriter w(&buf);
  const int64_t values[] = {0, -1, 1, -64, 63, -1000000, 1000000,
                            INT64_MIN, INT64_MAX};
  for (int64_t v : values) w.PutSigned(v);
  ByteReader r(buf);
  for (int64_t v : values) {
    EXPECT_EQ(r.GetSigned().ValueOrDie(), v);
  }
}

TEST(SerdeTest, StringRoundTrip) {
  std::string buf;
  ByteWriter w(&buf);
  w.PutString("hello");
  w.PutString("");
  w.PutString(std::string(1000, 'x'));
  ByteReader r(buf);
  EXPECT_EQ(r.GetString().ValueOrDie(), "hello");
  EXPECT_EQ(r.GetString().ValueOrDie(), "");
  EXPECT_EQ(r.GetString().ValueOrDie().size(), 1000u);
}

TEST(SerdeTest, TruncationDetected) {
  std::string buf;
  ByteWriter w(&buf);
  w.PutString("hello world");
  std::string truncated = buf.substr(0, 4);
  ByteReader r(truncated);
  EXPECT_FALSE(r.GetString().ok());
  ByteReader r2("");
  EXPECT_FALSE(r2.GetVarint().ok());
  EXPECT_FALSE(r2.GetU8().ok());
}

TEST(SerdeTest, WrappingStringLengthIsCorruption) {
  // A length near 2^64 once wrapped pos + len: over these 12 bytes (a
  // 10-byte varint, then "xy") the read returned a 2-byte view and moved
  // the cursor back to byte 9.
  for (uint64_t len : {~uint64_t{0}, ~uint64_t{0} - 9, uint64_t{1} << 63}) {
    SCOPED_TRACE(len);
    std::string buf;
    ByteWriter w(&buf);
    w.PutVarint(len);
    buf += "xy";
    ASSERT_EQ(buf.size(), 12u);
    ByteReader r(buf);
    EXPECT_EQ(r.GetString().status().code(), StatusCode::kCorruption);
    EXPECT_EQ(PeekEntryKey(buf).status().code(), StatusCode::kCorruption);
    EXPECT_EQ(DeserializeEntry(buf).status().code(), StatusCode::kCorruption);
  }
}

TEST(SerdeTest, ValueRoundTrip) {
  for (const Value& v :
       {Value::Int(42), Value::Int(-7), Value::String("abc"),
        Value::String(""), Value::DnRef("dc=att, dc=com")}) {
    std::string buf;
    ByteWriter(&buf).PutValue(v);
    size_t pos = 0;
    ValueView back;
    ASSERT_TRUE(ReadValue(buf, &pos, &back));
    EXPECT_EQ(pos, buf.size());
    EXPECT_EQ(back.ToValue(), v);
  }
}

TEST(SerdeTest, EntryRoundTripWholeFixture) {
  DirectoryInstance inst = PaperInstance();
  for (const auto& [key, entry] : inst) {
    std::string buf;
    SerializeEntry(entry, &buf);
    // The sort key is peekable without full deserialization.
    EXPECT_EQ(PeekEntryKey(buf).ValueOrDie(), key);
    Result<Entry> back = DeserializeEntry(buf);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(*back, entry) << entry.dn().ToString();
  }
}

TEST(SerdeTest, CorruptEntryRejected) {
  Entry e(D("uid=x, dc=com"));
  e.AddInt("p", 1);
  std::string buf;
  SerializeEntry(e, &buf);
  EXPECT_FALSE(DeserializeEntry(buf.substr(0, buf.size() - 1)).ok());
  std::string bad = buf;
  bad[0] = '\x7f';  // nonsense key length
  EXPECT_FALSE(DeserializeEntry(bad).ok());
}

// A Dn a decoder hands back is canonical: FromHierKey maps its key to
// itself, and its text parses back to it.
void ExpectCanonical(const Dn& dn) {
  Result<Dn> again = Dn::FromHierKey(dn.HierKey());
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->HierKey(), dn.HierKey());
  Result<Dn> parsed = Dn::Parse(dn.ToString());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(*parsed, dn);
}

// Filters over the DIF's and the random forest's attributes that a view
// must answer exactly as the Entry it decodes to.
std::vector<LdapFilterPtr> ProbeFilters() {
  std::vector<LdapFilterPtr> out;
  for (const char* text :
       {"objectClass=*", "x=*", "x<5", "x>=10", "x!=3", "x=7", "tag=tag3",
        "tag=*g1*", "ref=*", "cn=*a*", "surName=*", "priority<=2",
        "(|(x>=3)(!(tag=*)))", "(&(objectClass=classA)(x<=12))"}) {
    out.push_back(LdapFilter::Parse(text).TakeValue());
  }
  return out;
}

// The view of `record` against its DeserializeEntry: the same accept or
// reject decision and status code; an accepted view copies to the same
// Entry and matches every probe filter as it does.
void ExpectViewAgreesWithDecode(const std::string& record,
                                const std::vector<LdapFilterPtr>& filters) {
  Result<Entry> entry = DeserializeEntry(record);
  Entry slow;
  Result<EntryView> view = EntryView::Parse(record, &slow);
  ASSERT_EQ(view.ok(), entry.ok())
      << view.status().ToString() << " vs " << entry.status().ToString();
  if (!entry.ok()) {
    EXPECT_EQ(view.status().code(), entry.status().code());
    return;
  }
  EXPECT_EQ(Entry(*view), *entry);
  for (const LdapFilterPtr& f : filters) {
    EXPECT_EQ(f->Matches(*view), f->Matches(*entry)) << f->ToString();
    if (f->op() == LdapFilter::Op::kAtomic) {
      EXPECT_EQ(f->atomic().Matches(*view), f->atomic().Matches(*entry));
    }
  }
}

// Seeded byte mutations of serialized DIF and random-forest records (one
// bit of a byte flipped, a truncation, an inserted separator or '='): the
// record decoders return a Status or a value, never crash, and every Dn
// they build is canonical. A flip of a component separator into a pair
// separator merges two RDNs into one whose pairs may be out of order,
// which FromHierKey must normalize. Each record also goes through
// EntryView::Parse and filter matches on the view, which must agree with
// DeserializeEntry. Under ASan+UBSan this is the decoders' fuzz check.
TEST(SerdeTest, MutatedRecordsDecodeOrFail) {
  std::vector<std::string> records;
  auto add_records = [&](const DirectoryInstance& inst) {
    for (const auto& [key, entry] : inst) {
      (void)key;
      records.emplace_back();
      SerializeEntry(entry, &records.back());
    }
  };
  gen::DifOptions dif;
  dif.num_orgs = 1;
  dif.subdomains_per_org = 1;
  add_records(gen::GenerateDif(dif));
  gen::RandomForestOptions forest;
  forest.seed = 29;
  forest.num_entries = 300;
  forest.weird_rdn_probability = 0.3;
  add_records(gen::RandomForest(forest));

  const std::vector<LdapFilterPtr> filters = ProbeFilters();
  const char kInserted[] = {kHierPairSep, kHierKeySep, '='};
  std::mt19937 rng(14);
  size_t decoded = 0, renamed = 0;
  for (int i = 0; i < 20000; ++i) {
    std::string record = records[rng() % records.size()];
    switch (rng() % 3) {
      case 0:
        record[rng() % record.size()] ^= static_cast<char>(1 << (rng() % 8));
        break;
      case 1:
        record.resize(rng() % record.size());
        break;
      default:
        record.insert(record.begin() + rng() % (record.size() + 1),
                      kInserted[rng() % 3]);
        break;
    }
    Result<Entry> entry = DeserializeEntry(record);
    if (entry.ok()) {
      ++decoded;
      ExpectCanonical(entry->dn());
    }
    ExpectViewAgreesWithDecode(record, filters);
    Result<std::string_view> key = PeekEntryKey(record);
    if (!key.ok()) continue;
    Result<Dn> dn = Dn::FromHierKey(*key);
    if (!dn.ok()) {
      EXPECT_TRUE(dn.status().code() == StatusCode::kCorruption ||
                  dn.status().code() == StatusCode::kInvalidArgument)
          << dn.status().ToString();
      continue;
    }
    ExpectCanonical(*dn);
    if (dn->HierKey() != *key) ++renamed;
  }
  // The loop reaches both outcomes, and FromHierKey's normalizing path.
  EXPECT_GT(decoded, 0u);
  EXPECT_LT(decoded, 20000u);
  EXPECT_GT(renamed, 0u);
}

// Records SerializeEntry never writes but DeserializeEntry accepts: each
// decodes, through the slow path, to the Entry its pairs build one
// AddValue at a time (attributes merged and sorted, values sorted and
// deduplicated, empty attributes dropped, a key's pairs sorted, bytes
// past the attributes ignored).
TEST(SerdeTest, NonCanonicalRecordsDecodeToTheirCanonicalEntry) {
  const std::vector<LdapFilterPtr> filters = ProbeFilters();
  const std::string key = D("cn=a, dc=com").HierKey();
  struct Case {
    const char* name;
    std::string record;
    Entry want;
  };
  std::vector<Case> cases;
  auto add = [&](const char* name, std::string_view k,
                 const std::function<void(ByteWriter*)>& attrs,
                 const std::function<void(Entry*)>& build) {
    Case c{name, {}, Entry(Dn::FromHierKey(k).TakeValue())};
    ByteWriter w(&c.record);
    w.PutString(k);
    attrs(&w);
    build(&c.want);
    cases.push_back(std::move(c));
  };
  add("swapped attributes", key,
      [](ByteWriter* w) {
        w->PutVarint(2);
        w->PutString("x");
        w->PutVarint(1);
        w->PutValue(ValueView::Int(3));
        w->PutString("cn");
        w->PutVarint(1);
        w->PutValue(Value::String("a"));
      },
      [](Entry* e) {
        e->AddInt("x", 3);
        e->AddString("cn", "a");
      });
  add("unsorted and duplicate values", key,
      [](ByteWriter* w) {
        w->PutVarint(1);
        w->PutString("x");
        w->PutVarint(5);
        for (int64_t v : {9, -4, 9, 0, -4}) w->PutValue(ValueView::Int(v));
      },
      [](Entry* e) {
        for (int64_t v : {9, -4, 0}) e->AddInt("x", v);
      });
  add("repeated attribute", key,
      [](ByteWriter* w) {
        w->PutVarint(3);
        for (const char* tag : {"tag2", "tag1", "tag2"}) {
          w->PutString("tag");
          w->PutVarint(1);
          w->PutValue(Value::String(tag));
        }
      },
      [](Entry* e) {
        e->AddString("tag", "tag1");
        e->AddString("tag", "tag2");
      });
  add("empty attribute", key,
      [](ByteWriter* w) {
        w->PutVarint(2);
        w->PutString("tag");
        w->PutVarint(0);
        w->PutString("x");
        w->PutVarint(1);
        w->PutValue(ValueView::Int(1));
      },
      [](Entry* e) { e->AddInt("x", 1); });
  add("non-minimal varints", key,
      [](ByteWriter* w) {
        w->PutU8(0x81);  // nattrs = 1 in two bytes
        w->PutU8(0x00);
        w->PutU8(0x81);  // name length 1 in three bytes
        w->PutU8(0x80);
        w->PutU8(0x00);
        w->PutU8('x');
        w->PutVarint(2);
        w->PutU8(static_cast<uint8_t>(TypeKind::kInt));
        w->PutU8(0x8a);  // zig-zag 10 (= 5) in two bytes
        w->PutU8(0x00);
        // Ten bytes whose last carries bits past the 64th, which the
        // decoder has always dropped: zig-zag 2^63 + 2 (= 2^62 + 1).
        w->PutU8(static_cast<uint8_t>(TypeKind::kInt));
        w->PutU8(0x82);
        for (int i = 0; i < 8; ++i) w->PutU8(0x80);
        w->PutU8(0x7f);
      },
      [](Entry* e) {
        e->AddInt("x", 5);
        e->AddInt("x", (int64_t{1} << 62) + 1);
      });
  add("out-of-order key pairs", "dc=com\x1f" "cn=b\x1e" "cn=a",
      [](ByteWriter* w) {
        w->PutVarint(1);
        w->PutString("cn");
        w->PutVarint(1);
        w->PutValue(Value::String("b"));
      },
      [](Entry* e) { e->AddString("cn", "b"); });
  // Bytes past the attributes have always been ignored.
  Entry plain(D("cn=a, dc=com"));
  plain.AddInt("x", 2);
  Case trailing{"trailing bytes", {}, plain};
  SerializeEntry(plain, &trailing.record);
  trailing.record += "\x03junk";
  cases.push_back(std::move(trailing));

  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    Result<Entry> got = DeserializeEntry(c.record);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, c.want) << got->ToString() << " vs " << c.want.ToString();
    std::string canonical;
    SerializeEntry(*got, &canonical);
    EXPECT_NE(canonical, c.record);
    ExpectViewAgreesWithDecode(c.record, filters);
  }
}

TEST(SerdeTest, OrderedInt64RoundTripAndOrder) {
  const int64_t samples[] = {INT64_MIN, INT64_MIN + 1, -1000000, -256, -2,
                             -1,        0,             1,        2,    255,
                             1000000,   INT64_MAX - 1, INT64_MAX};
  std::string prev;
  bool first = true;
  for (int64_t v : samples) {
    std::string enc;
    AppendOrderedInt64(v, &enc);
    EXPECT_EQ(enc.size(), 8u);
    EXPECT_EQ(DecodeOrderedInt64(enc), v);
    if (!first) {
      EXPECT_LT(prev, enc) << v;  // memcmp order == numeric order
    }
    prev = enc;
    first = false;
  }
}

}  // namespace
}  // namespace ndq
