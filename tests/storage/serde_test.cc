#include "storage/serde.h"

#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

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
    SerializeValue(v, &buf);
    ByteReader r(buf);
    Result<Value> back = DeserializeValue(&r);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, v);
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

// Seeded byte mutations of serialized DIF and random-forest records (one
// bit of a byte flipped, a truncation, an inserted separator or '='): the
// record decoders return a Status or a value, never crash, and every Dn
// they build is canonical. A flip of a component separator into a pair
// separator merges two RDNs into one whose pairs may be out of order,
// which FromHierKey must normalize. Under ASan+UBSan this is the
// decoders' fuzz check.
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
    if (!first) EXPECT_LT(prev, enc) << v;  // memcmp order == numeric order
    prev = enc;
    first = false;
  }
}

TEST(SerdeTest, OrderedValueKeyMatchesValueCompare) {
  // memcmp order on encodings must equal Value::operator< across domains
  // AND across the int/string/dn kind boundary.
  std::vector<Value> vals = {
      Value::Int(INT64_MIN), Value::Int(-5),      Value::Int(0),
      Value::Int(7),         Value::Int(INT64_MAX),
      Value::String(""),     Value::String("a"),  Value::String("ab"),
      Value::String("b"),    Value::String("\xff"),
      Value::DnRef(""),      Value::DnRef("dc=att"),
      Value::DnRef("dc=com"),
  };
  for (const Value& a : vals) {
    for (const Value& b : vals) {
      std::string ea, eb;
      AppendOrderedValueKey(a, &ea);
      AppendOrderedValueKey(b, &eb);
      EXPECT_EQ(ea < eb, a < b) << a.ToString() << " vs " << b.ToString();
      EXPECT_EQ(ea == eb, !(a < b) && !(b < a));
    }
  }
}

}  // namespace
}  // namespace ndq
