#include "core/ldif.h"

#include <gtest/gtest.h>

#include "testing/paper_fixture.h"

namespace ndq {
namespace {

using testing::D;
using testing::PaperInstance;
using testing::PaperSchema;

TEST(LdifTest, RoundTripPaperInstance) {
  DirectoryInstance inst = PaperInstance();
  std::string text = WriteLdif(inst);
  DirectoryInstance reloaded(PaperSchema());
  Result<size_t> n = LoadLdif(text, &reloaded);
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(*n, inst.size());
  // Every entry round-trips exactly.
  for (const auto& [key, entry] : inst) {
    const Entry* back = reloaded.FindByKey(key);
    ASSERT_NE(back, nullptr) << entry.dn().ToString();
    EXPECT_EQ(*back, entry);
  }
}

TEST(LdifTest, ParsesTypedValues) {
  Schema s = PaperSchema();
  std::string text =
      "dn: QHPName=weekend, uid=jag, dc=com\n"
      "objectClass: QHP\n"
      "QHPName: weekend\n"
      "priority: 1\n"
      "daysOfWeek: 6\n"
      "daysOfWeek: 7\n";
  Result<std::vector<Entry>> r = ParseLdif(s, text);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->size(), 1u);
  const Entry& e = (*r)[0];
  EXPECT_TRUE(e.HasPair("priority", Value::Int(1)));
  EXPECT_EQ(e.Values("daysOfWeek").size(), 2u);
}

TEST(LdifTest, DnValuedAttributesNormalized) {
  Schema s = PaperSchema();
  std::string text =
      "dn: SLAPolicyName=p, dc=com\n"
      "objectClass: SLAPolicyRules\n"
      "SLAPolicyName: p\n"
      "SLATPRef: TPName=t,dc=com\n";
  Result<std::vector<Entry>> r = ParseLdif(s, text);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)[0].Values("SLATPRef").at(0).AsString(),
            "TPName=t, dc=com");
}

TEST(LdifTest, MultipleRecordsSeparatedByBlankLines) {
  Schema s = PaperSchema();
  std::string text =
      "dn: dc=com\nobjectClass: dcObject\ndc: com\n"
      "\n"
      "# a comment\n"
      "dn: dc=org\nobjectClass: dcObject\ndc: org\n";
  Result<std::vector<Entry>> r = ParseLdif(s, text);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->size(), 2u);
}

TEST(LdifTest, Errors) {
  Schema s = PaperSchema();
  EXPECT_FALSE(ParseLdif(s, "uid: jag\n").ok());  // attribute before dn
  EXPECT_FALSE(ParseLdif(s, "dn: dc=com\nnoColonHere\n").ok());
  EXPECT_FALSE(ParseLdif(s, "dn: dc=com\nunknownAttr: x\n").ok());
  EXPECT_FALSE(ParseLdif(s, "dn: dc=com\npriority: notanint\n").ok());
  // dn inside a record.
  EXPECT_FALSE(ParseLdif(s, "dn: dc=com\ndn: dc=org\n").ok());
}

TEST(LdifTest, LoadValidatesThroughInstance) {
  DirectoryInstance inst(PaperSchema());
  // Entry lacks objectClass -> instance validation rejects it.
  std::string text = "dn: dc=com\ndc: com\n";
  EXPECT_FALSE(LoadLdif(text, &inst).ok());
}

}  // namespace
}  // namespace ndq
