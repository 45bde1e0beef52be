#include "apps/qos.h"

#include <gtest/gtest.h>

#include "gen/dif_gen.h"
#include "testing/paper_fixture.h"

namespace ndq {
namespace {

using apps::AddressMatches;
using apps::PacketProfile;
using apps::PolicyDecision;
using apps::QosPolicyEngine;
using testing::D;

TEST(AddressMatchTest, ComponentWildcards) {
  EXPECT_TRUE(AddressMatches("204.178.16.*", "204.178.16.5"));
  EXPECT_TRUE(AddressMatches("207.140.*.*", "207.140.3.9"));
  EXPECT_TRUE(AddressMatches("*.*.*.*", "1.2.3.4"));
  EXPECT_FALSE(AddressMatches("204.178.16.*", "204.178.17.5"));
  EXPECT_FALSE(AddressMatches("204.178.16.*", "204.178.16"));  // short
  EXPECT_TRUE(AddressMatches("204.178.16.5", "204.178.16.5"));
}

// A borrowing engine without an operand cache: plain read-through.
EngineOptions Uncached() {
  EngineOptions options;
  options.cache_capacity_pages = 0;
  return options;
}

struct PaperQos {
  SimDisk disk{1024};
  SimDisk scratch{1024};
  DirectoryInstance inst = testing::PaperInstance();
  EntryStore store = EntryStore::BulkLoad(&disk, inst).TakeValue();
  Engine backend{&scratch, &store, Uncached()};
  QosPolicyEngine engine{&backend, D("dc=research, dc=att, dc=com")};
};

TEST(QosEngineTest, Figure12WeekendDenyScenario) {
  // A packet from 204.178.16.5 on a 1998 weekend: policy "dso" applies
  // and its action is denyAll... except dso has two exceptions. Neither
  // exception is applicable (they have no matching profiles in the
  // fixture), so dso survives.
  PaperQos f;
  PacketProfile packet;
  packet.source_address = "204.178.16.5";
  packet.timestamp = 19980606120000;  // a 1998 Saturday
  packet.day_of_week = 6;
  PolicyDecision d = f.engine.Match(packet).TakeValue();
  ASSERT_EQ(d.policies.size(), 1u);
  EXPECT_TRUE(d.policies[0].HasPair("SLAPolicyName",
                                    Value::String("dso")));
  ASSERT_EQ(d.actions.size(), 1u);
  EXPECT_TRUE(d.actions[0].HasPair("DSPermission", Value::String("Deny")));
}

TEST(QosEngineTest, WrongTimeNoMatch) {
  // Same packet on a 1999 weekday: the validity periods do not cover it
  // and dso specifies periods, so nothing applies.
  PaperQos f;
  PacketProfile packet;
  packet.source_address = "204.178.16.5";
  packet.timestamp = 19990202120000;
  packet.day_of_week = 2;
  PolicyDecision d = f.engine.Match(packet).TakeValue();
  EXPECT_EQ(d.applicable_policies, 0u);
  EXPECT_TRUE(d.actions.empty());
}

TEST(QosEngineTest, NonMatchingAddressNoProfiles) {
  PaperQos f;
  PacketProfile packet;
  packet.source_address = "10.0.0.1";
  packet.timestamp = 19980606120000;
  packet.day_of_week = 6;
  EXPECT_TRUE(f.engine.MatchingProfiles(packet).TakeValue().empty());
  EXPECT_TRUE(f.engine.Match(packet).TakeValue().actions.empty());
}

TEST(QosEngineTest, SmtpPacketMatchesPortedProfile) {
  // csplitOff has sourcePort 25 and SourceAddress 207.140.*.*.
  PaperQos f;
  PacketProfile packet;
  packet.source_address = "207.140.9.9";
  packet.source_port = 25;
  packet.timestamp = 19980606120000;
  packet.day_of_week = 7;
  std::vector<Entry> profiles =
      f.engine.MatchingProfiles(packet).TakeValue();
  ASSERT_EQ(profiles.size(), 1u);
  EXPECT_TRUE(profiles[0].HasPair("TPName", Value::String("csplitOff")));
  // Without the port, the ported profile no longer matches.
  packet.source_port = -1;
  EXPECT_TRUE(f.engine.MatchingProfiles(packet).TakeValue().empty());
}

TEST(QosEngineTest, PriorityResolutionOnSyntheticDomain) {
  // On the synthetic generator's domains every matched set resolves to
  // the minimum SLARulePriority among applicable policies.
  gen::DifOptions opt;
  opt.num_orgs = 1;
  opt.subdomains_per_org = 1;
  opt.policies_per_domain = 12;
  DirectoryInstance inst = gen::GenerateDif(opt);
  SimDisk disk(1024), scratch(1024);
  EntryStore store = EntryStore::BulkLoad(&disk, inst).TakeValue();
  Engine backend(&scratch, &store, Uncached());
  QosPolicyEngine engine(&backend, D("dc=sub0, dc=org0, dc=com"));

  PacketProfile packet;
  packet.source_address = "210.7.7.7";  // matches any *.*-tailed pattern
  packet.source_port = 25;
  packet.timestamp = 19980115000000;
  packet.day_of_week = 3;
  PolicyDecision d = engine.Match(packet).TakeValue();
  if (!d.policies.empty()) {
    int64_t top = d.policies[0].Values("SLARulePriority").at(0).AsInt();
    for (const Entry& p : d.policies) {
      EXPECT_EQ(p.Values("SLARulePriority").at(0).AsInt(), top);
    }
    EXPECT_GE(d.actions.size(), 1u);
  }
}

}  // namespace
}  // namespace ndq
