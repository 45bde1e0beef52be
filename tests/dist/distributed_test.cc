#include "dist/distributed.h"

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "gen/dif_gen.h"
#include "query/parser.h"
#include "query/reference.h"
#include "testing/paper_fixture.h"

namespace ndq {
namespace {

using testing::D;

// The paper fixture split as in Figure 1's dotted server boundaries:
// one server for dc=com + dc=att, one for the research subdomain.
DistributedDirectory PaperFleet() {
  DirectoryInstance inst = testing::PaperInstance();
  return DistributedDirectory::Build(
             inst, TopologyConfig::Parse(
                       "shard root-server dc=com\n"
                       "shard research-server dc=research, dc=att, dc=com\n")
                       .TakeValue())
      .TakeValue();
}

TEST(DistributedTest, PartitionByDeepestContext) {
  DistributedDirectory fleet = PaperFleet();
  ASSERT_EQ(fleet.servers().size(), 2u);
  // root-server: dc=com, dc=att (2 entries); research-server: the rest.
  const auto& servers = fleet.servers();
  size_t total = 0;
  for (const auto& s : servers) total += s->num_entries();
  EXPECT_EQ(total, 23u);
  EXPECT_EQ(fleet.FindServer("root-server")->num_entries(), 2u);
  EXPECT_EQ(fleet.FindServer("research-server")->num_entries(), 21u);
}

TEST(DistributedTest, UncoveredEntryRejected) {
  DirectoryInstance inst = testing::PaperInstance();
  Result<DistributedDirectory> r = DistributedDirectory::Build(
      inst, TopologyConfig::Parse("shard only-att dc=att, dc=com").TakeValue());
  EXPECT_FALSE(r.ok());  // dc=com itself is uncovered
}

TEST(DistributedTest, OwnersForRouting) {
  DistributedDirectory fleet = PaperFleet();
  // Base inside the delegated subtree: only the research server.
  EXPECT_EQ(fleet.OwnersFor(D("ou=userProfiles, dc=research, dc=att, "
                              "dc=com"),
                            Scope::kSub),
            (std::vector<std::string>{"research-server"}));
  // Base at the top with scope sub: both.
  EXPECT_EQ(fleet.OwnersFor(D("dc=com"), Scope::kSub).size(), 2u);
  // Base scope at the top: root server only.
  EXPECT_EQ(fleet.OwnersFor(D("dc=com"), Scope::kBase),
            (std::vector<std::string>{"root-server"}));
  // Scope one at dc=att crosses the delegation boundary (its child
  // dc=research is held by the delegate).
  EXPECT_EQ(fleet.OwnersFor(D("dc=att, dc=com"), Scope::kOne).size(), 2u);
}

// Every paper query evaluated distributed == reference on the global
// instance.
TEST(DistributedTest, AgreesWithGlobalReference) {
  DirectoryInstance global = testing::PaperInstance();
  DistributedDirectory fleet = PaperFleet();
  const char* queries[] = {
      "(dc=att, dc=com ? sub ? surName=jagadish)",
      "(- (dc=att, dc=com ? sub ? surName=jagadish)"
      "   (dc=research, dc=att, dc=com ? sub ? surName=jagadish))",
      "(c (dc=att, dc=com ? sub ? objectClass=organizationalUnit)"
      "   (dc=att, dc=com ? sub ? surName=jagadish))",
      "(dc (dc=att, dc=com ? sub ? objectClass=dcObject)"
      "    (& (dc=att, dc=com ? sub ? sourcePort=25)"
      "       (dc=att, dc=com ? sub ? objectClass=trafficProfile))"
      "    (dc=att, dc=com ? sub ? objectClass=dcObject))",
      "(dv (dc=att, dc=com ? sub ? objectClass=SLADSAction)"
      "    (g (vd (dc=att, dc=com ? sub ? objectClass=SLAPolicyRules)"
      "           (& (dc=att, dc=com ? sub ? sourcePort=25)"
      "              (dc=att, dc=com ? sub ? objectClass=trafficProfile))"
      "           SLATPRef)"
      "       min(SLARulePriority)=min(min(SLARulePriority)))"
      "    SLADSActRef)",
      "(ldap dc=com ? sub ? (&(objectClass=QHP)(!(priority>1))))",
  };
  for (const char* text : queries) {
    SCOPED_TRACE(text);
    QueryPtr q = ParseQuery(text).TakeValue();
    std::vector<Entry> dist_result = fleet.Execute(*q).TakeValue();
    std::vector<const Entry*> ref =
        EvaluateReference(*q, global).TakeValue();
    ASSERT_EQ(dist_result.size(), ref.size());
    for (size_t i = 0; i < ref.size(); ++i) {
      EXPECT_EQ(dist_result[i], *ref[i]);
    }
  }
}

TEST(DistributedTest, NetworkAccounting) {
  DistributedDirectory fleet = PaperFleet();
  fleet.ResetStats();
  QueryPtr q = ParseQuery(
                   "(& (dc=com ? sub ? objectClass=dcObject)"
                   "   (dc=research, dc=att, dc=com ? sub ? "
                   "objectClass=dcObject))")
                   .TakeValue();
  ASSERT_TRUE(fleet.Execute(*q).ok());
  const NetStats& net = fleet.net_stats();
  // First leaf touches both servers; second only the research server.
  EXPECT_EQ(net.servers_contacted, 3u);
  EXPECT_EQ(net.messages, 6u);
  EXPECT_GT(net.bytes_shipped, 0u);
  // 4 dcObjects from leaf 1 + 2 from leaf 2.
  EXPECT_EQ(net.records_shipped, 6u);
}

TEST(DistributedTest, QueryShippingForSubtreeLocalQueries) {
  DistributedDirectory fleet = PaperFleet();
  // Entirely inside the research context: shipped whole.
  QueryPtr local = ParseQuery(
                       "(c (dc=research, dc=att, dc=com ? sub ? "
                       "objectClass=TOPSSubscriber)"
                       "   (dc=research, dc=att, dc=com ? sub ? "
                       "objectClass=QHP) count($2)>1)")
                       .TakeValue();
  fleet.ResetStats();
  std::vector<Entry> r = fleet.Execute(*local).TakeValue();
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(fleet.net_stats().queries_shipped, 1u);
  EXPECT_EQ(fleet.net_stats().messages, 2u);  // single round trip
  EXPECT_EQ(fleet.net_stats().records_shipped, 1u);  // final result only
  // The coordinator's operators never ran.
  EXPECT_EQ(fleet.coordinator_disk()->stats().page_writes, 1u);

  // With shipping disabled: same answer, more traffic.
  fleet.set_query_shipping(false);
  fleet.ResetStats();
  std::vector<Entry> r2 = fleet.Execute(*local).TakeValue();
  ASSERT_EQ(r2.size(), 1u);
  EXPECT_EQ(r2[0], r[0]);
  EXPECT_EQ(fleet.net_stats().queries_shipped, 0u);
  EXPECT_GT(fleet.net_stats().records_shipped, 1u);

  // A query spanning servers is never shipped whole.
  fleet.set_query_shipping(true);
  QueryPtr spanning = ParseQuery(
                          "(& (dc=com ? sub ? objectClass=dcObject)"
                          "   (dc=research, dc=att, dc=com ? sub ? "
                          "objectClass=dcObject))")
                          .TakeValue();
  EXPECT_EQ(fleet.SingleOwner(*spanning), nullptr);
  fleet.ResetStats();
  ASSERT_TRUE(fleet.Execute(*spanning).ok());
  EXPECT_EQ(fleet.net_stats().queries_shipped, 0u);
}

TEST(DistributedTest, LargerFleetAgreesOnDifWorkload) {
  gen::DifOptions opt;
  opt.num_orgs = 2;
  opt.subdomains_per_org = 2;
  DirectoryInstance global = gen::GenerateDif(opt);
  DistributedDirectory fleet =
      DistributedDirectory::Build(
          global, TopologyConfig::Parse("shard root dc=com\n"
                                        "shard org0 dc=org0, dc=com\n"
                                        "shard org1 dc=org1, dc=com\n"
                                        "shard sub0 dc=sub0, dc=org0, dc=com\n"
                                        "shard sub3 dc=sub3, dc=org1, dc=com\n")
                      .TakeValue())
          .TakeValue();
  size_t total = 0;
  for (const auto& s : fleet.servers()) total += s->num_entries();
  EXPECT_EQ(total, global.size());

  const char* queries[] = {
      "(dc=com ? sub ? objectClass=TOPSSubscriber)",
      "(c (dc=com ? sub ? objectClass=TOPSSubscriber)"
      "   (dc=com ? sub ? objectClass=QHP) count($2)>=3)",
      "(vd (dc=com ? sub ? objectClass=SLAPolicyRules)"
      "    (& (dc=com ? sub ? sourcePort=25)"
      "       (dc=com ? sub ? objectClass=trafficProfile)) SLATPRef)",
      "(a (dc=com ? sub ? objectClass=callAppearance)"
      "   (dc=org0, dc=com ? sub ? objectClass=TOPSSubscriber))",
  };
  for (const char* text : queries) {
    SCOPED_TRACE(text);
    QueryPtr q = ParseQuery(text).TakeValue();
    std::vector<Entry> dist_result = fleet.Execute(*q).TakeValue();
    std::vector<const Entry*> ref =
        EvaluateReference(*q, global).TakeValue();
    ASSERT_EQ(dist_result.size(), ref.size());
    for (size_t i = 0; i < ref.size(); ++i) {
      EXPECT_EQ(dist_result[i], *ref[i]);
    }
  }
}

}  // namespace
}  // namespace ndq
