#include "apps/tops.h"

#include <gtest/gtest.h>

#include "store/directory_store.h"
#include "testing/paper_fixture.h"

namespace ndq {
namespace {

using apps::CallContext;
using apps::CallResolution;
using apps::QhpMatches;
using apps::TopsResolver;
using testing::D;

// A borrowing engine without an operand cache: plain read-through, so a
// test may mutate the store between resolutions.
EngineOptions Uncached() {
  EngineOptions options;
  options.cache_capacity_pages = 0;
  return options;
}

struct PaperTops {
  SimDisk disk{1024};
  SimDisk scratch{1024};
  DirectoryInstance inst = testing::PaperInstance();
  EntryStore store = EntryStore::BulkLoad(&disk, inst).TakeValue();
  Engine backend{&scratch, &store, Uncached()};
  TopsResolver resolver{&backend, D("dc=research, dc=att, dc=com")};
};

TEST(QhpMatchTest, TimeWindowAndDays) {
  Entry working(D("QHPName=w, uid=u, dc=com"));
  working.AddInt("startTime", 830);
  working.AddInt("endTime", 1730);
  Entry weekend(D("QHPName=we, uid=u, dc=com"));
  weekend.AddInt("daysOfWeek", 6);
  weekend.AddInt("daysOfWeek", 7);

  CallContext weekday_noon{"", 1200, 3};
  CallContext weekday_night{"", 2300, 3};
  CallContext saturday{"", 1200, 6};
  EXPECT_TRUE(QhpMatches(working, weekday_noon));
  EXPECT_FALSE(QhpMatches(working, weekday_night));
  EXPECT_FALSE(QhpMatches(weekend, weekday_noon));
  EXPECT_TRUE(QhpMatches(weekend, saturday));
}

TEST(QhpMatchTest, CallerAllowlist) {
  Entry vip(D("QHPName=v, uid=u, dc=com"));
  vip.AddString("callerUid", "boss");
  EXPECT_TRUE(QhpMatches(vip, CallContext{"boss", 1200, 1}));
  EXPECT_FALSE(QhpMatches(vip, CallContext{"stranger", 1200, 1}));
  EXPECT_FALSE(QhpMatches(vip, CallContext{"", 1200, 1}));
}

TEST(TopsResolverTest, WorkingHoursReachesOfficePhone) {
  // Fig. 11: during working hours, jag's workinghours QHP (priority 2)
  // matches and its highest-priority call appearance is the office phone.
  PaperTops f;
  CallResolution r =
      f.resolver.Resolve("jag", CallContext{"", 1000, 3}).TakeValue();
  ASSERT_TRUE(r.subscriber_found);
  ASSERT_TRUE(r.winning_qhp.has_value());
  EXPECT_TRUE(r.winning_qhp->HasPair("QHPName",
                                     Value::String("workinghours")));
  ASSERT_EQ(r.appearances.size(), 2u);
  EXPECT_TRUE(r.appearances[0].HasPair("CANumber",
                                       Value::String("9733608750")));
  EXPECT_TRUE(r.appearances[1].HasPair("description",
                                       Value::String("secretary")));
}

TEST(TopsResolverTest, WeekendWinsByPriority) {
  // On a Saturday noon BOTH QHPs match (weekend by day; workinghours by
  // time window), and the weekend QHP has the better (lower) priority.
  PaperTops f;
  CallResolution r =
      f.resolver.Resolve("jag", CallContext{"", 1200, 6}).TakeValue();
  ASSERT_TRUE(r.winning_qhp.has_value());
  EXPECT_TRUE(r.winning_qhp->HasPair("QHPName", Value::String("weekend")));
  // The weekend QHP has no call appearances in the fixture.
  EXPECT_TRUE(r.appearances.empty());
}

TEST(TopsResolverTest, UnknownSubscriber) {
  PaperTops f;
  CallResolution r =
      f.resolver.Resolve("nobody", CallContext{"", 1000, 3}).TakeValue();
  EXPECT_FALSE(r.subscriber_found);
  EXPECT_FALSE(r.winning_qhp.has_value());
}

TEST(TopsResolverTest, NoMatchingQhp) {
  // Weekday 0500: workinghours window hasn't opened, weekend needs 6/7.
  PaperTops f;
  CallResolution r =
      f.resolver.Resolve("jag", CallContext{"", 500, 2}).TakeValue();
  EXPECT_TRUE(r.subscriber_found);
  EXPECT_FALSE(r.winning_qhp.has_value());
}

TEST(TopsResolverTest, DynamicPolicyUpdateThroughMutableStore) {
  // Sec. 2.2: "subscriber policies can be created and modified
  // dynamically". Add a do-not-disturb QHP at top priority and watch the
  // resolution flip.
  SimDisk disk(1024), scratch(1024);
  DirectoryStore store(&disk, testing::PaperSchema());
  DirectoryInstance inst = testing::PaperInstance();
  for (const auto& [key, entry] : inst) {
    (void)key;
    ASSERT_TRUE(store.Add(entry).ok());
  }
  Engine backend(&scratch, &store, Uncached());
  TopsResolver resolver(&backend, D("dc=research, dc=att, dc=com"));
  CallContext ctx{"", 1000, 3};
  CallResolution before = resolver.Resolve("jag", ctx).TakeValue();
  ASSERT_TRUE(before.winning_qhp.has_value());
  EXPECT_TRUE(before.winning_qhp->HasPair("QHPName",
                                          Value::String("workinghours")));

  Dn jag = D("uid=jag, ou=userProfiles, dc=research, dc=att, dc=com");
  Dn dnd = jag.Child(Rdn::Single("QHPName", "dnd").TakeValue());
  Entry q(dnd);
  q.AddClass("QHP");
  q.AddString("QHPName", "dnd");
  q.AddInt("priority", 0);  // beats everything
  ASSERT_TRUE(store.Add(q).ok());

  CallResolution after = resolver.Resolve("jag", ctx).TakeValue();
  ASSERT_TRUE(after.winning_qhp.has_value());
  EXPECT_TRUE(after.winning_qhp->HasPair("QHPName", Value::String("dnd")));
  EXPECT_TRUE(after.appearances.empty());  // no CAs: unreachable

  // Remove it again: back to the office phone.
  ASSERT_TRUE(store.Remove(dnd).ok());
  CallResolution restored = resolver.Resolve("jag", ctx).TakeValue();
  EXPECT_TRUE(restored.winning_qhp->HasPair(
      "QHPName", Value::String("workinghours")));
}

}  // namespace
}  // namespace ndq
