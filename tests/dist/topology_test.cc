// Scale-out sharding: the declarative TopologyConfig text form, routing
// across nested delegations at shard boundaries, replica failover
// byte-identity against a healthy fleet, the streaming scatter-gather
// merge against the reference semantics, and how the fleet's traces
// attribute I/O and shipping.

#include "dist/topology.h"

#include <atomic>
#include <chrono>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "dist/distributed.h"
#include "gen/dif_gen.h"
#include "query/parser.h"
#include "query/reference.h"
#include "storage/fault_injector.h"
#include "store/stats.h"
#include "testing/paper_fixture.h"

namespace ndq {
namespace {

using testing::D;

TEST(TopologyConfigTest, ParseDirectivesAndOverrides) {
  TopologyConfig cfg =
      TopologyConfig::Parse(
          "# the paper fixture's Figure 1 split, replicated\n"
          "replicas 2\n"
          "page_size 512\n"
          "\n"
          "shard root dc=com\n"
          "shard research replicas=3 dc=research, dc=att, dc=com\n")
          .TakeValue();
  EXPECT_EQ(cfg.replicas, 2u);
  EXPECT_EQ(cfg.page_size, 512u);
  ASSERT_EQ(cfg.shards.size(), 2u);
  EXPECT_EQ(cfg.shards[0].name, "root");
  EXPECT_EQ(cfg.shards[0].context, "dc=com");
  EXPECT_EQ(cfg.shards[1].context, "dc=research, dc=att, dc=com");
  EXPECT_EQ(cfg.ReplicasFor(0), 2u);  // inherits the default
  EXPECT_EQ(cfg.ReplicasFor(1), 3u);  // per-shard override
}

TEST(TopologyConfigTest, ToStringRoundTrips) {
  TopologyConfig cfg =
      TopologyConfig::Parse(
          "replicas 2\n"
          "shard root dc=com\n"
          "shard att replicas=1 dc=att, dc=com\n")
          .TakeValue();
  TopologyConfig again = TopologyConfig::Parse(cfg.ToString()).TakeValue();
  EXPECT_EQ(again.ToString(), cfg.ToString());
  EXPECT_EQ(again.shards.size(), cfg.shards.size());
  EXPECT_EQ(again.replicas, cfg.replicas);
  EXPECT_EQ(again.page_size, cfg.page_size);
}

TEST(TopologyConfigTest, ContextKeepsAnEscapedTrailingSpace) {
  // Dn::ToString escapes a value's trailing space, so the context text
  // ends in backslash-space: the line's trailing blanks go, that space
  // stays.
  Dn spaced = Dn::Make({Rdn::Single("dc", "x ").TakeValue()}).TakeValue();
  for (const char* tail : {"", "  ", " \t\r"}) {
    SCOPED_TRACE(tail);
    TopologyConfig cfg =
        TopologyConfig::Parse("shard a " + spaced.ToString() + tail + "\n")
            .TakeValue();
    EXPECT_EQ(cfg.shards[0].context, spaced.ToString());
    EXPECT_EQ(RoutingTable::Resolve(cfg).TakeValue().context(0), spaced);
  }
  // An escaped backslash escapes nothing after it: the space is a blank.
  Dn slash = Dn::Make({Rdn::Single("dc", "x\\").TakeValue()}).TakeValue();
  TopologyConfig cfg =
      TopologyConfig::Parse("shard a " + slash.ToString() + " \n").TakeValue();
  EXPECT_EQ(cfg.shards[0].context, slash.ToString());
  EXPECT_EQ(RoutingTable::Resolve(cfg).TakeValue().context(0), slash);
}

TEST(TopologyConfigTest, ParseRejectsBadInput) {
  EXPECT_FALSE(TopologyConfig::Parse("bogus 3\n").ok());
  EXPECT_FALSE(TopologyConfig::Parse("replicas 0\nshard a dc=com\n").ok());
  EXPECT_FALSE(TopologyConfig::Parse("shard a\n").ok());  // no context dn
  EXPECT_FALSE(TopologyConfig::Parse("").ok());           // no shards
  // Duplicate names and unparseable dns surface when the routing table
  // resolves (i.e. at Build).
  TopologyConfig dup =
      TopologyConfig::Parse("shard a dc=com\nshard a dc=att, dc=com\n")
          .TakeValue();
  EXPECT_FALSE(RoutingTable::Resolve(dup).ok());
  TopologyConfig bad_dn =
      TopologyConfig::Parse("shard a ?!not-a-dn\n").TakeValue();
  EXPECT_FALSE(RoutingTable::Resolve(bad_dn).ok());

  // Counts neither wrap around nor escape their bounds: 2^64 + 1 once
  // parsed as 1, and a terabyte page size once parsed and then aborted
  // the process on the first page allocation.
  const std::string too_many =
      std::to_string(TopologyConfig::kMaxReplicas + 1);
  const std::string too_small =
      std::to_string(TopologyConfig::kMinPageSize - 1);
  const std::string too_big = std::to_string(TopologyConfig::kMaxPageSize + 1);
  for (const std::string& text : std::vector<std::string>{
           "replicas 18446744073709551617\nshard a dc=com\n",
           "shard a replicas=18446744073709551617 dc=com\n",
           "replicas " + too_many + "\nshard a dc=com\n",
           "shard a replicas=" + too_many + " dc=com\n",
           "page_size 1099511627776\nshard a dc=com\n",
           "page_size 18446744073709551616\nshard a dc=com\n",
           "page_size " + too_small + "\nshard a dc=com\n",
           "page_size " + too_big + "\nshard a dc=com\n",
       }) {
    SCOPED_TRACE(text);
    EXPECT_EQ(TopologyConfig::Parse(text).status().code(),
              StatusCode::kInvalidArgument);
  }
  // The bounds themselves parse, and cover the page sizes the suites use.
  for (size_t page_size : {TopologyConfig::kMinPageSize, size_t{512},
                           size_t{4096}, TopologyConfig::kMaxPageSize}) {
    TopologyConfig ok =
        TopologyConfig::Parse("replicas " +
                              std::to_string(TopologyConfig::kMaxReplicas) +
                              "\npage_size " + std::to_string(page_size) +
                              "\nshard a dc=com\n")
            .TakeValue();
    EXPECT_EQ(ok.page_size, page_size);
    EXPECT_TRUE(RoutingTable::Resolve(ok).ok());
  }
  // A config changed in code meets the same bounds when it resolves.
  TopologyConfig huge_pages =
      TopologyConfig::Parse("shard a dc=com").TakeValue();
  huge_pages.page_size = size_t{1} << 40;
  EXPECT_EQ(RoutingTable::Resolve(huge_pages).status().code(),
            StatusCode::kInvalidArgument);
  TopologyConfig many = TopologyConfig::Parse("shard a dc=com").TakeValue();
  many.shards[0].replicas = TopologyConfig::kMaxReplicas + 1;
  EXPECT_EQ(RoutingTable::Resolve(many).status().code(),
            StatusCode::kInvalidArgument);
}

// A three-level delegation chain: root owns dc=com, org0 is delegated out
// of root, sub0 is delegated out of org0. Routing must chase the chain
// exactly as a DNS resolver would.
TopologyConfig NestedTopology(size_t replicas = 1) {
  TopologyConfig cfg =
      TopologyConfig::Parse(
          "shard root dc=com\n"
          "shard org0 dc=org0, dc=com\n"
          "shard sub0 dc=sub0, dc=org0, dc=com\n"
          "shard org1 dc=org1, dc=com\n")
          .TakeValue();
  cfg.replicas = replicas;
  return cfg;
}

DistributedDirectory NestedFleet(const DirectoryInstance& global,
                                 size_t replicas = 1) {
  return DistributedDirectory::Build(global, NestedTopology(replicas))
      .TakeValue();
}

DirectoryInstance SmallDif() {
  gen::DifOptions opt;
  opt.num_orgs = 2;
  opt.subdomains_per_org = 2;
  return gen::GenerateDif(opt);
}

TEST(TopologyRoutingTest, OwnersForNestedDelegations) {
  DirectoryInstance global = SmallDif();
  DistributedDirectory fleet = NestedFleet(global);

  // Subtree at the top touches every shard, in shard order.
  EXPECT_EQ(fleet.OwnersFor(D("dc=com"), Scope::kSub),
            (std::vector<std::string>{"root", "org0", "sub0", "org1"}));
  // Subtree at org0 crosses into its own nested delegation (sub0) but
  // never into the sibling org.
  EXPECT_EQ(fleet.OwnersFor(D("dc=org0, dc=com"), Scope::kSub),
            (std::vector<std::string>{"org0", "sub0"}));
  // Base scope resolves to the deepest covering context alone.
  EXPECT_EQ(fleet.OwnersFor(D("dc=sub0, dc=org0, dc=com"), Scope::kBase),
            (std::vector<std::string>{"sub0"}));
  EXPECT_EQ(fleet.OwnersFor(D("dc=org0, dc=com"), Scope::kBase),
            (std::vector<std::string>{"org0"}));
  // kOne crosses exactly one boundary: org0's children include the sub0
  // context root, and root's children include both org context roots —
  // but never the grandchild sub0.
  EXPECT_EQ(fleet.OwnersFor(D("dc=org0, dc=com"), Scope::kOne),
            (std::vector<std::string>{"org0", "sub0"}));
  EXPECT_EQ(fleet.OwnersFor(D("dc=com"), Scope::kOne),
            (std::vector<std::string>{"root", "org0", "org1"}));
  // A base inside a delegate's subtree never routes to the parent shard.
  EXPECT_EQ(fleet.OwnersFor(D("ou=subscribers, dc=sub0, dc=org0, dc=com"),
                            Scope::kSub),
            (std::vector<std::string>{"sub0"}));
}

TEST(TopologyRoutingTest, PartitionRespectsNestedBoundaries) {
  DirectoryInstance global = SmallDif();
  DistributedDirectory fleet = NestedFleet(global, /*replicas=*/2);
  size_t total = 0;
  for (const auto& shard : fleet.shards()) {
    EXPECT_EQ(shard->num_replicas(), 2u);
    // Replicas hold identical partitions.
    EXPECT_EQ(shard->replica(0)->num_entries(),
              shard->replica(1)->num_entries());
    total += shard->num_entries();
  }
  EXPECT_EQ(total, global.size());
  // sub0's entries live on sub0, not on org0 (the delegation carved them
  // out of the parent context).
  Shard* org0 = fleet.FindShard("org0");
  Shard* sub0 = fleet.FindShard("sub0");
  ASSERT_NE(org0, nullptr);
  ASSERT_NE(sub0, nullptr);
  EXPECT_GT(sub0->num_entries(), 0u);
  std::vector<const Entry*> under_sub0 =
      global.EntriesInScope(D("dc=sub0, dc=org0, dc=com"), Scope::kSub);
  EXPECT_EQ(sub0->num_entries(), under_sub0.size());
}

std::vector<std::string> ScanAll(const EntryStore& store) {
  std::vector<std::string> records;
  Status s = store.ScanRange("", "", [&](std::string_view rec) -> Status {
    records.emplace_back(rec);
    return Status::OK();
  });
  EXPECT_TRUE(s.ok()) << s.ToString();
  return records;
}

// The fleet build's oracle. Each shard is built once and copied to its
// other replicas; every replica must still hold exactly what a separate
// bulk load of the shard's partition would, page for page. The reference
// partitions are built the way the fleet once built them: one
// DirectoryInstance per shard, filled by the routing table's owner.
TEST(FleetBuildTest, ReplicasMatchPerShardBulkLoad) {
  DirectoryInstance global = SmallDif();
  for (size_t replicas : {size_t{1}, size_t{2}, size_t{3}}) {
    SCOPED_TRACE("R=" + std::to_string(replicas));
    const TopologyConfig cfg = NestedTopology(replicas);
    DistributedDirectory fleet =
        DistributedDirectory::Build(global, cfg).TakeValue();
    RoutingTable routing = RoutingTable::Resolve(cfg).TakeValue();
    std::vector<DirectoryInstance> parts;
    for (size_t i = 0; i < routing.num_shards(); ++i) {
      parts.emplace_back(global.schema(), /*validate=*/false);
    }
    for (const auto& [key, entry] : global) {
      ASSERT_TRUE(parts[routing.OwnerOf(key)].Add(entry).ok());
    }

    ASSERT_EQ(fleet.shards().size(), parts.size());
    for (size_t i = 0; i < parts.size(); ++i) {
      Shard* shard = fleet.shards()[i].get();
      SCOPED_TRACE(shard->name());
      SimDisk ref_disk(cfg.page_size);
      EntryStore ref = EntryStore::BulkLoad(&ref_disk, parts[i]).TakeValue();
      const std::vector<std::string> want = ScanAll(ref);
      ASSERT_EQ(shard->num_replicas(), replicas);
      for (size_t r = 0; r < replicas; ++r) {
        DirectoryServer* rep = shard->replica(r);
        const EntryStore& store = rep->store();
        EXPECT_EQ(ScanAll(store), want) << rep->name();
        ASSERT_EQ(store.num_pages(), ref.num_pages()) << rep->name();
        std::vector<uint8_t> a(cfg.page_size), b(cfg.page_size);
        for (size_t p = 0; p < ref.num_pages(); ++p) {
          ASSERT_TRUE(ref_disk.ReadPage(ref.run().pages[p], a.data()).ok());
          ASSERT_TRUE(rep->disk()->ReadPage(store.run().pages[p], b.data())
                          .ok());
          EXPECT_EQ(a, b) << rep->name() << " page " << p;
        }
        // The coordinator plans from range geometry: no replica folds
        // statistics.
        EXPECT_EQ(store.stats(), nullptr) << rep->name();
      }
    }
  }
}

// An entry outside every naming context fails the build before any
// replica page is allocated, even when that entry sorts after every
// covered one. The thread-wide IoScope sees every disk's allocations.
TEST(FleetBuildTest, UncoveredEntryFailsBeforeAnyPageIsAllocated) {
  DirectoryInstance global(Schema(), /*validate=*/false);
  for (const auto& [key, entry] : SmallDif()) {
    ASSERT_TRUE(global.Add(entry).ok());
  }
  ASSERT_TRUE(global.Add(Entry(D("dc=zzz"))).ok());
  ASSERT_EQ(std::prev(global.end())->first, D("dc=zzz").HierKey());

  IoStats failed_io;
  Result<DistributedDirectory> failed = [&] {
    IoScope scope(nullptr, &failed_io);
    return DistributedDirectory::Build(global, NestedTopology(2));
  }();
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(failed.status().ToString().find("dc=zzz"), std::string::npos);
  EXPECT_EQ(uint64_t{failed_io.pages_allocated}, 0u);

  // The same scope does see a build: once a context covers the stray
  // entry, the count is every replica's pages.
  TopologyConfig covered = NestedTopology(2);
  covered.shards.push_back(ShardSpec{"zzz", "dc=zzz", 0});
  IoStats built_io;
  Result<DistributedDirectory> built = [&] {
    IoScope scope(nullptr, &built_io);
    return DistributedDirectory::Build(global, covered);
  }();
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  uint64_t pages = 0;
  for (const DirectoryServer* rep : built->servers()) {
    pages += rep->store().num_pages();
  }
  EXPECT_GT(pages, 0u);
  EXPECT_EQ(uint64_t{built_io.pages_allocated}, pages);
}

const char* kWorkload[] = {
    "(dc=com ? sub ? objectClass=TOPSSubscriber)",
    "(dc=sub0, dc=org0, dc=com ? sub ? objectClass=QHP)",
    "(c (dc=com ? sub ? objectClass=TOPSSubscriber)"
    "   (dc=com ? sub ? objectClass=QHP) count($2)>=3)",
    "(vd (dc=com ? sub ? objectClass=SLAPolicyRules)"
    "    (& (dc=com ? sub ? sourcePort=25)"
    "       (dc=com ? sub ? objectClass=trafficProfile)) SLATPRef)",
};

RetryPolicy FastRetries() {
  RetryPolicy p;
  p.max_attempts = 3;
  p.backoff_micros = 0;
  return p;
}

// With R=2, any single replica down per shard must be invisible: the
// sibling serves the identical partition, so results are byte-identical
// to the healthy fleet, nothing degrades, and the failover counters show
// the rerouting actually happened.
TEST(ReplicationTest, SingleReplicaDownIsByteIdentical) {
  DirectoryInstance global = SmallDif();
  DistributedDirectory fleet = NestedFleet(global, /*replicas=*/2);
  fleet.set_retry_policy(FastRetries());

  std::vector<std::vector<Entry>> healthy;
  for (const char* text : kWorkload) {
    QueryPtr q = ParseQuery(text).TakeValue();
    healthy.push_back(fleet.Execute(*q).TakeValue());
  }

  for (size_t down = 0; down < 2; ++down) {
    SCOPED_TRACE("replica " + std::to_string(down) + " down");
    for (const auto& shard : fleet.shards()) {
      shard->replica(down)->set_down(true);
    }
    fleet.ResetStats();
    for (size_t i = 0; i < std::size(kWorkload); ++i) {
      SCOPED_TRACE(kWorkload[i]);
      QueryPtr q = ParseQuery(kWorkload[i]).TakeValue();
      std::vector<DegradationWarning> warnings;
      Result<std::vector<Entry>> got =
          fleet.Execute(*q, /*trace=*/nullptr, &warnings);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(*got, healthy[i]);
      EXPECT_TRUE(warnings.empty());
    }
    EXPECT_EQ(uint64_t{fleet.net_stats().degraded_results}, 0u);
    // The ring walk moved every request addressed to the downed replica.
    EXPECT_GT(uint64_t{fleet.net_stats().failovers}, 0u);
    EXPECT_FALSE(fleet.ReplicaFailovers().empty());
    for (const auto& shard : fleet.shards()) {
      shard->replica(down)->set_down(false);
    }
  }
}

// Both replicas down -> the shard's contribution degrades (or fails
// under fail-stop); this is the boundary the replication moved, from one
// server to the whole replica set.
TEST(ReplicationTest, WholeReplicaSetDownDegrades) {
  DirectoryInstance global = SmallDif();
  DistributedDirectory fleet = NestedFleet(global, /*replicas=*/2);
  fleet.set_retry_policy(FastRetries());
  Shard* sub0 = fleet.FindShard("sub0");
  ASSERT_NE(sub0, nullptr);
  sub0->replica(0)->set_down(true);
  sub0->replica(1)->set_down(true);

  QueryPtr q = ParseQuery(kWorkload[0]).TakeValue();
  std::vector<DegradationWarning> warnings;
  OpTrace trace;
  Result<std::vector<Entry>> got = fleet.Execute(*q, &trace, &warnings);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_EQ(warnings[0].source, "sub0");
  EXPECT_GE(trace.degraded_shards, 1u);

  fleet.set_allow_degraded(false);
  Result<std::vector<Entry>> failed = fleet.Execute(*q);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);
}

// The streaming k-way merge must agree byte-for-byte with the reference
// semantics on every query.
TEST(MergeTest, StreamingEqualsMaterialized) {
  DirectoryInstance global = SmallDif();
  DistributedDirectory fleet = NestedFleet(global, /*replicas=*/2);
  for (const char* text : kWorkload) {
    SCOPED_TRACE(text);
    QueryPtr q = ParseQuery(text).TakeValue();
    std::vector<Entry> streamed = fleet.Execute(*q).TakeValue();
    std::vector<const Entry*> ref = EvaluateReference(*q, global).TakeValue();
    ASSERT_EQ(streamed.size(), ref.size());
    for (size_t i = 0; i < ref.size(); ++i) EXPECT_EQ(streamed[i], *ref[i]);
  }
}

// A transient read fault can land anywhere: during the shard fetch (the
// retry path) or while the coordinator is consuming the shard's stream
// mid-merge (the refetch-and-skip path). Sweep the fault position; with
// fail-stop semantics every run must still be exact.
TEST(MergeTest, TransientReadFaultAnywhereStaysExact) {
  DirectoryInstance global = SmallDif();
  DistributedDirectory fleet = NestedFleet(global, /*replicas=*/2);
  fleet.set_retry_policy(FastRetries());
  fleet.set_allow_degraded(false);

  QueryPtr q = ParseQuery(kWorkload[0]).TakeValue();
  std::vector<Entry> want = fleet.Execute(*q).TakeValue();

  for (size_t victim = 0; victim < 2; ++victim) {
    DirectoryServer* replica = fleet.FindShard("org0")->replica(victim);
    for (uint64_t nth = 1; nth <= 20; ++nth) {
      SCOPED_TRACE("replica " + std::to_string(victim) + " fault at read " +
                   std::to_string(nth));
      FaultInjector fi(
          {FaultInjector::FailNth(nth, FaultOpBit(FaultOp::kRead))});
      replica->disk()->set_fault_injector(&fi);
      Result<std::vector<Entry>> got = fleet.Execute(*q);
      replica->disk()->set_fault_injector(nullptr);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(*got, want);
    }
  }
}

// Once the merge has read a shard's run to the end, freeing it is
// housekeeping: a replica disk that refuses the free cannot change the
// result, so the query succeeds exactly even under fail-stop semantics.
TEST(MergeTest, FailedFreeOfDrainedShardRunIsHarmless) {
  DirectoryInstance global = SmallDif();
  DistributedDirectory fleet = NestedFleet(global, /*replicas=*/2);
  fleet.set_retry_policy(FastRetries());
  fleet.set_allow_degraded(false);

  QueryPtr q = ParseQuery(kWorkload[1]).TakeValue();  // served by sub0
  std::vector<Entry> want = fleet.Execute(*q).TakeValue();
  Shard* sub0 = fleet.FindShard("sub0");
  ASSERT_NE(sub0, nullptr);
  for (uint64_t nth = 1; nth <= 3; ++nth) {
    SCOPED_TRACE("fault at free " + std::to_string(nth));
    std::vector<std::unique_ptr<FaultInjector>> injectors;
    for (size_t r = 0; r < sub0->num_replicas(); ++r) {
      injectors.push_back(std::make_unique<FaultInjector>());
      injectors.back()->AddRule(
          FaultInjector::FailNth(nth, FaultOpBit(FaultOp::kFree)));
      sub0->replica(r)->disk()->set_fault_injector(injectors.back().get());
    }
    Result<std::vector<Entry>> got = fleet.Execute(*q);
    uint64_t fired = 0;
    for (size_t r = 0; r < sub0->num_replicas(); ++r) {
      sub0->replica(r)->disk()->set_fault_injector(nullptr);
      fired += injectors[r]->faults_fired();
    }
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, want);
    if (nth == 1) {
      EXPECT_EQ(fired, 1u);
    }
  }
}

uint64_t FleetTransfers(DistributedDirectory& fleet) {
  uint64_t n = fleet.coordinator_disk()->stats().TotalTransfers();
  for (DirectoryServer* server : fleet.servers()) {
    n += server->disk()->stats().TotalTransfers();
  }
  return n;
}

// The fleet's traces account for every transfer and every shipped record
// at the root, whether a node scatter-gathers its leaves, ships whole to
// one shard, or mixes the two: the root's I/O is the call's fleet-wide
// transfer delta minus reading the result out, and its shipped records
// are what crossed the network. A shipped node keeps the replica
// evaluator's subtree I/O plus its own shipping, without its children
// counted a second time. EngineDistTest runs the same cases on an
// engine's pool.
TEST(FleetTraceTest, RootAccountsForFleetTransfersAndShipping) {
  DirectoryInstance global = SmallDif();
  DistributedDirectory fleet = NestedFleet(global, /*replicas=*/2);
  // org1 has no delegation below it, so this join has a single owner.
  const std::string org1_join =
      "(c (dc=org1, dc=com ? sub ? objectClass=TOPSSubscriber)"
      "   (dc=org1, dc=com ? sub ? objectClass=QHP))";
  struct Case {
    std::string text;
    uint64_t shipments;  // whole (sub)queries shipped
  };
  std::vector<Case> cases;
  for (const char* text : kWorkload) cases.push_back({text, 0});
  cases.push_back({org1_join, 1});
  cases.push_back({"(| " + org1_join + " (dc=com ? sub ? objectClass=QHP))",
                   1});

  for (const Case& c : cases) {
    SCOPED_TRACE(c.text);
    QueryPtr q = ParseQuery(c.text).TakeValue();
    const uint64_t transfers = FleetTransfers(fleet);
    const uint64_t shipped = fleet.net_stats().records_shipped;
    const uint64_t shipments = fleet.net_stats().queries_shipped;
    OpTrace trace;
    Result<std::vector<Entry>> got = fleet.Execute(*q, &trace);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(fleet.net_stats().queries_shipped - shipments, c.shipments);
    EXPECT_EQ(trace.NodeCount(), q->NodeCount());
    EXPECT_GT(trace.io.TotalTransfers(), 0u);
    EXPECT_EQ(trace.io.TotalTransfers(),
              FleetTransfers(fleet) - transfers - trace.output_pages);
    EXPECT_EQ(trace.shipped_records,
              fleet.net_stats().records_shipped - shipped);
  }
}

// The same accounting holds when shipments fail: with one attempt per
// replica, a read fault on each replica of the serving shard exhausts the
// shipment, which falls back to its operands, and the I/O of every
// abandoned attempt still reaches the root. The fallback is not a retry.
TEST(FleetTraceTest, AbandonedShipmentsStayAccounted) {
  DirectoryInstance global = SmallDif();
  DistributedDirectory fleet = NestedFleet(global, /*replicas=*/2);
  RetryPolicy once = FastRetries();
  once.max_attempts = 1;
  fleet.set_retry_policy(once);
  fleet.set_allow_degraded(false);
  QueryPtr q = ParseQuery(
                   "(c (dc=org1, dc=com ? sub ? objectClass=TOPSSubscriber)"
                   "   (dc=org1, dc=com ? sub ? objectClass=QHP))")
                   .TakeValue();
  std::vector<Entry> want = fleet.Execute(*q).TakeValue();
  Shard* org1 = fleet.FindShard("org1");
  ASSERT_NE(org1, nullptr);
  for (uint64_t nth = 1; nth <= 6; ++nth) {
    SCOPED_TRACE("fault at read " + std::to_string(nth));
    std::vector<std::unique_ptr<FaultInjector>> injectors;
    for (size_t r = 0; r < org1->num_replicas(); ++r) {
      injectors.push_back(std::make_unique<FaultInjector>());
      injectors.back()->AddRule(
          FaultInjector::FailNth(nth, FaultOpBit(FaultOp::kRead)));
      org1->replica(r)->disk()->set_fault_injector(injectors.back().get());
    }
    fleet.ResetStats();
    OpTrace trace;
    Result<std::vector<Entry>> got = fleet.Execute(*q, &trace);
    for (size_t r = 0; r < org1->num_replicas(); ++r) {
      org1->replica(r)->disk()->set_fault_injector(nullptr);
    }
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, want);
    const NetStats& net = fleet.net_stats();
    // Each replica failed the shipment once (two round trips), then each
    // operand leaf took a round trip of its own.
    EXPECT_EQ(uint64_t{net.queries_shipped}, 1u);
    EXPECT_EQ(uint64_t{net.messages}, 8u);
    EXPECT_EQ(uint64_t{net.retries}, 0u);
    ASSERT_EQ(trace.children.size(), 2u);
    EXPECT_GT(trace.children[0].shipped_records, 0u);
    EXPECT_EQ(trace.io.TotalTransfers(),
              FleetTransfers(fleet) - trace.output_pages);
    EXPECT_EQ(trace.shipped_records, uint64_t{net.records_shipped});
  }
}

// A fault on the coordinator's side of a shipment — its disk refusing a
// write of the shipped result — is no replica's: nothing fails over, the
// subtree is not evaluated again on a sibling, and the shipment falls
// back to its operands, which complete the exact result. The records the
// abandoned shipment streamed stay accounted at the root.
TEST(ReplicationTest, CoordinatorFaultIsNotAReplicaFailover) {
  DirectoryInstance global = testing::PaperInstance();
  DistributedDirectory fleet =
      DistributedDirectory::Build(
          global, TopologyConfig::Parse(
                      "replicas 2\n"
                      "shard root-server dc=com\n"
                      "shard research-server dc=research, dc=att, dc=com\n")
                      .TakeValue())
          .TakeValue();
  fleet.set_retry_policy(FastRetries());
  QueryPtr q = ParseQuery(
                   "(c (dc=research, dc=att, dc=com ? sub ? "
                   "objectClass=TOPSSubscriber)"
                   "   (dc=research, dc=att, dc=com ? sub ? "
                   "objectClass=QHP) count($2)>1)")
                   .TakeValue();
  ASSERT_NE(fleet.SingleOwner(*q), nullptr);
  std::vector<const Entry*> ref = EvaluateReference(*q, global).TakeValue();

  fleet.ResetStats();
  FaultInjector fi({FaultInjector::FailNth(1, FaultOpBit(FaultOp::kWrite))});
  fleet.coordinator_disk()->set_fault_injector(&fi);
  OpTrace trace;
  std::vector<DegradationWarning> warnings;
  Result<std::vector<Entry>> got = fleet.Execute(*q, &trace, &warnings);
  fleet.coordinator_disk()->set_fault_injector(nullptr);

  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(fi.faults_fired(), 1u);
  ASSERT_EQ(got->size(), ref.size());
  for (size_t i = 0; i < ref.size(); ++i) EXPECT_EQ((*got)[i], *ref[i]);
  EXPECT_TRUE(warnings.empty());
  const NetStats& net = fleet.net_stats();
  EXPECT_EQ(uint64_t{net.queries_shipped}, 1u);
  EXPECT_EQ(uint64_t{net.failovers}, 0u);
  EXPECT_TRUE(fleet.ReplicaFailovers().empty());
  EXPECT_EQ(trace.io.TotalTransfers(),
            FleetTransfers(fleet) - trace.output_pages);
  EXPECT_EQ(trace.shipped_records, uint64_t{net.records_shipped});
}

// Concurrent Executes racing replica outages: every call must still be
// byte-identical (the sibling replica absorbs the outage). This is the
// TSan target for the failover machinery.
TEST(ReplicationTest, ConcurrentExecuteDuringOutages) {
  DirectoryInstance global = SmallDif();
  DistributedDirectory fleet = NestedFleet(global, /*replicas=*/2);
  fleet.set_retry_policy(FastRetries());

  QueryPtr q = ParseQuery(kWorkload[0]).TakeValue();
  std::vector<Entry> want = fleet.Execute(*q).TakeValue();

  std::atomic<bool> stop{false};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      for (int i = 0; i < 8; ++i) {
        QueryPtr local = ParseQuery(kWorkload[0]).TakeValue();
        std::vector<DegradationWarning> warnings;
        Result<std::vector<Entry>> got =
            fleet.Execute(*local, nullptr, &warnings);
        if (!got.ok() || *got != want || !warnings.empty()) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  std::thread chaos([&] {
    while (!stop.load()) {
      for (const auto& shard : fleet.shards()) {
        shard->replica(0)->set_down(true);
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      for (const auto& shard : fleet.shards()) {
        shard->replica(0)->set_down(false);
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  for (std::thread& t : readers) t.join();
  stop.store(true);
  chaos.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// Round-robin reads spread load across the replica set: after a healthy
// run of identical queries, every replica of a fanned-out shard has
// served some of them.
TEST(ReplicationTest, ReadsRoundRobinAcrossReplicas) {
  DirectoryInstance global = SmallDif();
  DistributedDirectory fleet = NestedFleet(global, /*replicas=*/2);
  fleet.ResetStats();
  QueryPtr q = ParseQuery(kWorkload[1]).TakeValue();
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(fleet.Execute(*q).ok());
  Shard* sub0 = fleet.FindShard("sub0");
  ASSERT_NE(sub0, nullptr);
  EXPECT_GT(sub0->replica(0)->disk()->stats().TotalTransfers(), 0u);
  EXPECT_GT(sub0->replica(1)->disk()->stats().TotalTransfers(), 0u);
}

}  // namespace
}  // namespace ndq
