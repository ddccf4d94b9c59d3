// Elastic cluster membership: the Topology API (factories, epochs, replica
// placement) and the InProcCluster admin surface built on it — online join,
// leave, and background repartitioning.  The load-bearing properties are
// determinism ones: a grown-then-rebalanced cluster answers bit-identically
// to a from-scratch cluster over the same STR cuts, the membership epoch
// retires cached answers even when the dataset version never moved, and
// queries keep completing (non-degraded, same answers) while rebalances run
// underneath them.
#include "core/topology.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "core/cluster.hpp"
#include "core/local_site.hpp"
#include "core/protocol.hpp"
#include "core/result_cache.hpp"
#include "gen/partition.hpp"
#include "gen/synthetic.hpp"

namespace dsud {
namespace {

Dataset testGlobal(std::size_t n = 300) {
  return generateSynthetic(
      SyntheticSpec{n, 2, ValueDistribution::kIndependent, 7171});
}

// --- Topology (pure data) ---------------------------------------------------

TEST(TopologyTest, UniformFactorySetsMembersPartitionsAndEpoch) {
  const Topology t = Topology::uniform(testGlobal(), 4, 11);
  EXPECT_EQ(t.epoch(), 1u);
  EXPECT_EQ(t.replicaFactor(), 1u);
  EXPECT_EQ(t.dims(), 2u);
  ASSERT_EQ(t.members().size(), 4u);
  ASSERT_EQ(t.partitions().size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(t.members()[i], i);
    EXPECT_EQ(t.partitions()[i].id, i);
    ASSERT_EQ(t.partitions()[i].hosts.size(), 1u);
    EXPECT_EQ(t.partitions()[i].hosts[0], i)
        << "partition id == primary member id is the failover invariant";
  }
}

TEST(TopologyTest, ReplicaPlacementFollowsTheMemberRing) {
  const Topology t = Topology::uniform(testGlobal(), 3, 11, 2);
  EXPECT_EQ(t.replicaFactor(), 2u);
  for (std::size_t i = 0; i < 3; ++i) {
    const PartitionDesc& p = t.partitions()[i];
    ASSERT_EQ(p.hosts.size(), 2u);
    EXPECT_EQ(p.hosts[0], i);
    EXPECT_EQ(p.hosts[1], (i + 1) % 3);
  }
}

TEST(TopologyTest, ReplicaFactorIsClampedToMemberCount) {
  const Topology t = Topology::uniform(testGlobal(), 2, 11, 5);
  for (const PartitionDesc& p : t.partitions()) {
    EXPECT_EQ(p.hosts.size(), 2u) << "k cannot exceed the member count";
  }
}

TEST(TopologyTest, AddSiteBumpsEpochAndNeverReusesIds) {
  Topology t = Topology::uniform(testGlobal(), 3, 11);
  const SiteId added = t.addSite();
  EXPECT_EQ(added, 3u);
  EXPECT_EQ(t.epoch(), 2u);
  EXPECT_TRUE(t.isMember(added));

  t.removeSite(added);
  EXPECT_EQ(t.epoch(), 3u);
  EXPECT_FALSE(t.isMember(added));
  EXPECT_EQ(t.addSite(), 4u) << "departed ids are never reused";
}

TEST(TopologyTest, RemoveSiteValidatesItsArgument) {
  Topology t = Topology::uniform(testGlobal(), 1, 11);
  EXPECT_THROW(t.removeSite(42), std::out_of_range);
  EXPECT_THROW(t.removeSite(0), std::invalid_argument)
      << "the last member cannot leave";
}

// --- InProcCluster elasticity ----------------------------------------------

TEST(ElasticClusterTest, JoinThenRebalanceMatchesFromScratchBitForBit) {
  const Dataset global = testGlobal(400);

  InProcCluster grown(Topology::uniform(global, 3, 17));
  const SiteId added = grown.addSite();
  EXPECT_EQ(added, 3u);
  EXPECT_EQ(grown.membershipEpoch(), 2u);
  grown.rebalance();
  EXPECT_EQ(grown.membershipEpoch(), 3u);
  EXPECT_EQ(grown.siteCount(), 4u);

  // The rebalance gathers the canonical global dataset and cuts it with the
  // deterministic STR partitioner, so the grown cluster must be
  // indistinguishable — answers AND work counters — from one built from the
  // same cuts directly.
  InProcCluster fresh(Topology::fromPartitions(partitionSTR(global, 4)));
  for (const Algo algo : {Algo::kDsud, Algo::kEdsud, Algo::kNaive}) {
    const QueryResult a = grown.engine().run(algo, QueryConfig{});
    const QueryResult b = fresh.engine().run(algo, QueryConfig{});
    ASSERT_EQ(a.skyline, b.skyline) << "algo " << static_cast<int>(algo);
    EXPECT_EQ(a.stats.tuplesShipped, b.stats.tuplesShipped);
    EXPECT_EQ(a.stats.roundTrips, b.stats.roundTrips);
  }
}

TEST(ElasticClusterTest, RemoveSiteDrainsItsPartitionOntoSurvivors) {
  const Dataset global = testGlobal(400);
  InProcCluster cluster(Topology::uniform(global, 4, 19));
  cluster.removeSite(2);
  EXPECT_EQ(cluster.siteCount(), 3u);
  EXPECT_FALSE(cluster.topology().isMember(2));

  InProcCluster fresh(Topology::fromPartitions(partitionSTR(global, 3)));
  const QueryResult a = cluster.engine().run(Algo::kEdsud, QueryConfig{});
  const QueryResult b = fresh.engine().run(Algo::kEdsud, QueryConfig{});
  ASSERT_EQ(a.skyline, b.skyline)
      << "no tuple may be lost when a member leaves";
}

TEST(ElasticClusterTest, MembershipEpochRetiresCachedAnswers) {
  const Dataset global = testGlobal(300);
  InProcCluster cluster(Topology::uniform(global, 3, 23));
  ResultCacheConfig cacheConfig;
  cacheConfig.capacity = 8;
  ResultCache cache(cacheConfig, &cluster.metricsRegistry());
  cluster.engine().setResultCache(&cache);

  const auto hits = [&cluster]() -> std::uint64_t {
    const auto snapshot = cluster.metricsRegistry().snapshot();
    const std::uint64_t* c = snapshot.counter("dsud_cache_hits_total");
    return c == nullptr ? 0u : *c;
  };

  const QueryResult first = cluster.engine().run(Algo::kEdsud, QueryConfig{});
  const QueryResult second = cluster.engine().run(Algo::kEdsud, QueryConfig{});
  ASSERT_EQ(second.skyline, first.skyline);
  EXPECT_EQ(hits(), 1u) << "an unchanged cluster serves from the cache";

  // Membership churn with zero data updates: the dataset version stays
  // where it was, so only the epoch folded into the cache key prevents the
  // old layout's answer — with its now-wrong per-partition attribution —
  // from being served.
  const SiteId added = cluster.addSite();
  cluster.rebalance();
  cluster.removeSite(added);

  const QueryResult relayout =
      cluster.engine().run(Algo::kEdsud, QueryConfig{});
  EXPECT_EQ(hits(), 1u) << "a layout change must miss the cache";
  const QueryResult repeat = cluster.engine().run(Algo::kEdsud, QueryConfig{});
  EXPECT_EQ(hits(), 2u) << "the new epoch caches normally";
  ASSERT_EQ(repeat.skyline, relayout.skyline);

  cluster.engine().setResultCache(nullptr);
}

TEST(ElasticClusterTest, QueriesCompleteDuringBackgroundRebalance) {
  const Dataset global = testGlobal(500);
  InProcCluster cluster(Topology::uniform(global, 4, 29));

  // Answer identity is layout-invariant; only the per-entry partition
  // attribution moves.  Compare the id sets across epochs.
  const QueryResult reference =
      cluster.engine().run(Algo::kEdsud, QueryConfig{});
  std::vector<TupleId> expected;
  for (const GlobalSkylineEntry& e : reference.skyline) {
    expected.push_back(e.tuple.id);
  }
  std::sort(expected.begin(), expected.end());

  std::atomic<bool> done{false};
  std::thread admin([&cluster, &done] {
    for (int i = 0; i < 5; ++i) cluster.rebalance();
    done.store(true, std::memory_order_release);
  });

  std::size_t completed = 0;
  while ((!done.load(std::memory_order_acquire) || completed == 0) &&
         completed < 200) {
    const QueryResult result =
        cluster.engine().run(Algo::kEdsud, QueryConfig{});
    EXPECT_FALSE(result.degraded)
        << "a background rebalance must never degrade a query";
    std::vector<TupleId> ids;
    for (const GlobalSkylineEntry& e : result.skyline) {
      ids.push_back(e.tuple.id);
    }
    std::sort(ids.begin(), ids.end());
    ASSERT_EQ(ids, expected);
    ++completed;
  }
  admin.join();
  EXPECT_GT(completed, 0u);
  EXPECT_EQ(cluster.membershipEpoch(), 6u);  // 1 + 5 rebalances
}

TEST(TopologyTest, DrainedStoreStillServesPinnedEpochSessions) {
  // A rebalance retires the old stores *after* installing the new view, so
  // a session that pinned the old view microseconds earlier may issue its
  // prepare() against an already-draining store.  The drained tree still
  // holds the retired epoch's full partition, so the prepare must succeed
  // with the same candidates it would have produced before the drain (MVCC:
  // old versions stay readable until the last reader lets go).
  LocalSite site(0, testGlobal(100));
  PrepareRequest request;
  request.query = 1;
  const std::uint64_t before = site.prepare(request).localSkylineSize;

  site.leaveSite(LeaveSiteRequest{2});
  EXPECT_EQ(site.phase(), LocalSite::Phase::kDraining);
  request.query = 2;
  EXPECT_EQ(site.prepare(request).localSkylineSize, before);
}

TEST(ElasticClusterTest, AddedMemberServesNoDataUntilRebalance) {
  const Dataset global = testGlobal(200);
  InProcCluster cluster(Topology::uniform(global, 2, 31));
  const QueryResult before = cluster.engine().run(Algo::kEdsud, QueryConfig{});

  cluster.addSite();
  EXPECT_EQ(cluster.siteCount(), 2u)
      << "membership changed but the layout has not";
  const QueryResult between = cluster.engine().run(Algo::kEdsud, QueryConfig{});
  ASSERT_EQ(between.skyline, before.skyline);

  cluster.rebalance();
  EXPECT_EQ(cluster.siteCount(), 3u);
}

}  // namespace
}  // namespace dsud
