// ResultCache semantics: q-band serving, LRU bounds, version keying — and
// the end-to-end invalidation contract: after a Sec. 5.4 update the engine
// must never serve a stale P_gsky verdict from the cache.
#include <gtest/gtest.h>

#include <vector>

#include "core/cluster.hpp"
#include "core/query_engine.hpp"
#include "core/result_cache.hpp"
#include "core/updates.hpp"
#include "gen/synthetic.hpp"

namespace dsud {
namespace {

GlobalSkylineEntry entry(TupleId id, double globalSkyProb) {
  GlobalSkylineEntry e;
  e.site = 0;
  e.tuple = Tuple{id, {0.1, 0.2}, 0.9};
  e.localSkyProb = globalSkyProb;
  e.globalSkyProb = globalSkyProb;
  return e;
}

ResultCache::Key keyAt(std::uint64_t version) {
  ResultCache::Key key;
  key.datasetVersion = version;
  key.mask = 0b11;
  return key;
}

TEST(ResultCacheTest, ServesAnyThresholdAtOrAboveTheStoredBase) {
  ResultCache cache;
  cache.insert(keyAt(0), 0.2, {entry(1, 0.9), entry(2, 0.5), entry(3, 0.25)});

  // Exact threshold: the full stored answer, in stored order.
  auto full = cache.lookup(keyAt(0), 0.2);
  ASSERT_TRUE(full.has_value());
  ASSERT_EQ(full->size(), 3u);
  EXPECT_EQ((*full)[0].tuple.id, 1u);
  EXPECT_EQ((*full)[2].tuple.id, 3u);

  // Tighter threshold: filtered, order preserved.
  auto tighter = cache.lookup(keyAt(0), 0.5);
  ASSERT_TRUE(tighter.has_value());
  ASSERT_EQ(tighter->size(), 2u);
  EXPECT_EQ((*tighter)[0].tuple.id, 1u);
  EXPECT_EQ((*tighter)[1].tuple.id, 2u);

  // Looser than the stored base: the stored answer may be missing tuples
  // with probability in [q, qBase) — must miss, never guess.
  EXPECT_FALSE(cache.lookup(keyAt(0), 0.1).has_value());
}

TEST(ResultCacheTest, SmallerBaseWinsOnReinsert) {
  ResultCache cache;
  cache.insert(keyAt(0), 0.5, {entry(1, 0.9)});
  // A looser run's answer supersedes (serves more thresholds)...
  cache.insert(keyAt(0), 0.2, {entry(1, 0.9), entry(2, 0.3)});
  EXPECT_TRUE(cache.lookup(keyAt(0), 0.2).has_value());
  // ...and a tighter one must not shrink the band back.
  cache.insert(keyAt(0), 0.8, {entry(1, 0.9)});
  auto hit = cache.lookup(keyAt(0), 0.2);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->size(), 2u);
}

TEST(ResultCacheTest, KeysOnDatasetVersionAndKnobs) {
  ResultCache cache;
  cache.insert(keyAt(7), 0.0, {entry(1, 0.9)});
  EXPECT_TRUE(cache.lookup(keyAt(7), 0.3).has_value());
  // Any maintenance bump retires the answer.
  EXPECT_FALSE(cache.lookup(keyAt(8), 0.3).has_value());

  ResultCache::Key otherAlgo = keyAt(7);
  otherAlgo.algo = Algo::kDsud;
  EXPECT_FALSE(cache.lookup(otherAlgo, 0.3).has_value());

  ResultCache::Key otherMask = keyAt(7);
  otherMask.mask = 0b01;
  EXPECT_FALSE(cache.lookup(otherMask, 0.3).has_value());
}

TEST(ResultCacheTest, EvictsLeastRecentlyUsedWithinCapacity) {
  ResultCache cache(ResultCacheConfig{.capacity = 2, .shards = 1});
  cache.insert(keyAt(1), 0.0, {entry(1, 0.9)});
  cache.insert(keyAt(2), 0.0, {entry(2, 0.9)});
  ASSERT_TRUE(cache.lookup(keyAt(1), 0.0).has_value());  // 1 is now MRU
  cache.insert(keyAt(3), 0.0, {entry(3, 0.9)});          // evicts 2
  EXPECT_TRUE(cache.lookup(keyAt(1), 0.0).has_value());
  EXPECT_FALSE(cache.lookup(keyAt(2), 0.0).has_value());
  EXPECT_TRUE(cache.lookup(keyAt(3), 0.0).has_value());
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ResultCacheTest, ZeroCapacityDisables) {
  ResultCache cache(ResultCacheConfig{.capacity = 0});
  cache.insert(keyAt(0), 0.0, {entry(1, 0.9)});
  EXPECT_FALSE(cache.lookup(keyAt(0), 0.0).has_value());
  EXPECT_EQ(cache.size(), 0u);
}

// ---------------------------------------------------------------------------
// End-to-end: cache attached to an engine over a live cluster.

void expectSameAnswer(const std::vector<GlobalSkylineEntry>& got,
                      const std::vector<GlobalSkylineEntry>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].tuple.id, want[i].tuple.id) << "rank " << i;
    EXPECT_EQ(got[i].globalSkyProb, want[i].globalSkyProb) << "rank " << i;
  }
}

TEST(ResultCacheTest, EngineHitsReplayBitIdenticalAnswersForFree) {
  const Dataset data = generateSynthetic(
      SyntheticSpec{1500, 3, ValueDistribution::kAnticorrelated, 8100});
  InProcCluster cluster(Topology::uniform(data, 6, 8101));
  ResultCache cache;
  cluster.engine().setResultCache(&cache);

  QueryConfig config;
  config.q = 0.3;
  const QueryResult first = cluster.engine().run(Algo::kEdsud, config);
  EXPECT_GT(first.stats.tuplesShipped, 0u);

  std::size_t progressCalls = 0;
  QueryOptions options;
  options.progress = [&](const GlobalSkylineEntry&, const ProgressPoint&) {
    ++progressCalls;
  };
  const QueryResult replay =
      cluster.engine().run(Algo::kEdsud, config, options);
  expectSameAnswer(replay.skyline, first.skyline);
  // The whole point: a hit ships nothing and runs no protocol rounds.
  EXPECT_EQ(replay.stats.tuplesShipped, 0u);
  EXPECT_EQ(replay.stats.roundTrips, 0u);
  EXPECT_EQ(progressCalls, replay.skyline.size());

  // A tighter threshold is served from the same stored answer.
  QueryConfig tighter;
  tighter.q = 0.6;
  const QueryResult banded = cluster.engine().run(Algo::kEdsud, tighter);
  EXPECT_EQ(banded.stats.tuplesShipped, 0u);
  for (const GlobalSkylineEntry& e : banded.skyline) {
    EXPECT_GE(e.globalSkyProb, 0.6);
  }
  InProcCluster reference(Topology::uniform(data, 6, 8101));
  expectSameAnswer(banded.skyline,
                   reference.engine().run(Algo::kEdsud, tighter).skyline);
}

TEST(ResultCacheTest, MaintenanceUpdatesNeverServeStaleVerdicts) {
  const Dataset data = generateSynthetic(
      SyntheticSpec{1200, 2, ValueDistribution::kAnticorrelated, 8200});
  InProcCluster cluster(Topology::uniform(data, 5, 8201));
  ResultCache cache;
  cluster.engine().setResultCache(&cache);

  QueryConfig config;
  config.q = 0.3;
  const QueryResult before = cluster.engine().run(Algo::kEdsud, config);
  ASSERT_FALSE(before.skyline.empty());
  const std::uint64_t versionBefore = cluster.coordinator().datasetVersion();

  // Warm hit before the update.
  EXPECT_EQ(cluster.engine().run(Algo::kEdsud, config).stats.tuplesShipped, 0u);

  // Insert a strong tuple that dominates most of the space: many cached
  // P_gsky verdicts are now wrong.
  SkylineMaintainer maintainer(cluster.coordinator(), config,
                               MaintenanceStrategy::kIncremental);
  maintainer.initialize();
  UpdateEvent event;
  event.kind = UpdateEvent::Kind::kInsert;
  event.site = 0;
  event.tuple = Tuple{99'000'000, {0.001, 0.001}, 0.95};
  maintainer.apply(event);

  EXPECT_GT(cluster.coordinator().datasetVersion(), versionBefore);

  // The next query must recompute (new version => cache miss) and agree
  // with the maintainer's exact post-update skyline.
  QueryResult after = cluster.engine().run(Algo::kEdsud, config);
  EXPECT_GT(after.stats.tuplesShipped, 0u);
  sortByGlobalProbability(after.skyline);
  expectSameAnswer(after.skyline, maintainer.skyline());

  // And the post-update answer caches under the new version.
  EXPECT_EQ(cluster.engine().run(Algo::kEdsud, config).stats.tuplesShipped, 0u);
}

TEST(ResultCacheTest, IneligibleConfigurationsBypassTheCache) {
  const Dataset data = generateSynthetic(
      SyntheticSpec{800, 2, ValueDistribution::kIndependent, 8300});
  InProcCluster cluster(Topology::uniform(data, 4, 8301));
  ResultCache cache;
  cluster.engine().setResultCache(&cache);

  // kPark's emission order depends on q, so its answers must never be
  // banded; the cache stays untouched.
  QueryConfig parked;
  parked.q = 0.3;
  parked.expunge = ExpungePolicy::kPark;
  EXPECT_FALSE(shareEligible(Algo::kEdsud, parked));
  cluster.engine().run(Algo::kEdsud, parked);
  EXPECT_EQ(cache.size(), 0u);

  QueryConfig dominance;
  dominance.q = 0.3;
  dominance.prune = PruneRule::kDominance;
  EXPECT_FALSE(shareEligible(Algo::kDsud, dominance));
  cluster.engine().run(Algo::kDsud, dominance);
  EXPECT_EQ(cache.size(), 0u);

  QueryConfig eligible;
  eligible.q = 0.3;
  EXPECT_TRUE(shareEligible(Algo::kEdsud, eligible));
  EXPECT_TRUE(shareEligible(Algo::kDsud, eligible));
  EXPECT_TRUE(shareEligible(Algo::kNaive, eligible));
}

}  // namespace
}  // namespace dsud
