// End-to-end scenarios and boundary conditions that cut across modules:
// persistence -> cluster -> query -> updates -> re-query lifecycles, the
// dimensionality ceiling, extreme thresholds, degenerate cluster shapes, and
// repeated sessions on one cluster.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <unistd.h>

#include "common/io.hpp"
#include "core/cluster.hpp"
#include "core/updates.hpp"
#include "gen/partition.hpp"
#include "gen/synthetic.hpp"
#include "test_util.hpp"

namespace dsud {
namespace {

TEST(IntegrationTest, FullLifecycleThroughDisk) {
  // generate -> save -> load -> distribute -> query -> update -> re-query.
  const auto dir = std::filesystem::temp_directory_path() /
                   ("dsud_integration_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "lifecycle.bin").string();

  const Dataset original = generateSynthetic(
      SyntheticSpec{600, 3, ValueDistribution::kAnticorrelated, 1000});
  saveDatasetBinary(original, path);
  const Dataset data = loadDatasetBinary(path);

  InProcCluster cluster(Topology::uniform(data, 5, 1001));
  QueryConfig config;
  SkylineMaintainer maintainer(cluster.coordinator(), config,
                               MaintenanceStrategy::kIncremental);
  const QueryResult initial = maintainer.initialize();
  EXPECT_EQ(testutil::idsOf(initial.skyline).size(),
            linearSkyline(data, {.q = config.q}).size());

  // A dominating insert reshapes the skyline; a delete restores it.
  UpdateEvent insert;
  insert.kind = UpdateEvent::Kind::kInsert;
  insert.site = 0;
  insert.tuple = Tuple{99999, {-1.0, -1.0, -1.0}, 0.99};
  maintainer.apply(insert);
  EXPECT_EQ(maintainer.skyline().front().tuple.id, 99999u);

  UpdateEvent remove;
  remove.kind = UpdateEvent::Kind::kDelete;
  remove.site = 0;
  remove.tuple = insert.tuple;
  maintainer.apply(remove);

  auto ids = testutil::idsOf(maintainer.skyline());
  std::sort(ids.begin(), ids.end());
  auto want = testutil::idsOf(linearSkyline(data, {.q = config.q}));
  std::sort(want.begin(), want.end());
  EXPECT_EQ(ids, want);

  std::filesystem::remove_all(dir);
}

TEST(IntegrationTest, MaxDimensionalityEndToEnd) {
  const Dataset global = generateSynthetic(
      SyntheticSpec{300, kMaxDims, ValueDistribution::kIndependent, 1002});
  InProcCluster cluster(Topology::uniform(global, 4, 1003));
  QueryConfig config;
  config.q = 0.5;
  QueryResult result = cluster.engine().run(Algo::kEdsud, config);
  sortByGlobalProbability(result.skyline);
  EXPECT_EQ(testutil::idsOf(result.skyline),
            testutil::idsOf(linearSkyline(global, {.q = config.q})));
}

TEST(IntegrationTest, MoreSitesThanTuples) {
  const Dataset global = generateSynthetic(
      SyntheticSpec{5, 2, ValueDistribution::kIndependent, 1004});
  InProcCluster cluster(Topology::uniform(global, 16, 1005));  // 11 sites end up empty
  QueryResult result = cluster.engine().run(Algo::kEdsud, QueryConfig{});
  sortByGlobalProbability(result.skyline);
  EXPECT_EQ(testutil::idsOf(result.skyline),
            testutil::idsOf(linearSkyline(global, {.q = 0.3})));
}

TEST(IntegrationTest, IdenticalCoordinatesEverywhere) {
  // Duplicates never dominate each other: everything with P >= q answers.
  Dataset global(2);
  for (TupleId id = 0; id < 40; ++id) {
    global.add(id, std::vector<double>{0.5, 0.5},
               0.1 + 0.02 * static_cast<double>(id));
  }
  InProcCluster cluster(Topology::uniform(global, 4, 1006));
  QueryConfig config;
  config.q = 0.4;
  const QueryResult result = cluster.engine().run(Algo::kEdsud, config);
  std::size_t expected = 0;
  for (std::size_t row = 0; row < global.size(); ++row) {
    if (global.prob(row) >= config.q) ++expected;
  }
  EXPECT_EQ(result.skyline.size(), expected);
  for (const auto& e : result.skyline) {
    EXPECT_NEAR(e.globalSkyProb, e.tuple.prob, 1e-12);
  }
}

TEST(IntegrationTest, TinyThresholdReturnsEveryPositiveProbability) {
  // q -> 0+ makes every tuple's own probability clear the bar *locally*;
  // globally only genuinely crushed tuples drop out.
  const Dataset global = generateSynthetic(
      SyntheticSpec{120, 2, ValueDistribution::kIndependent, 1007});
  InProcCluster cluster(Topology::uniform(global, 3, 1008));
  QueryConfig config;
  config.q = 1e-9;
  QueryResult result = cluster.engine().run(Algo::kEdsud, config);
  sortByGlobalProbability(result.skyline);
  EXPECT_EQ(testutil::idsOf(result.skyline),
            testutil::idsOf(linearSkyline(global, {.q = config.q})));
}

TEST(IntegrationTest, RepeatedSessionsResetCleanly) {
  // Same cluster, many configurations back to back: session state (pending
  // lists, windows, masks) must fully reset at each prepare.
  const Dataset global = generateSynthetic(
      SyntheticSpec{700, 3, ValueDistribution::kAnticorrelated, 1009});
  InProcCluster cluster(Topology::uniform(global, 6, 1010));

  struct Session {
    double q;
    DimMask mask;
  };
  const Session sessions[] = {{0.3, 0}, {0.7, 0}, {0.3, 0b011},
                              {0.3, 0}, {0.5, 0b101}, {0.3, 0b011}};
  for (const Session& s : sessions) {
    QueryConfig config;
    config.q = s.q;
    config.mask = s.mask;
    QueryResult result = cluster.engine().run(Algo::kEdsud, config);
    sortByGlobalProbability(result.skyline);
    const DimMask mask = config.effectiveMask(3);
    EXPECT_EQ(testutil::idsOf(result.skyline),
              testutil::idsOf(linearSkyline(global, {.mask = mask, .q = s.q})))
        << "q=" << s.q << " mask=" << s.mask;
  }
}

TEST(IntegrationTest, GaussianProbabilityMeanSweepKeepsExactness) {
  // The Fig. 11c/11d regime: verify exactness at every mean, and that the
  // answer count moves with mu (the hump the paper discusses).
  std::vector<std::size_t> counts;
  for (const double mu : {0.3, 0.5, 0.7, 0.9}) {
    const Dataset global =
        generateSynthetic(SyntheticSpec{600, 2,
                                        ValueDistribution::kIndependent, 1011},
                          gaussianProbability(mu, 0.2));
    InProcCluster cluster(Topology::uniform(global, 5, 1012));
    QueryResult result = cluster.engine().run(Algo::kEdsud, QueryConfig{});
    sortByGlobalProbability(result.skyline);
    EXPECT_EQ(testutil::idsOf(result.skyline),
              testutil::idsOf(linearSkyline(global, {.q = 0.3})))
        << "mu=" << mu;
    counts.push_back(result.skyline.size());
  }
  // Not constant across the sweep (the distributional effect is real).
  EXPECT_NE(counts.front(), counts.back());
}

TEST(IntegrationTest, MixedUpdateBurstsAcrossStrategiesAgree) {
  const Dataset global = generateSynthetic(
      SyntheticSpec{300, 2, ValueDistribution::kIndependent, 1013});
  Rng rng(1014);
  const auto siteData = partitionUniform(global, 3, rng);

  InProcCluster incrCluster(Topology::fromPartitions(siteData));
  InProcCluster naiveCluster(Topology::fromPartitions(siteData));
  QueryConfig config;
  SkylineMaintainer incremental(incrCluster.coordinator(), config,
                                MaintenanceStrategy::kIncremental);
  SkylineMaintainer naive(naiveCluster.coordinator(), config,
                          MaintenanceStrategy::kNaiveRecompute);
  incremental.initialize();
  naive.initialize();

  // Burst: delete the entire current skyline, then insert replacements.
  const auto victims = incremental.skyline();
  for (const auto& v : victims) {
    UpdateEvent e;
    e.kind = UpdateEvent::Kind::kDelete;
    e.site = v.site;
    e.tuple = v.tuple;
    incremental.apply(e);
    naive.apply(e);
  }
  Rng insertRng(1015);
  for (TupleId id = 500000; id < 500020; ++id) {
    UpdateEvent e;
    e.kind = UpdateEvent::Kind::kInsert;
    e.site = static_cast<SiteId>(insertRng.below(3));
    e.tuple = Tuple{id, {insertRng.uniform(), insertRng.uniform()},
                    insertRng.existentialUniform()};
    incremental.apply(e);
    naive.apply(e);
  }

  auto a = testutil::idsOf(incremental.skyline());
  auto b = testutil::idsOf(naive.skyline());
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a.empty());
}

}  // namespace
}  // namespace dsud
