// Constrained (windowed) skyline queries (Wu et al., paper Sec. 2.1): the
// query behaves as if the database were filtered to the window first — only
// in-window tuples are candidates AND only in-window dominators count —
// verified end-to-end against the filtered O(N²) ground truth.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/cluster.hpp"
#include "core/updates.hpp"
#include "gen/synthetic.hpp"
#include "skyline/bbs.hpp"
#include "test_util.hpp"

namespace dsud {
namespace {

Rect makeWindow(std::initializer_list<double> lo,
                std::initializer_list<double> hi) {
  Rect window(lo.size());
  window.expand(std::span<const double>(lo.begin(), lo.size()));
  window.expand(std::span<const double>(hi.begin(), hi.size()));
  return window;
}

TEST(ConstrainedTest, WindowExcludesOutsideDominators) {
  // A dominator outside the window must not affect an in-window tuple.
  Dataset data(2);
  data.add(0, std::vector<double>{0.1, 0.1}, 0.9);  // outside window
  data.add(1, std::vector<double>{0.5, 0.5}, 0.8);  // inside
  data.add(2, std::vector<double>{0.6, 0.6}, 0.7);  // inside, dominated by 1

  const Rect window = makeWindow({0.4, 0.4}, {0.9, 0.9});
  const PRTree tree = PRTree::bulkLoad(data);

  // Unconstrained: tuple 1's probability is crushed by tuple 0.
  EXPECT_NEAR(tree.dominanceSurvival(data.values(1)), 0.1, 1e-12);
  // Constrained: tuple 0 is invisible.
  EXPECT_NEAR(tree.dominanceSurvival(data.values(1), fullMask(2), &window),
              1.0, 1e-12);
  EXPECT_NEAR(tree.dominanceSurvival(data.values(2), fullMask(2), &window),
              0.2, 1e-12);
}

TEST(ConstrainedTest, BbsMatchesFilteredGroundTruth) {
  for (std::uint64_t seed = 300; seed < 305; ++seed) {
    const Dataset data = generateSynthetic(
        SyntheticSpec{2000, 2, ValueDistribution::kIndependent, seed});
    const Rect window = makeWindow({0.2, 0.3}, {0.7, 0.8});
    const PRTree tree = PRTree::bulkLoad(data);
    const auto got =
        bbsSkyline(tree, {.q = 0.3, .clip = &window});
    const auto expected =
        linearSkyline(data, {.q = 0.3, .clip = &window});
    EXPECT_EQ(testutil::idsOf(got), testutil::idsOf(expected))
        << "seed=" << seed;
  }
}

TEST(ConstrainedTest, EmptyWindowYieldsNothing) {
  const Dataset data = generateSynthetic(
      SyntheticSpec{500, 2, ValueDistribution::kIndependent, 306});
  const Rect window = makeWindow({2.0, 2.0}, {3.0, 3.0});  // off the data
  const PRTree tree = PRTree::bulkLoad(data);
  EXPECT_TRUE(bbsSkyline(tree, {.q = 0.3, .clip = &window}).empty());
}

struct ConstrainedCase {
  std::size_t n;
  std::size_t m;
  ValueDistribution dist;
  std::uint64_t seed;
  std::array<double, 2> lo;
  std::array<double, 2> hi;
};

class ConstrainedDistributedTest
    : public ::testing::TestWithParam<ConstrainedCase> {};

TEST_P(ConstrainedDistributedTest, AllAlgorithmsMatchFilteredGroundTruth) {
  const ConstrainedCase& c = GetParam();
  const Dataset global =
      generateSynthetic(SyntheticSpec{c.n, 2, c.dist, c.seed});
  InProcCluster cluster(Topology::uniform(global, c.m, c.seed + 1));

  QueryConfig config;
  config.q = 0.3;
  config.window = makeWindow({c.lo[0], c.lo[1]}, {c.hi[0], c.hi[1]});

  const auto expected =
      linearSkyline(global, {.q = config.q, .clip = &*config.window});

  for (QueryResult result : {cluster.engine().run(Algo::kNaive, config),
                             cluster.engine().run(Algo::kDsud, config),
                             cluster.engine().run(Algo::kEdsud, config)}) {
    sortByGlobalProbability(result.skyline);
    ASSERT_EQ(result.skyline.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(result.skyline[i].tuple.id, expected[i].id);
      EXPECT_NEAR(result.skyline[i].globalSkyProb, expected[i].skyProb, 1e-9);
      // Every answer lies inside the window.
      EXPECT_TRUE(
          config.window->containsPoint(result.skyline[i].tuple.values));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ConstrainedDistributedTest,
    ::testing::Values(
        ConstrainedCase{800, 4, ValueDistribution::kIndependent, 310,
                        {0.3, 0.3}, {0.8, 0.8}},
        ConstrainedCase{800, 8, ValueDistribution::kAnticorrelated, 311,
                        {0.1, 0.4}, {0.6, 0.9}},
        ConstrainedCase{1500, 6, ValueDistribution::kIndependent, 312,
                        {0.0, 0.0}, {0.3, 0.3}},
        ConstrainedCase{1500, 10, ValueDistribution::kCorrelated, 313,
                        {0.4, 0.4}, {1.0, 1.0}},
        ConstrainedCase{500, 3, ValueDistribution::kIndependent, 314,
                        {0.0, 0.0}, {1.0, 1.0}}),  // window == full space
    [](const ::testing::TestParamInfo<ConstrainedCase>& info) {
      return "case" + std::to_string(info.index);
    });

TEST(ConstrainedTest, FullSpaceWindowEqualsUnconstrained) {
  const Dataset global = generateSynthetic(
      SyntheticSpec{1000, 2, ValueDistribution::kAnticorrelated, 320});
  InProcCluster cluster(Topology::uniform(global, 5, 321));

  QueryConfig unconstrained;
  QueryConfig windowed;
  windowed.window = makeWindow({-1.0, -1.0}, {2.0, 2.0});

  QueryResult a = cluster.engine().run(Algo::kEdsud, unconstrained);
  QueryResult b = cluster.engine().run(Algo::kEdsud, windowed);
  sortByGlobalProbability(a.skyline);
  sortByGlobalProbability(b.skyline);
  EXPECT_EQ(testutil::idsOf(a.skyline), testutil::idsOf(b.skyline));
}

TEST(ConstrainedTest, TightWindowIsCheap) {
  // A small window means small local skylines and few candidates: the
  // constrained query must ship (weakly) fewer tuples than the full query.
  const Dataset global = generateSynthetic(
      SyntheticSpec{20000, 2, ValueDistribution::kAnticorrelated, 322});
  InProcCluster cluster(Topology::uniform(global, 10, 323));

  QueryConfig full;
  QueryConfig tight;
  tight.window = makeWindow({0.45, 0.45}, {0.55, 0.55});

  const QueryResult a = cluster.engine().run(Algo::kEdsud, full);
  const QueryResult b = cluster.engine().run(Algo::kEdsud, tight);
  EXPECT_LT(b.stats.tuplesShipped, a.stats.tuplesShipped);
}

TEST(ConstrainedTest, SubspaceAndWindowCompose) {
  const Dataset global = generateSynthetic(
      SyntheticSpec{800, 3, ValueDistribution::kIndependent, 324});
  InProcCluster cluster(Topology::uniform(global, 4, 325));

  QueryConfig config;
  config.mask = 0b011;
  Rect window(3);
  const std::array<double, 3> lo = {0.2, 0.2, 0.0};
  const std::array<double, 3> hi = {0.9, 0.9, 1.0};
  window.expand(lo);
  window.expand(hi);
  config.window = window;

  const auto expected = linearSkyline(global, {.mask = config.mask, .q = config.q, .clip = &window});
  QueryResult result = cluster.engine().run(Algo::kEdsud, config);
  sortByGlobalProbability(result.skyline);
  EXPECT_EQ(testutil::idsOf(result.skyline), testutil::idsOf(expected));
}

TEST(ConstrainedTest, MaintainerRejectsWindowedConfig) {
  const Dataset global = generateSynthetic(
      SyntheticSpec{100, 2, ValueDistribution::kIndependent, 326});
  InProcCluster cluster(Topology::uniform(global, 2, 327));
  QueryConfig config;
  config.window = makeWindow({0.0, 0.0}, {0.5, 0.5});
  EXPECT_THROW(SkylineMaintainer(cluster.coordinator(), config,
                                 MaintenanceStrategy::kIncremental),
               std::invalid_argument);
}

}  // namespace
}  // namespace dsud
