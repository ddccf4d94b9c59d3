// Top-k probabilistic skyline (QueryEngine::run with a TopKConfig): the k
// tuples with the largest global skyline probability, verified against the
// sorted centralised ground truth.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/cluster.hpp"
#include "gen/synthetic.hpp"
#include "test_util.hpp"

namespace dsud {
namespace {

/// Ground truth: ids of the k most probable skyline tuples above the floor.
std::vector<TupleId> topKTruth(const Dataset& global, std::size_t k,
                               double floorQ) {
  auto all = linearSkyline(global, {.q = floorQ});  // sorted desc by probability
  if (all.size() > k) all.resize(k);
  return testutil::idsOf(all);
}

TEST(TopKTest, ValidatesArguments) {
  const Dataset global = generateSynthetic(
      SyntheticSpec{50, 2, ValueDistribution::kIndependent, 400});
  InProcCluster cluster(Topology::uniform(global, 2, 401));
  TopKConfig bad;
  bad.k = 0;
  EXPECT_THROW(cluster.engine().run(bad), std::invalid_argument);
  bad.k = 1;
  bad.floorQ = 0.0;
  EXPECT_THROW(cluster.engine().run(bad), std::invalid_argument);
}

class TopKParamTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t,
                                                 ValueDistribution>> {};

TEST_P(TopKParamTest, MatchesSortedGroundTruth) {
  const auto [k, m, dist] = GetParam();
  for (std::uint64_t seed = 410; seed < 413; ++seed) {
    const Dataset global = generateSynthetic(SyntheticSpec{1000, 3, dist, seed});
    InProcCluster cluster(Topology::uniform(global, m, seed + 1));
    TopKConfig config;
    config.k = k;
    config.floorQ = 0.05;
    const QueryResult result = cluster.engine().run(config);
    EXPECT_EQ(testutil::idsOf(result.skyline),
              topKTruth(global, k, config.floorQ))
        << "seed=" << seed;
    // Sorted descending.
    for (std::size_t i = 1; i < result.skyline.size(); ++i) {
      EXPECT_GE(result.skyline[i - 1].globalSkyProb,
                result.skyline[i].globalSkyProb);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TopKParamTest,
    ::testing::Values(
        std::make_tuple(1u, 4u, ValueDistribution::kIndependent),
        std::make_tuple(5u, 4u, ValueDistribution::kIndependent),
        std::make_tuple(10u, 8u, ValueDistribution::kAnticorrelated),
        std::make_tuple(25u, 8u, ValueDistribution::kAnticorrelated),
        std::make_tuple(10u, 1u, ValueDistribution::kCorrelated)),
    [](const auto& info) {
      return "k" + std::to_string(std::get<0>(info.param)) + "_m" +
             std::to_string(std::get<1>(info.param)) + "_" +
             distributionName(std::get<2>(info.param));
    });

TEST(TopKTest, KLargerThanAnswerSetReturnsEverything) {
  const Dataset global = generateSynthetic(
      SyntheticSpec{500, 2, ValueDistribution::kIndependent, 420});
  InProcCluster cluster(Topology::uniform(global, 4, 421));
  TopKConfig config;
  config.k = 10000;
  config.floorQ = 0.3;
  const QueryResult result = cluster.engine().run(config);
  EXPECT_EQ(testutil::idsOf(result.skyline), topKTruth(global, 10000, 0.3));
}

TEST(TopKTest, AdaptiveThresholdBeatsFloorQuery) {
  // Running the full e-DSUD query at floorQ and truncating would ship far
  // more tuples than the adaptive top-k loop for small k.
  const Dataset global = generateSynthetic(
      SyntheticSpec{10000, 3, ValueDistribution::kAnticorrelated, 422});
  InProcCluster cluster(Topology::uniform(global, 10, 423));

  TopKConfig topk;
  topk.k = 5;
  topk.floorQ = 0.05;
  const QueryResult adaptive = cluster.engine().run(topk);

  QueryConfig full;
  full.q = topk.floorQ;
  const QueryResult exhaustive = cluster.engine().run(Algo::kEdsud, full);

  ASSERT_EQ(adaptive.skyline.size(), 5u);
  EXPECT_LT(adaptive.stats.tuplesShipped,
            exhaustive.stats.tuplesShipped / 2);
  // And the answers agree with the truncated exhaustive run.
  auto want = exhaustive.skyline;
  sortByGlobalProbability(want);
  want.resize(5);
  EXPECT_EQ(testutil::idsOf(adaptive.skyline), testutil::idsOf(want));
}

TEST(TopKTest, SubspaceTopK) {
  const Dataset global = generateSynthetic(
      SyntheticSpec{800, 3, ValueDistribution::kIndependent, 424});
  InProcCluster cluster(Topology::uniform(global, 5, 425));
  TopKConfig config;
  config.k = 8;
  config.floorQ = 0.05;
  config.mask = 0b011;
  const QueryResult result = cluster.engine().run(config);

  auto truth = linearSkyline(global, {.mask = config.mask, .q = config.floorQ});
  if (truth.size() > 8) truth.resize(8);
  EXPECT_EQ(testutil::idsOf(result.skyline), testutil::idsOf(truth));
}

TEST(TopKTest, WindowedTopK) {
  const Dataset global = generateSynthetic(
      SyntheticSpec{1500, 2, ValueDistribution::kIndependent, 426});
  Rect window(2);
  const std::array<double, 2> lo = {0.3, 0.3};
  const std::array<double, 2> hi = {0.8, 0.8};
  window.expand(lo);
  window.expand(hi);

  InProcCluster cluster(Topology::uniform(global, 6, 427));
  TopKConfig config;
  config.k = 5;
  config.floorQ = 0.05;
  config.window = window;
  const QueryResult result = cluster.engine().run(config);

  auto truth =
      linearSkyline(global, {.q = config.floorQ, .clip = &window});
  if (truth.size() > 5) truth.resize(5);
  EXPECT_EQ(testutil::idsOf(result.skyline), testutil::idsOf(truth));
}

TEST(TopKTest, DeterministicAcrossRuns) {
  const Dataset global = generateSynthetic(
      SyntheticSpec{2000, 3, ValueDistribution::kAnticorrelated, 428});
  InProcCluster a(Topology::uniform(global, 6, 429));
  InProcCluster b(Topology::uniform(global, 6, 429));
  TopKConfig config;
  config.k = 12;
  const QueryResult ra = a.engine().run(config);
  const QueryResult rb = b.engine().run(config);
  EXPECT_EQ(testutil::idsOf(ra.skyline), testutil::idsOf(rb.skyline));
  EXPECT_EQ(ra.stats.tuplesShipped, rb.stats.tuplesShipped);
}

}  // namespace
}  // namespace dsud
