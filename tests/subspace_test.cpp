// Subspace skyline queries (paper Sec. 4): the framework restricted to a
// user-specified subset of dimensions must match the centralised answer on
// the projected space.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/cluster.hpp"
#include "gen/synthetic.hpp"
#include "test_util.hpp"

namespace dsud {
namespace {

class SubspaceParamTest
    : public ::testing::TestWithParam<std::tuple<DimMask, std::uint64_t>> {};

TEST_P(SubspaceParamTest, DistributedMatchesCentralisedProjection) {
  const auto [mask, seed] = GetParam();
  const Dataset global = generateSynthetic(
      SyntheticSpec{800, 4, ValueDistribution::kIndependent, seed});
  InProcCluster cluster(Topology::uniform(global, 8, seed + 1));

  QueryConfig config;
  config.q = 0.3;
  config.mask = mask;

  const auto expected = linearSkyline(global, {.mask = mask, .q = config.q});
  for (QueryResult result : {cluster.engine().run(Algo::kDsud, config),
                             cluster.engine().run(Algo::kEdsud, config),
                             cluster.engine().run(Algo::kNaive, config)}) {
    sortByGlobalProbability(result.skyline);
    ASSERT_EQ(result.skyline.size(), expected.size()) << "mask=" << mask;
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(result.skyline[i].tuple.id, expected[i].id);
      EXPECT_NEAR(result.skyline[i].globalSkyProb, expected[i].skyProb, 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Masks, SubspaceParamTest,
    ::testing::Values(std::make_tuple(DimMask{0b0011}, 61),
                      std::make_tuple(DimMask{0b0101}, 62),
                      std::make_tuple(DimMask{0b1110}, 63),
                      std::make_tuple(DimMask{0b1000}, 64),
                      std::make_tuple(DimMask{0b1111}, 65)),
    [](const auto& info) {
      return "mask" + std::to_string(std::get<0>(info.param)) + "_s" +
             std::to_string(std::get<1>(info.param));
    });

TEST(SubspaceTest, SingleDimensionSkylineIsMinimumStaircase) {
  // On one dimension the skyline probability of a tuple is P(t) times the
  // survival of every strictly smaller tuple on that dimension.
  std::vector<Dataset> sites;
  sites.emplace_back(2);
  sites.emplace_back(2);
  sites[0].add(0, std::vector<double>{1.0, 9.0}, 0.5);
  sites[1].add(1, std::vector<double>{2.0, 1.0}, 0.8);

  InProcCluster cluster(Topology::fromPartitions(sites));
  QueryConfig config;
  config.q = 0.2;
  config.mask = 0b01;  // price only
  QueryResult result = cluster.engine().run(Algo::kEdsud, config);
  sortByGlobalProbability(result.skyline);
  ASSERT_EQ(result.skyline.size(), 2u);
  EXPECT_EQ(result.skyline[0].tuple.id, 0u);  // P_gsky = 0.5
  EXPECT_NEAR(result.skyline[0].globalSkyProb, 0.5, 1e-12);
  EXPECT_NEAR(result.skyline[1].globalSkyProb, 0.8 * 0.5, 1e-12);
}

TEST(SubspaceTest, SubspaceAnswerCanDifferFromFullSpace) {
  const Dataset global = generateSynthetic(
      SyntheticSpec{500, 3, ValueDistribution::kAnticorrelated, 66});
  InProcCluster cluster(Topology::uniform(global, 4, 67));
  QueryConfig fullConfig;
  QueryConfig subConfig;
  subConfig.mask = 0b011;
  const auto full = cluster.engine().run(Algo::kEdsud, fullConfig);
  const auto sub = cluster.engine().run(Algo::kEdsud, subConfig);
  // The 2-D projection has (weakly) fewer skyline tuples than the 3-D space
  // on anticorrelated data; mostly we check both are valid and different.
  EXPECT_NE(testutil::idsOf(full.skyline), testutil::idsOf(sub.skyline));
  EXPECT_LE(sub.skyline.size(), full.skyline.size());
}

}  // namespace
}  // namespace dsud
