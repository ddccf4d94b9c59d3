#include "skyline/bbs.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "gen/synthetic.hpp"
#include "skyline/linear_skyline.hpp"
#include "test_util.hpp"

namespace dsud {
namespace {

TEST(BbsTest, EmptyTree) {
  const PRTree tree(2);
  EXPECT_TRUE(bbsSkyline(tree, {.q = 0.3}).empty());
}

TEST(BbsTest, SingleTuple) {
  Dataset data = testutil::makeDataset(2, {{0.5, 0.5, 0.7}});
  const PRTree tree = PRTree::bulkLoad(data);
  const auto sky = bbsSkyline(tree, {.q = 0.3});
  ASSERT_EQ(sky.size(), 1u);
  EXPECT_DOUBLE_EQ(sky[0].skyProb, 0.7);
  EXPECT_TRUE(bbsSkyline(tree, {.q = 0.8}).empty());
}

struct BbsCase {
  std::size_t n;
  std::size_t dims;
  ValueDistribution dist;
  double q;
  std::uint64_t seed;
};

class BbsParamTest : public ::testing::TestWithParam<BbsCase> {};

TEST_P(BbsParamTest, MatchesLinearScanExactly) {
  const BbsCase& c = GetParam();
  const Dataset data =
      generateSynthetic(SyntheticSpec{c.n, c.dims, c.dist, c.seed});
  const PRTree tree = PRTree::bulkLoad(data);

  const auto expected = linearSkyline(data, {.q = c.q});
  const auto got = bbsSkyline(tree, {.q = c.q});

  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, expected[i].id);
    EXPECT_NEAR(got[i].skyProb, expected[i].skyProb, 1e-9);
    EXPECT_EQ(got[i].values, expected[i].values);
    EXPECT_EQ(got[i].prob, expected[i].prob);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BbsParamTest,
    ::testing::Values(
        BbsCase{200, 2, ValueDistribution::kIndependent, 0.3, 21},
        BbsCase{200, 2, ValueDistribution::kAnticorrelated, 0.3, 22},
        BbsCase{200, 3, ValueDistribution::kIndependent, 0.5, 23},
        BbsCase{500, 3, ValueDistribution::kAnticorrelated, 0.3, 24},
        BbsCase{500, 4, ValueDistribution::kIndependent, 0.7, 25},
        BbsCase{500, 2, ValueDistribution::kCorrelated, 0.3, 26},
        BbsCase{1000, 2, ValueDistribution::kIndependent, 0.9, 27},
        BbsCase{1000, 5, ValueDistribution::kIndependent, 0.3, 28},
        BbsCase{2000, 3, ValueDistribution::kAnticorrelated, 0.5, 29}),
    [](const ::testing::TestParamInfo<BbsCase>& info) {
      const BbsCase& c = info.param;
      return std::string("n").append(std::to_string(c.n)) + "_d" +
             std::to_string(c.dims) + "_" + distributionName(c.dist) + "_q" +
             std::to_string(static_cast<int>(c.q * 10));
    });

TEST(BbsTest, SubspaceMatchesLinearScan) {
  const Dataset data = generateSynthetic(
      SyntheticSpec{400, 3, ValueDistribution::kIndependent, 31});
  const PRTree tree = PRTree::bulkLoad(data);
  for (const DimMask mask :
       {DimMask{0b011}, DimMask{0b101}, DimMask{0b110}, DimMask{0b001}}) {
    const auto expected = linearSkyline(data, {.mask = mask, .q = 0.3});
    const auto got = bbsSkyline(tree, {.mask = mask, .q = 0.3});
    EXPECT_EQ(testutil::idsOf(got), testutil::idsOf(expected))
        << "mask=" << mask;
  }
}

TEST(BbsTest, PruningActuallyHappens) {
  const Dataset data = generateSynthetic(
      SyntheticSpec{5000, 2, ValueDistribution::kIndependent, 33});
  const PRTree tree = PRTree::bulkLoad(data);
  BbsStats stats;
  bbsSkyline(tree, {.q = 0.3}, &stats);
  EXPECT_GT(stats.nodesPruned, 0u);
  // Far fewer tuples evaluated than stored: the point of the index.
  EXPECT_LT(stats.tuplesEvaluated, data.size() / 2);
}

TEST(BbsTest, HigherThresholdPrunesMore) {
  const Dataset data = generateSynthetic(
      SyntheticSpec{5000, 3, ValueDistribution::kAnticorrelated, 34});
  const PRTree tree = PRTree::bulkLoad(data);
  BbsStats low;
  BbsStats high;
  bbsSkyline(tree, {.q = 0.3}, &low);
  bbsSkyline(tree, {.q = 0.9}, &high);
  EXPECT_LE(high.tuplesEvaluated, low.tuplesEvaluated);
}

TEST(BbsTest, StreamEmitsInAscendingL1Order) {
  const Dataset data = generateSynthetic(
      SyntheticSpec{1000, 2, ValueDistribution::kAnticorrelated, 35});
  const PRTree tree = PRTree::bulkLoad(data);
  double lastKey = -1e300;
  std::size_t count = 0;
  bbsSkylineStream(tree, {.q = 0.3}, [&](const ProbSkylineEntry& e) {
    const double key = e.values[0] + e.values[1];
    EXPECT_GE(key, lastKey);
    lastKey = key;
    ++count;
    return true;
  });
  EXPECT_EQ(count, bbsSkyline(tree, {.q = 0.3}).size());
}

TEST(BbsTest, StreamEarlyExitStops) {
  const Dataset data = generateSynthetic(
      SyntheticSpec{1000, 2, ValueDistribution::kAnticorrelated, 36});
  const PRTree tree = PRTree::bulkLoad(data);
  std::size_t count = 0;
  bbsSkylineStream(tree, {.q = 0.3}, [&](const ProbSkylineEntry&) {
    return ++count < 3;
  });
  EXPECT_EQ(count, 3u);
}

TEST(BbsTest, CertainDataGivesClassicSkyline) {
  Dataset data(2);
  // Grid of points with P = 1: the skyline is the anti-diagonal staircase.
  for (int x = 0; x < 10; ++x) {
    for (int y = 0; y < 10; ++y) {
      const std::array<double, 2> v = {double(x), double(y)};
      data.add(v, 1.0);
    }
  }
  const PRTree tree = PRTree::bulkLoad(data);
  const auto sky = bbsSkyline(tree, {.q = 0.5});
  // Only (0, 0) is undominated in a full grid.
  ASSERT_EQ(sky.size(), 1u);
  EXPECT_EQ(sky[0].values, (std::vector<double>{0.0, 0.0}));
}

TEST(BbsTest, WorksOnDynamicallyBuiltTree) {
  const Dataset data = generateSynthetic(
      SyntheticSpec{600, 3, ValueDistribution::kIndependent, 37});
  PRTree tree(3);
  for (std::size_t row = 0; row < data.size(); ++row) {
    tree.insert(data.id(row), data.values(row), data.prob(row));
  }
  EXPECT_EQ(testutil::idsOf(bbsSkyline(tree, {.q = 0.3})),
            testutil::idsOf(linearSkyline(data, {.q = 0.3})));
}

}  // namespace
}  // namespace dsud
