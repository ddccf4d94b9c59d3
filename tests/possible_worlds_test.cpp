#include "skyline/possible_worlds.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>

#include "common/rng.hpp"
#include "gen/synthetic.hpp"
#include "skyline/linear_skyline.hpp"
#include "test_util.hpp"

namespace dsud {
namespace {

using testutil::makeDataset;

/// The paper's running example (Fig. 3): three tuples in 2-D.
Dataset paperFig3() {
  return makeDataset(2, {
                            {80.0, 96.0, 0.8},  // t1
                            {85.0, 90.0, 0.6},  // t2
                            {75.0, 95.0, 0.8},  // t3
                        });
}

TEST(PossibleWorldsTest, WorldProbabilitiesMatchFig3) {
  const Dataset data = paperFig3();
  // W1 = {} .. W8 = {t1,t2,t3}, bit i = tuple i+1 present.
  EXPECT_NEAR(worldProbability(data, 0b000), 0.016, 1e-12);
  EXPECT_NEAR(worldProbability(data, 0b001), 0.064, 1e-12);
  EXPECT_NEAR(worldProbability(data, 0b010), 0.024, 1e-12);
  EXPECT_NEAR(worldProbability(data, 0b100), 0.064, 1e-12);
  EXPECT_NEAR(worldProbability(data, 0b011), 0.096, 1e-12);
  EXPECT_NEAR(worldProbability(data, 0b101), 0.256, 1e-12);
  EXPECT_NEAR(worldProbability(data, 0b110), 0.096, 1e-12);
  EXPECT_NEAR(worldProbability(data, 0b111), 0.384, 1e-12);
}

TEST(PossibleWorldsTest, WorldProbabilitiesSumToOne) {
  const Dataset data = paperFig3();
  double total = 0.0;
  for (std::uint32_t w = 0; w < 8; ++w) total += worldProbability(data, w);
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(PossibleWorldsTest, SkylineProbabilitiesMatchFig3) {
  // Paper Sec. 3: P_sky(t1) = 0.16, P_sky(t2) = 0.6, P_sky(t3) = 0.8.
  const Dataset data = paperFig3();
  const auto probs = skylineProbabilitiesByEnumeration(data);
  EXPECT_NEAR(probs[0], 0.16, 1e-12);
  EXPECT_NEAR(probs[1], 0.6, 1e-12);
  EXPECT_NEAR(probs[2], 0.8, 1e-12);
}

TEST(PossibleWorldsTest, SkylineOfWorldUsesConventionalDominance) {
  const Dataset data = paperFig3();
  // World {t1, t2, t3}: t3 = (75,95) dominates t1 = (80,96); t2 = (85,90)
  // is incomparable with both -> skyline {t2, t3}.
  const auto sky = skylineOfWorld(data, 0b111, fullMask(2));
  EXPECT_EQ(sky, (std::vector<std::size_t>{1, 2}));
  // Empty world has an empty skyline.
  EXPECT_TRUE(skylineOfWorld(data, 0, fullMask(2)).empty());
  // Singleton world: the tuple is its own skyline.
  EXPECT_EQ(skylineOfWorld(data, 0b001, fullMask(2)),
            (std::vector<std::size_t>{0}));
}

TEST(PossibleWorldsTest, RejectsOversizedDatasets) {
  Dataset data(1);
  const std::array<double, 1> v = {0.0};
  for (std::size_t i = 0; i <= kMaxEnumerableTuples; ++i) {
    data.add(i, v, 0.5);
  }
  EXPECT_THROW(skylineProbabilitiesByEnumeration(data),
               std::invalid_argument);
}

TEST(PossibleWorldsTest, CertainTuplesReduceToClassicalSkyline) {
  // With P ≡ 1 the probabilistic skyline is the classical one: probability
  // 1 for skyline points, 0 for dominated points.
  const Dataset data = makeDataset(2, {
                                          {1.0, 4.0, 1.0},
                                          {2.0, 3.0, 1.0},
                                          {3.0, 3.5, 1.0},  // dominated by (2,3)
                                          {4.0, 4.0, 1.0},  // dominated
                                      });
  const auto probs = skylineProbabilitiesByEnumeration(data);
  EXPECT_NEAR(probs[0], 1.0, 1e-12);
  EXPECT_NEAR(probs[1], 1.0, 1e-12);
  EXPECT_NEAR(probs[2], 0.0, 1e-12);  // dominated by (2, 3)
  EXPECT_NEAR(probs[3], 0.0, 1e-12);
}

// Property: the closed form (Eq. 3, linear scan) equals the possible-world
// semantics (Eq. 2, enumeration) on random uncertain databases.
class ClosedFormEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t,
                                                 ValueDistribution>> {};

TEST_P(ClosedFormEquivalenceTest, Eq2EqualsEq3) {
  const auto [n, dims, dist] = GetParam();
  for (std::uint64_t seed = 100; seed < 110; ++seed) {
    const Dataset data = generateSynthetic(SyntheticSpec{n, dims, dist, seed});
    const auto enumerated = skylineProbabilitiesByEnumeration(data);
    const auto closedForm = skylineProbabilitiesLinear(data);
    ASSERT_EQ(enumerated.size(), closedForm.size());
    for (std::size_t i = 0; i < enumerated.size(); ++i) {
      EXPECT_NEAR(enumerated[i], closedForm[i], 1e-9)
          << "seed=" << seed << " tuple=" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ClosedFormEquivalenceTest,
    ::testing::Values(
        std::make_tuple(1, 2, ValueDistribution::kIndependent),
        std::make_tuple(8, 2, ValueDistribution::kIndependent),
        std::make_tuple(12, 2, ValueDistribution::kAnticorrelated),
        std::make_tuple(12, 3, ValueDistribution::kIndependent),
        std::make_tuple(14, 4, ValueDistribution::kCorrelated),
        std::make_tuple(16, 2, ValueDistribution::kAnticorrelated)),
    [](const auto& info) {
      return std::string("n").append(std::to_string(std::get<0>(info.param))) +
             "_d" + std::to_string(std::get<1>(info.param)) + "_" +
             distributionName(std::get<2>(info.param));
    });

TEST(PossibleWorldsTest, SubspaceEnumerationMatchesClosedForm) {
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    const Dataset data = generateSynthetic(
        SyntheticSpec{10, 3, ValueDistribution::kIndependent, seed});
    for (const DimMask mask : {DimMask{0b011}, DimMask{0b101}, DimMask{0b100}}) {
      const auto enumerated = skylineProbabilitiesByEnumeration(data, {.mask = mask});
      const auto closedForm = skylineProbabilitiesLinear(data, {.mask = mask});
      for (std::size_t i = 0; i < enumerated.size(); ++i) {
        EXPECT_NEAR(enumerated[i], closedForm[i], 1e-9);
      }
    }
  }
}

}  // namespace
}  // namespace dsud
