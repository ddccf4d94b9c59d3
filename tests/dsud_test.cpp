// End-to-end correctness of the distributed algorithms: DSUD, e-DSUD and the
// naive baseline must all report exactly the centralised answer
// {t : P_gsky(t) >= q} with exact probabilities, for every combination of
// site count, dimensionality, threshold and distribution.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/cluster.hpp"
#include "gen/synthetic.hpp"
#include "test_util.hpp"

namespace dsud {
namespace {

struct DistCase {
  std::size_t n;
  std::size_t m;
  std::size_t dims;
  ValueDistribution dist;
  double q;
  std::uint64_t seed;
};

void expectMatchesGroundTruth(const QueryResult& result, const Dataset& global,
                              double q) {
  const auto expected = linearSkyline(global, {.q = q});
  auto got = result.skyline;
  sortByGlobalProbability(got);

  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].tuple.id, expected[i].id) << "rank " << i;
    EXPECT_NEAR(got[i].globalSkyProb, expected[i].skyProb, 1e-9);
    EXPECT_EQ(got[i].tuple.values, expected[i].values);
  }
}

class DistributedParamTest : public ::testing::TestWithParam<DistCase> {};

TEST_P(DistributedParamTest, AllAlgorithmsMatchCentralisedAnswer) {
  const DistCase& c = GetParam();
  const Dataset global =
      generateSynthetic(SyntheticSpec{c.n, c.dims, c.dist, c.seed});
  InProcCluster cluster(Topology::uniform(global, c.m, c.seed + 1000));

  QueryConfig config;
  config.q = c.q;

  const QueryResult naive = cluster.engine().run(Algo::kNaive, config);
  expectMatchesGroundTruth(naive, global, c.q);

  const QueryResult dsud = cluster.engine().run(Algo::kDsud, config);
  expectMatchesGroundTruth(dsud, global, c.q);

  const QueryResult edsud = cluster.engine().run(Algo::kEdsud, config);
  expectMatchesGroundTruth(edsud, global, c.q);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DistributedParamTest,
    ::testing::Values(
        DistCase{200, 1, 2, ValueDistribution::kIndependent, 0.3, 1},
        DistCase{200, 4, 2, ValueDistribution::kIndependent, 0.3, 2},
        DistCase{500, 8, 2, ValueDistribution::kAnticorrelated, 0.3, 3},
        DistCase{500, 8, 3, ValueDistribution::kIndependent, 0.5, 4},
        DistCase{500, 5, 4, ValueDistribution::kCorrelated, 0.3, 5},
        DistCase{1000, 16, 3, ValueDistribution::kAnticorrelated, 0.7, 6},
        DistCase{1000, 10, 2, ValueDistribution::kIndependent, 0.9, 7},
        DistCase{2000, 20, 3, ValueDistribution::kIndependent, 0.3, 8},
        DistCase{2000, 32, 2, ValueDistribution::kAnticorrelated, 0.5, 9},
        DistCase{300, 64, 2, ValueDistribution::kIndependent, 0.3, 10}),
    [](const ::testing::TestParamInfo<DistCase>& info) {
      const DistCase& c = info.param;
      return std::string("n").append(std::to_string(c.n)) + "_m" +
             std::to_string(c.m) + "_d" + std::to_string(c.dims) + "_" +
             distributionName(c.dist) + "_q" +
             std::to_string(static_cast<int>(c.q * 10)) + "_s" +
             std::to_string(c.seed);
    });

TEST(DsudTest, NaiveBandwidthEqualsDatabaseSize) {
  const Dataset global = generateSynthetic(
      SyntheticSpec{400, 2, ValueDistribution::kIndependent, 11});
  InProcCluster cluster(Topology::uniform(global, 4, 12));
  const QueryResult result = cluster.engine().run(Algo::kNaive, QueryConfig{});
  // The baseline ships |D| tuples, nothing else (paper Sec. 3.2).
  EXPECT_EQ(result.stats.tuplesShipped, global.size());
}

TEST(DsudTest, DsudShipsFarLessThanNaive) {
  const Dataset global = generateSynthetic(
      SyntheticSpec{5000, 2, ValueDistribution::kIndependent, 13});
  InProcCluster cluster(Topology::uniform(global, 10, 14));
  const QueryResult naive = cluster.engine().run(Algo::kNaive, QueryConfig{});
  const QueryResult dsud = cluster.engine().run(Algo::kDsud, QueryConfig{});
  EXPECT_LT(dsud.stats.tuplesShipped, naive.stats.tuplesShipped / 2);
}

TEST(DsudTest, ProgressPointsAreMonotone) {
  const Dataset global = generateSynthetic(
      SyntheticSpec{2000, 3, ValueDistribution::kAnticorrelated, 15});
  InProcCluster cluster(Topology::uniform(global, 8, 16));
  const QueryResult result = cluster.engine().run(Algo::kDsud, QueryConfig{});
  ASSERT_EQ(result.progress.size(), result.skyline.size());
  for (std::size_t i = 1; i < result.progress.size(); ++i) {
    EXPECT_EQ(result.progress[i].reported, i + 1);
    EXPECT_GE(result.progress[i].tuplesShipped,
              result.progress[i - 1].tuplesShipped);
    EXPECT_GE(result.progress[i].seconds, result.progress[i - 1].seconds);
  }
  // Progressive: the first answer arrives long before the query finishes.
  if (result.skyline.size() > 3) {
    EXPECT_LT(result.progress.front().tuplesShipped,
              result.stats.tuplesShipped);
  }
}

TEST(DsudTest, ProgressCallbackFiresPerAnswer) {
  const Dataset global = generateSynthetic(
      SyntheticSpec{1000, 2, ValueDistribution::kAnticorrelated, 17});
  InProcCluster cluster(Topology::uniform(global, 5, 18));
  std::size_t calls = 0;
  QueryOptions options;
  options.progress =
      [&](const GlobalSkylineEntry& entry, const ProgressPoint& point) {
        ++calls;
        EXPECT_EQ(point.reported, calls);
        EXPECT_GE(entry.globalSkyProb, 0.3);
      };
  const QueryResult result =
      cluster.engine().run(Algo::kDsud, QueryConfig{}, options);
  EXPECT_EQ(calls, result.skyline.size());
}

TEST(DsudTest, StatsCountersAreConsistent) {
  const Dataset global = generateSynthetic(
      SyntheticSpec{1500, 2, ValueDistribution::kIndependent, 19});
  InProcCluster cluster(Topology::uniform(global, 6, 20));
  const QueryResult result = cluster.engine().run(Algo::kDsud, QueryConfig{});
  // DSUD broadcasts every pulled candidate; each broadcast ships m-1 tuples.
  EXPECT_EQ(result.stats.broadcasts, result.stats.candidatesPulled);
  EXPECT_EQ(result.stats.tuplesShipped,
            result.stats.candidatesPulled +
                result.stats.broadcasts * (cluster.siteCount() - 1));
  EXPECT_EQ(result.stats.expunged, 0u);  // DSUD never expunges
  EXPECT_GT(result.stats.bytesShipped, 0u);
  EXPECT_GT(result.stats.roundTrips, 0u);
}

TEST(DsudTest, LocalPruningReducesCandidatePulls) {
  const Dataset global = generateSynthetic(
      SyntheticSpec{4000, 2, ValueDistribution::kIndependent, 21});
  InProcCluster cluster(Topology::uniform(global, 8, 22));
  const QueryResult result = cluster.engine().run(Algo::kDsud, QueryConfig{});
  // Total local skyline size: what would ship without any pruning.
  std::size_t totalLocalSkyline = result.stats.prunedAtSites;
  totalLocalSkyline += result.stats.candidatesPulled;
  EXPECT_GT(result.stats.prunedAtSites, 0u);
  EXPECT_LT(result.stats.candidatesPulled, totalLocalSkyline);
}

TEST(DsudTest, RepeatedQueriesAreDeterministic) {
  const Dataset global = generateSynthetic(
      SyntheticSpec{800, 3, ValueDistribution::kIndependent, 23});
  InProcCluster clusterA(Topology::uniform(global, 7, 24));
  InProcCluster clusterB(Topology::uniform(global, 7, 24));
  const QueryResult a = clusterA.engine().run(Algo::kDsud, QueryConfig{});
  const QueryResult b = clusterB.engine().run(Algo::kDsud, QueryConfig{});
  EXPECT_EQ(testutil::idsOf(a.skyline), testutil::idsOf(b.skyline));
  EXPECT_EQ(a.stats.tuplesShipped, b.stats.tuplesShipped);
}

TEST(DsudTest, ThresholdMonotonicityDistributed) {
  const Dataset global = generateSynthetic(
      SyntheticSpec{1500, 3, ValueDistribution::kAnticorrelated, 25});
  InProcCluster cluster(Topology::uniform(global, 6, 26));
  std::vector<std::uint64_t> bandwidth;
  std::vector<std::size_t> sizes;
  for (double q : {0.3, 0.5, 0.7, 0.9}) {
    QueryConfig config;
    config.q = q;
    const QueryResult result = cluster.engine().run(Algo::kDsud, config);
    bandwidth.push_back(result.stats.tuplesShipped);
    sizes.push_back(result.skyline.size());
  }
  // Larger q: fewer answers and less bandwidth (paper Sec. 7.3).
  EXPECT_TRUE(std::is_sorted(sizes.rbegin(), sizes.rend()));
  EXPECT_TRUE(std::is_sorted(bandwidth.rbegin(), bandwidth.rend()));
}

}  // namespace
}  // namespace dsud
