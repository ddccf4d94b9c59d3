// Skewed partitioning strategies: range slices and Zipf imbalance.  The
// distributed algorithms assume nothing about how data lands on sites, so
// answers must stay exact under every strategy — only the bandwidth
// constants may shift.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "core/cluster.hpp"
#include "gen/partition.hpp"
#include "gen/synthetic.hpp"
#include "test_util.hpp"

namespace dsud {
namespace {

void expectDisjointAndComplete(const Dataset& global,
                               const std::vector<Dataset>& sites) {
  std::vector<TupleId> ids;
  for (const Dataset& site : sites) {
    for (std::size_t row = 0; row < site.size(); ++row) {
      ids.push_back(site.id(row));
    }
  }
  EXPECT_EQ(ids.size(), global.size());
  std::sort(ids.begin(), ids.end());
  EXPECT_TRUE(std::adjacent_find(ids.begin(), ids.end()) == ids.end());
}

TEST(PartitionByRangeTest, DisjointCompleteAndOrdered) {
  const Dataset global = generateSynthetic(
      SyntheticSpec{500, 2, ValueDistribution::kIndependent, 980});
  const auto sites = partitionByRange(global, 5, 0);
  ASSERT_EQ(sites.size(), 5u);
  expectDisjointAndComplete(global, sites);

  // Slices are contiguous on dimension 0: max of slice s <= min of s+1.
  for (std::size_t s = 0; s + 1 < sites.size(); ++s) {
    double hi = -1e300;
    double nextLo = 1e300;
    for (std::size_t row = 0; row < sites[s].size(); ++row) {
      hi = std::max(hi, sites[s].values(row)[0]);
    }
    for (std::size_t row = 0; row < sites[s + 1].size(); ++row) {
      nextLo = std::min(nextLo, sites[s + 1].values(row)[0]);
    }
    EXPECT_LE(hi, nextLo);
  }
}

TEST(PartitionByRangeTest, Validation) {
  const Dataset global(2);
  EXPECT_THROW(partitionByRange(global, 0, 0), std::invalid_argument);
  EXPECT_THROW(partitionByRange(global, 2, 5), std::invalid_argument);
}

TEST(PartitionZipfTest, DisjointCompleteAndSkewed) {
  const Dataset global = generateSynthetic(
      SyntheticSpec{5000, 2, ValueDistribution::kIndependent, 981});
  Rng rng(982);
  const auto sites = partitionZipf(global, 8, 1.0, rng);
  expectDisjointAndComplete(global, sites);
  // Hot site clearly larger than the coldest.
  std::size_t largest = 0;
  std::size_t smallest = global.size();
  for (const Dataset& site : sites) {
    largest = std::max(largest, site.size());
    smallest = std::min(smallest, site.size());
  }
  EXPECT_GT(largest, 2 * std::max<std::size_t>(smallest, 1));
  // Site 0 carries the most mass under Zipf weights.
  EXPECT_EQ(largest, sites[0].size());
}

TEST(PartitionZipfTest, ThetaZeroIsRoughlyBalanced) {
  const Dataset global = generateSynthetic(
      SyntheticSpec{4000, 2, ValueDistribution::kIndependent, 983});
  Rng rng(984);
  const auto sites = partitionZipf(global, 4, 0.0, rng);
  for (const Dataset& site : sites) {
    EXPECT_GT(site.size(), 800u);
    EXPECT_LT(site.size(), 1200u);
  }
}

TEST(PartitionZipfTest, Validation) {
  const Dataset global(2);
  Rng rng(1);
  EXPECT_THROW(partitionZipf(global, 0, 1.0, rng), std::invalid_argument);
  EXPECT_THROW(partitionZipf(global, 2, -0.5, rng), std::invalid_argument);
}

class SkewedClusterTest
    : public ::testing::TestWithParam<std::tuple<std::string, std::uint64_t>> {
};

TEST_P(SkewedClusterTest, AlgorithmsStayExactUnderSkew) {
  const auto [strategy, seed] = GetParam();
  const Dataset global = generateSynthetic(
      SyntheticSpec{800, 2, ValueDistribution::kAnticorrelated, seed});

  std::vector<Dataset> sites;
  Rng rng(seed + 1);
  if (strategy == "range0") {
    sites = partitionByRange(global, 6, 0);
  } else if (strategy == "range1") {
    sites = partitionByRange(global, 6, 1);
  } else {
    sites = partitionZipf(global, 6, 1.2, rng);
  }

  InProcCluster cluster(Topology::fromPartitions(sites));
  const auto expected = testutil::idsOf(linearSkyline(global, {.q = 0.3}));
  for (QueryResult result :
       {cluster.engine().run(Algo::kDsud, QueryConfig{}),
        cluster.engine().run(Algo::kEdsud, QueryConfig{})}) {
    sortByGlobalProbability(result.skyline);
    EXPECT_EQ(testutil::idsOf(result.skyline), expected) << strategy;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, SkewedClusterTest,
    ::testing::Combine(::testing::Values("range0", "range1", "zipf"),
                       ::testing::Values(990u, 991u)),
    [](const auto& info) {
      return std::get<0>(info.param) + "_s" +
             std::to_string(std::get<1>(info.param));
    });

TEST(SkewedClusterTest, RangePartitioningConcentratesLocalSkylines) {
  // With range slices on dimension 0, the first site owns the cheap region
  // and contributes disproportionately many answers; the protocol still
  // works, it just pulls more candidates from that site.
  const Dataset global = generateSynthetic(
      SyntheticSpec{2000, 2, ValueDistribution::kIndependent, 992});
  const auto sites = partitionByRange(global, 4, 0);
  InProcCluster cluster(Topology::fromPartitions(sites));
  const QueryResult result = cluster.engine().run(Algo::kEdsud, QueryConfig{});
  std::size_t fromFirst = 0;
  for (const auto& e : result.skyline) {
    if (e.site == 0) ++fromFirst;
  }
  EXPECT_GT(fromFirst, result.skyline.size() / 2);
}

}  // namespace
}  // namespace dsud
