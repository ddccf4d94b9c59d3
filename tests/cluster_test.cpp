#include "core/cluster.hpp"

#include <gtest/gtest.h>

#include "gen/partition.hpp"
#include "gen/synthetic.hpp"
#include "test_util.hpp"

namespace dsud {
namespace {

TEST(PartitionTest, DisjointAndComplete) {
  const Dataset global = generateSynthetic(
      SyntheticSpec{101, 2, ValueDistribution::kIndependent, 90});
  Rng rng(91);
  const auto sites = partitionUniform(global, 4, rng);
  ASSERT_EQ(sites.size(), 4u);

  std::size_t total = 0;
  std::vector<TupleId> allIds;
  for (const Dataset& site : sites) {
    total += site.size();
    for (std::size_t row = 0; row < site.size(); ++row) {
      allIds.push_back(site.id(row));
    }
  }
  EXPECT_EQ(total, global.size());
  std::sort(allIds.begin(), allIds.end());
  EXPECT_TRUE(std::adjacent_find(allIds.begin(), allIds.end()) ==
              allIds.end());  // disjoint
}

TEST(PartitionTest, NearlyEqualLocalCardinalities) {
  const Dataset global = generateSynthetic(
      SyntheticSpec{1000, 2, ValueDistribution::kIndependent, 92});
  Rng rng(93);
  const auto sites = partitionUniform(global, 7, rng);
  for (const Dataset& site : sites) {
    EXPECT_GE(site.size(), 1000u / 7);
    EXPECT_LE(site.size(), 1000u / 7 + 1);
  }
}

TEST(PartitionTest, DeterministicGivenSeed) {
  const Dataset global = generateSynthetic(
      SyntheticSpec{64, 2, ValueDistribution::kIndependent, 94});
  Rng rngA(95);
  Rng rngB(95);
  const auto a = partitionUniform(global, 3, rngA);
  const auto b = partitionUniform(global, 3, rngB);
  for (std::size_t s = 0; s < 3; ++s) {
    ASSERT_EQ(a[s].size(), b[s].size());
    for (std::size_t row = 0; row < a[s].size(); ++row) {
      EXPECT_EQ(a[s].id(row), b[s].id(row));
    }
  }
}

TEST(PartitionTest, RejectsZeroSites) {
  const Dataset global(2);
  Rng rng(1);
  EXPECT_THROW(partitionUniform(global, 0, rng), std::invalid_argument);
}

TEST(ClusterTest, WiresRequestedSiteCount) {
  const Dataset global = generateSynthetic(
      SyntheticSpec{100, 2, ValueDistribution::kIndependent, 96});
  InProcCluster cluster(Topology::uniform(global, 5, 97));
  EXPECT_EQ(cluster.siteCount(), 5u);
  EXPECT_EQ(cluster.dims(), 2u);
  EXPECT_EQ(cluster.coordinator().siteCount(), 5u);
}

TEST(ClusterTest, RejectsMismatchedDimensions) {
  std::vector<Dataset> sites;
  sites.emplace_back(2);
  sites.emplace_back(3);
  EXPECT_THROW(Topology::fromPartitions(std::move(sites)),
               std::invalid_argument);
}

TEST(ClusterTest, RejectsEmptySiteList) {
  EXPECT_THROW(Topology::fromPartitions({}), std::invalid_argument);
}

TEST(ClusterTest, MeterSeesEveryByteOfEveryCall) {
  const Dataset global = generateSynthetic(
      SyntheticSpec{500, 2, ValueDistribution::kIndependent, 98});
  InProcCluster cluster(Topology::uniform(global, 4, 99));
  const QueryResult result = cluster.engine().run(Algo::kEdsud, QueryConfig{});
  const UsageTotals totals = cluster.meter().totals();
  EXPECT_EQ(totals.tuples, result.stats.tuplesShipped);
  EXPECT_EQ(totals.bytes, result.stats.bytesShipped);
  EXPECT_EQ(totals.calls, result.stats.roundTrips);
  EXPECT_GT(totals.bytes, totals.tuples);  // tuples cost > 1 byte each
}

TEST(ClusterTest, BackToBackQueriesUseMeterDeltas) {
  const Dataset global = generateSynthetic(
      SyntheticSpec{500, 2, ValueDistribution::kIndependent, 100});
  InProcCluster cluster(Topology::uniform(global, 4, 101));
  const QueryResult first = cluster.engine().run(Algo::kEdsud, QueryConfig{});
  const QueryResult second = cluster.engine().run(Algo::kEdsud, QueryConfig{});
  // The shared meter keeps accumulating, but per-query stats are deltas.
  EXPECT_EQ(first.stats.tuplesShipped, second.stats.tuplesShipped);
  EXPECT_EQ(cluster.meter().totals().tuples,
            first.stats.tuplesShipped + second.stats.tuplesShipped);
}

TEST(ClusterTest, SiteByIdFindsAndThrows) {
  const Dataset global = generateSynthetic(
      SyntheticSpec{50, 2, ValueDistribution::kIndependent, 102});
  InProcCluster cluster(Topology::uniform(global, 3, 103));
  EXPECT_EQ(cluster.coordinator().siteById(2).siteId(), 2u);
  EXPECT_THROW(cluster.coordinator().siteById(42), std::out_of_range);
}

}  // namespace
}  // namespace dsud
