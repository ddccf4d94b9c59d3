#include <gtest/gtest.h>

#include <algorithm>

#include "core/cluster.hpp"
#include "gen/synthetic.hpp"
#include "test_util.hpp"

namespace dsud {
namespace {

TEST(EdsudTest, BeatsDsudBandwidthOnTypicalWorkloads) {
  // The headline claim (paper Figs. 8-10): e-DSUD's feedback selection
  // transmits fewer tuples than DSUD.  Checked on several seeds.
  std::size_t wins = 0;
  std::uint64_t dsudTotal = 0;
  std::uint64_t edsudTotal = 0;
  for (std::uint64_t seed = 40; seed < 46; ++seed) {
    const Dataset global = generateSynthetic(
        SyntheticSpec{4000, 3, ValueDistribution::kIndependent, seed});
    InProcCluster cluster(Topology::uniform(global, 12, seed + 100));
    const QueryResult dsud = cluster.engine().run(Algo::kDsud, QueryConfig{});
    const QueryResult edsud = cluster.engine().run(Algo::kEdsud, QueryConfig{});
    EXPECT_EQ(testutil::idsOf(dsud.skyline).size(),
              testutil::idsOf(edsud.skyline).size());
    dsudTotal += dsud.stats.tuplesShipped;
    edsudTotal += edsud.stats.tuplesShipped;
    if (edsud.stats.tuplesShipped <= dsud.stats.tuplesShipped) ++wins;
  }
  EXPECT_GE(wins, 5u);
  EXPECT_LT(edsudTotal, dsudTotal);
}

TEST(EdsudTest, ExpungesCandidatesWithoutBroadcast) {
  const Dataset global = generateSynthetic(
      SyntheticSpec{4000, 3, ValueDistribution::kIndependent, 47});
  InProcCluster cluster(Topology::uniform(global, 12, 48));
  const QueryResult result = cluster.engine().run(Algo::kEdsud, QueryConfig{});
  EXPECT_GT(result.stats.expunged, 0u);
  // Every pulled candidate is either broadcast or expunged.
  EXPECT_EQ(result.stats.candidatesPulled,
            result.stats.broadcasts + result.stats.expunged);
}

TEST(EdsudTest, BandwidthDecomposition) {
  const Dataset global = generateSynthetic(
      SyntheticSpec{2000, 2, ValueDistribution::kAnticorrelated, 49});
  InProcCluster cluster(Topology::uniform(global, 8, 50));
  const QueryResult result = cluster.engine().run(Algo::kEdsud, QueryConfig{});
  EXPECT_EQ(result.stats.tuplesShipped,
            result.stats.candidatesPulled +
                result.stats.broadcasts * (cluster.siteCount() - 1));
}

TEST(EdsudTest, FeedbackBoundAblationAllCorrect) {
  const Dataset global = generateSynthetic(
      SyntheticSpec{1500, 3, ValueDistribution::kAnticorrelated, 51});
  InProcCluster cluster(Topology::uniform(global, 10, 52));
  const auto expected =
      testutil::idsOf(linearSkyline(global, {.q = 0.3}));

  std::vector<std::uint64_t> bandwidth;
  for (const FeedbackBound bound :
       {FeedbackBound::kNone, FeedbackBound::kQueuedWitnesses,
        FeedbackBound::kQueuedAndConfirmed}) {
    QueryConfig config;
    config.bound = bound;
    QueryResult result = cluster.engine().run(Algo::kEdsud, config);
    sortByGlobalProbability(result.skyline);
    auto ids = testutil::idsOf(result.skyline);
    std::sort(ids.begin(), ids.end());
    auto want = expected;
    std::sort(want.begin(), want.end());
    EXPECT_EQ(ids, want);
    bandwidth.push_back(result.stats.tuplesShipped);
  }
  // Stronger bounds never cost more bandwidth.
  EXPECT_GE(bandwidth[0], bandwidth[1]);
  EXPECT_GE(bandwidth[1], bandwidth[2]);
}

TEST(EdsudTest, BothExpungePoliciesReturnExactAnswers) {
  const Dataset global = generateSynthetic(
      SyntheticSpec{1500, 3, ValueDistribution::kAnticorrelated, 46});
  InProcCluster cluster(Topology::uniform(global, 10, 146));
  const auto expected = testutil::idsOf(linearSkyline(global, {.q = 0.3}));
  for (const ExpungePolicy policy :
       {ExpungePolicy::kEager, ExpungePolicy::kPark}) {
    QueryConfig config;
    config.expunge = policy;
    QueryResult result = cluster.engine().run(Algo::kEdsud, config);
    sortByGlobalProbability(result.skyline);
    EXPECT_EQ(testutil::idsOf(result.skyline), expected)
        << "policy=" << static_cast<int>(policy);
    EXPECT_GT(result.stats.expunged, 0u);
  }
}

TEST(EdsudTest, PaperDominancePruneCanLoseQualifiedAnswers) {
  // Constructed counterexample for the paper's Local-Pruning claim
  // (DESIGN.md 3.5).  The feedback tuple t has a middling probability
  // (P = 0.5), so a tuple it dominates can still qualify globally, yet the
  // paper's rule prunes every dominated tuple unconditionally.
  //
  //   Site 0: t = (1, 1),    P = 0.50, local P_sky 0.50  (processed first)
  //   Site 1: u = (0.5, 10), P = 0.45, local P_sky 0.45  (site-1 head)
  //           s = (2, 2),    P = 0.44, local P_sky 0.44  (pending when t's
  //                                                       feedback arrives)
  //
  // P_gsky(s) = 0.44 · (1 − 0.5) = 0.22 >= q = 0.2, so s belongs in the
  // answer; the dominance rule silently drops it.
  std::vector<Dataset> sites;
  sites.emplace_back(2);
  sites.emplace_back(2);
  const std::array<double, 2> tv = {1.0, 1.0};
  const std::array<double, 2> uv = {0.5, 10.0};
  const std::array<double, 2> sv = {2.0, 2.0};
  sites[0].add(0, tv, 0.50);
  sites[1].add(1, uv, 0.45);
  sites[1].add(2, sv, 0.44);

  QueryConfig config;
  config.q = 0.2;

  // Exact rule: all three qualify (matches the centralised ground truth).
  {
    InProcCluster cluster(Topology::fromPartitions(sites));
    config.prune = PruneRule::kThresholdBound;
    const QueryResult exact = cluster.engine().run(Algo::kEdsud, config);
    auto ids = testutil::idsOf(exact.skyline);
    std::sort(ids.begin(), ids.end());
    EXPECT_EQ(ids, testutil::idsOf(testutil::groundTruth(sites, config.q)));
    EXPECT_EQ(ids, (std::vector<TupleId>{0, 1, 2}));
  }

  // Paper-faithful dominance pruning drops s.
  {
    InProcCluster cluster(Topology::fromPartitions(sites));
    config.prune = PruneRule::kDominance;
    const QueryResult lossy = cluster.engine().run(Algo::kEdsud, config);
    auto ids = testutil::idsOf(lossy.skyline);
    std::sort(ids.begin(), ids.end());
    EXPECT_EQ(ids, (std::vector<TupleId>{0, 1}));
  }
}

TEST(EdsudTest, DominancePruneStillCorrectOnCertainData) {
  // With P ≡ 1 dominance pruning is exact (the classical distributed
  // skyline case): both rules agree.
  Dataset global(2);
  Rng rng(53);
  for (int i = 0; i < 500; ++i) {
    const std::array<double, 2> v = {rng.uniform(), rng.uniform()};
    global.add(v, 1.0);
  }
  InProcCluster cluster(Topology::uniform(global, 5, 54));
  QueryConfig config;
  config.prune = PruneRule::kDominance;
  QueryResult result = cluster.engine().run(Algo::kEdsud, config);
  sortByGlobalProbability(result.skyline);
  EXPECT_EQ(testutil::idsOf(result.skyline),
            testutil::idsOf(linearSkyline(global, {.q = config.q})));
}

TEST(EdsudTest, ProgressiveEmissionProperties) {
  // Progressiveness (paper Sec. 7.5): answers stream out long before the
  // query ends, and the cumulative-bandwidth curve is monotone.
  const Dataset global = generateSynthetic(
      SyntheticSpec{3000, 3, ValueDistribution::kAnticorrelated, 55});
  InProcCluster cluster(Topology::uniform(global, 10, 56));
  const QueryResult dsud = cluster.engine().run(Algo::kDsud, QueryConfig{});
  const QueryResult edsud = cluster.engine().run(Algo::kEdsud, QueryConfig{});
  ASSERT_EQ(dsud.skyline.size(), edsud.skyline.size());
  ASSERT_GT(edsud.progress.size(), 3u);
  for (std::size_t i = 1; i < edsud.progress.size(); ++i) {
    EXPECT_GE(edsud.progress[i].tuplesShipped,
              edsud.progress[i - 1].tuplesShipped);
  }
  // The first answer costs a small fraction of the whole query.  (The
  // *aggregate* bandwidth win over DSUD is asserted across seeds in
  // BeatsDsudBandwidthOnTypicalWorkloads; on an individual seed either
  // algorithm can come out ahead by a percent or two.)
  EXPECT_LT(edsud.progress.front().tuplesShipped,
            edsud.stats.tuplesShipped / 4);
}

TEST(EdsudTest, SingleSiteDegeneratesToLocalSkyline) {
  const Dataset global = generateSynthetic(
      SyntheticSpec{500, 2, ValueDistribution::kIndependent, 57});
  InProcCluster cluster(Topology::uniform(global, 1, 58));
  QueryResult result = cluster.engine().run(Algo::kEdsud, QueryConfig{});
  sortByGlobalProbability(result.skyline);
  EXPECT_EQ(testutil::idsOf(result.skyline),
            testutil::idsOf(linearSkyline(global, {.q = 0.3})));
  // One site: no broadcasts possible (m - 1 = 0 targets), only pulls.
  EXPECT_EQ(result.stats.tuplesShipped, result.stats.candidatesPulled);
}

TEST(EdsudTest, EmptySitesProduceEmptySkyline) {
  std::vector<Dataset> sites;
  sites.emplace_back(2);
  sites.emplace_back(2);
  InProcCluster cluster(Topology::fromPartitions(sites));
  const QueryResult result = cluster.engine().run(Algo::kEdsud, QueryConfig{});
  EXPECT_TRUE(result.skyline.empty());
  EXPECT_EQ(result.stats.tuplesShipped, 0u);
}

TEST(EdsudTest, ThresholdOneKeepsOnlyCertainUndominated) {
  Dataset global(2);
  const std::array<double, 2> a = {0.1, 0.1};
  const std::array<double, 2> b = {0.9, 0.9};
  global.add(a, 1.0);
  global.add(b, 1.0);  // dominated -> P_gsky = 0
  InProcCluster cluster(Topology::uniform(global, 2, 60));
  QueryConfig config;
  config.q = 1.0;
  const QueryResult result = cluster.engine().run(Algo::kEdsud, config);
  ASSERT_EQ(result.skyline.size(), 1u);
  EXPECT_EQ(result.skyline[0].tuple.id, 0u);
  EXPECT_DOUBLE_EQ(result.skyline[0].globalSkyProb, 1.0);
}

}  // namespace
}  // namespace dsud
