// Reproduces the paper's worked hotel-booking example (Sec. 5.3, Table 2):
// three sites (Qingdao, Shanghai, Xiamen), threshold q = 0.3, and the exact
// quaternions of Table 2a.  The paper gives each visible tuple a local
// skyline probability *below* its existential probability, which implies
// hidden low-probability dominators in each local database; this test
// constructs them explicitly so every number in the trace is reproduced:
//
//   SKY(D_1) = (6,6,0.7,0.65), (8,4,0.8,0.6), (3,8,0.8,0.5)
//   SKY(D_2) = (6.5,7,0.8,0.65), (4,9,0.6,0.6), (9,5,0.7,0.6)
//   SKY(D_3) = (6.4,7.5,0.9,0.8), (3.5,11,0.7,0.7), (10,4.5,0.7,0.7)
//
// and the e-DSUD run emits (6,6) -> (8,4) -> (3,8) and expunges the two
// leftover queue entries, exactly as in Tables 2b–2h.
#include <gtest/gtest.h>

#include "core/cluster.hpp"
#include "skyline/linear_skyline.hpp"
#include "test_util.hpp"

namespace dsud {
namespace {

constexpr double kQ = 0.3;

std::vector<Dataset> hotelSites() {
  std::vector<Dataset> sites;
  // --- D_1 (Qingdao) ------------------------------------------------------
  Dataset d1(2);
  d1.add(10, std::vector<double>{6.0, 6.0}, 0.7);
  d1.add(11, std::vector<double>{8.0, 4.0}, 0.8);
  d1.add(12, std::vector<double>{3.0, 8.0}, 0.8);
  // Hidden dominators shaping the local skyline probabilities:
  d1.add(100, std::vector<double>{5.9, 5.9}, 1.0 / 14);  // under (6,6): 0.65
  d1.add(101, std::vector<double>{7.9, 3.9}, 0.25);      // under (8,4): 0.6
  d1.add(102, std::vector<double>{2.9, 7.9}, 0.25);      // under (3,8) ...
  d1.add(103, std::vector<double>{2.8, 7.8}, 1.0 / 6);   // ... jointly: 0.5
  sites.push_back(std::move(d1));

  // --- D_2 (Shanghai) -----------------------------------------------------
  Dataset d2(2);
  d2.add(20, std::vector<double>{6.5, 7.0}, 0.8);
  d2.add(21, std::vector<double>{4.0, 9.0}, 0.6);
  d2.add(22, std::vector<double>{9.0, 5.0}, 0.7);
  d2.add(110, std::vector<double>{6.4, 6.9}, 0.1875);   // under (6.5,7): 0.65
  d2.add(111, std::vector<double>{8.9, 4.9}, 1.0 / 7);  // under (9,5): 0.6
  sites.push_back(std::move(d2));

  // --- D_3 (Xiamen) -------------------------------------------------------
  Dataset d3(2);
  d3.add(30, std::vector<double>{6.4, 7.5}, 0.9);
  d3.add(31, std::vector<double>{3.5, 11.0}, 0.7);
  d3.add(32, std::vector<double>{10.0, 4.5}, 0.7);
  d3.add(120, std::vector<double>{6.3, 7.4}, 1.0 / 9);  // under (6.4,7.5): 0.8
  sites.push_back(std::move(d3));
  return sites;
}

TEST(PaperExampleTest, LocalSkylinesMatchTable2a) {
  const auto sites = hotelSites();
  {
    const auto sky = linearSkyline(sites[0], {.q = kQ});
    ASSERT_EQ(sky.size(), 3u);
    EXPECT_EQ(sky[0].id, 10u);
    EXPECT_NEAR(sky[0].skyProb, 0.65, 1e-12);
    EXPECT_EQ(sky[1].id, 11u);
    EXPECT_NEAR(sky[1].skyProb, 0.6, 1e-12);
    EXPECT_EQ(sky[2].id, 12u);
    EXPECT_NEAR(sky[2].skyProb, 0.5, 1e-12);
  }
  {
    const auto sky = linearSkyline(sites[1], {.q = kQ});
    ASSERT_EQ(sky.size(), 3u);
    EXPECT_EQ(sky[0].id, 20u);
    EXPECT_NEAR(sky[0].skyProb, 0.65, 1e-12);
    EXPECT_EQ(sky[1].id, 21u);  // ties broken by id: (4,9) before (9,5)
    EXPECT_NEAR(sky[1].skyProb, 0.6, 1e-12);
    EXPECT_EQ(sky[2].id, 22u);
    EXPECT_NEAR(sky[2].skyProb, 0.6, 1e-12);
  }
  {
    const auto sky = linearSkyline(sites[2], {.q = kQ});
    ASSERT_EQ(sky.size(), 3u);
    EXPECT_EQ(sky[0].id, 30u);
    EXPECT_NEAR(sky[0].skyProb, 0.8, 1e-12);
    EXPECT_NEAR(sky[1].skyProb, 0.7, 1e-12);
    EXPECT_NEAR(sky[2].skyProb, 0.7, 1e-12);
  }
}

TEST(PaperExampleTest, EdsudEmitsTheTableTrace) {
  InProcCluster cluster(Topology::fromPartitions(hotelSites()));
  QueryConfig config;
  config.q = kQ;
  // The paper's Sec. 5.3 walkthrough parks sub-threshold queue entries
  // until termination; kPark reproduces its exact message counts.
  config.expunge = ExpungePolicy::kPark;
  const QueryResult result = cluster.engine().run(Algo::kEdsud, config);

  // Emission order (6,6) -> (8,4) -> (3,8), exactly the paper's SKY(H).
  ASSERT_EQ(result.skyline.size(), 3u);
  EXPECT_EQ(result.skyline[0].tuple.id, 10u);
  EXPECT_NEAR(result.skyline[0].globalSkyProb, 0.65, 1e-12);
  EXPECT_EQ(result.skyline[1].tuple.id, 11u);
  EXPECT_NEAR(result.skyline[1].globalSkyProb, 0.6, 1e-12);
  EXPECT_EQ(result.skyline[2].tuple.id, 12u);
  EXPECT_NEAR(result.skyline[2].globalSkyProb, 0.5, 1e-12);

  // The trace costs: 5 To-Server tuples (three initial heads plus two
  // follow-ups from S_1), 3 feedback broadcasts of m-1 = 2 tuples each, and
  // the two sub-threshold queue leftovers of Table 2h expunged for free.
  EXPECT_EQ(result.stats.candidatesPulled, 5u);
  EXPECT_EQ(result.stats.broadcasts, 3u);
  EXPECT_EQ(result.stats.expunged, 2u);
  EXPECT_EQ(result.stats.tuplesShipped, 5u + 3u * 2u);
  // Local pruning drops (9,5), (10,4.5) after (8,4) and (4,9), (3.5,11)
  // after (3,8) — Tables 2c/2e/2g.
  EXPECT_EQ(result.stats.prunedAtSites, 4u);
}

TEST(PaperExampleTest, ObservationTwoBoundsMatchSection53) {
  // The approximate values computed at the first server-calculation phase:
  // P*_gsky((6.4,7.5)) = 0.8 · (0.65/0.7) · 0.3 ≈ 0.22 and
  // P*_gsky((6.5,7))  = 0.65 · (0.65/0.7) · 0.3 ≈ 0.18  (paper rounds).
  const double witnessFactor = 0.65 / 0.7 * (1.0 - 0.7);
  EXPECT_NEAR(0.8 * witnessFactor, 0.22, 0.005);
  EXPECT_NEAR(0.65 * witnessFactor, 0.18, 0.005);
  // Both fall below q = 0.3: the two tuples are expunged without broadcast,
  // matching Table 2h's termination condition.
  EXPECT_LT(0.8 * witnessFactor, kQ);
  EXPECT_LT(0.65 * witnessFactor, kQ);
}

TEST(PaperExampleTest, EagerPolicySameAnswersDifferentSchedule) {
  // The default eager policy advances stalled site streams immediately; on
  // this tiny example that broadcasts the two Xiamen decoys the paper's
  // schedule never ships, but the answers (and their probabilities) are
  // identical.
  InProcCluster cluster(Topology::fromPartitions(hotelSites()));
  QueryConfig config;
  config.q = kQ;
  config.expunge = ExpungePolicy::kEager;
  const QueryResult result = cluster.engine().run(Algo::kEdsud, config);
  ASSERT_EQ(result.skyline.size(), 3u);
  EXPECT_EQ(result.skyline[0].tuple.id, 10u);
  EXPECT_EQ(result.skyline[1].tuple.id, 11u);
  EXPECT_EQ(result.skyline[2].tuple.id, 12u);
  EXPECT_EQ(result.stats.expunged, 3u);  // (6.5,7), (6.4,7.5), (4,9)
}

TEST(PaperExampleTest, DsudFindsSameAnswersWithMoreBandwidth) {
  const auto sites = hotelSites();
  InProcCluster dsudCluster(Topology::fromPartitions(sites));
  InProcCluster edsudCluster(Topology::fromPartitions(sites));
  QueryConfig config;
  config.q = kQ;

  QueryResult dsud = dsudCluster.engine().run(Algo::kDsud, config);
  QueryResult edsud = edsudCluster.engine().run(Algo::kEdsud, config);

  sortByGlobalProbability(dsud.skyline);
  sortByGlobalProbability(edsud.skyline);
  EXPECT_EQ(testutil::idsOf(dsud.skyline), testutil::idsOf(edsud.skyline));

  // DSUD broadcasts every candidate it pulls; e-DSUD expunges two of them,
  // saving 2 · (m−1) = 4 feedback tuples.
  EXPECT_GT(dsud.stats.tuplesShipped, edsud.stats.tuplesShipped);
  EXPECT_EQ(dsud.stats.expunged, 0u);
}

TEST(PaperExampleTest, MatchesCentralisedGroundTruth) {
  const auto sites = hotelSites();
  const auto expected = testutil::groundTruth(sites, kQ);
  InProcCluster cluster(Topology::fromPartitions(sites));
  QueryConfig config;
  config.q = kQ;
  QueryResult result = cluster.engine().run(Algo::kEdsud, config);
  sortByGlobalProbability(result.skyline);
  EXPECT_EQ(testutil::idsOf(result.skyline), testutil::idsOf(expected));
}

}  // namespace
}  // namespace dsud
