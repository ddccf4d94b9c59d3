// Cross-feature combinations not covered by the per-module suites:
// subspace maintenance, policy/rule matrices on certain data, sessions
// without prepare, parallel top-k, and naive progressiveness.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/cluster.hpp"
#include "core/updates.hpp"
#include "gen/partition.hpp"
#include "gen/synthetic.hpp"
#include "test_util.hpp"

namespace dsud {
namespace {

TEST(MiscTest, SubspaceMaintenanceStaysExact) {
  // SKY(H) maintained on a 2-of-3-dimension subspace through updates.
  const Dataset global = generateSynthetic(
      SyntheticSpec{250, 3, ValueDistribution::kIndependent, 1100});
  Rng rng(1101);
  auto siteData = partitionUniform(global, 3, rng);

  InProcCluster cluster(Topology::fromPartitions(siteData));
  QueryConfig config;
  config.mask = 0b011;
  SkylineMaintainer maintainer(cluster.coordinator(), config,
                               MaintenanceStrategy::kIncremental);
  maintainer.initialize();

  Rng updateRng(1102);
  TupleId next = 700000;
  for (int step = 0; step < 25; ++step) {
    UpdateEvent e;
    if (updateRng.uniform() < 0.5 || siteData[0].empty()) {
      e.kind = UpdateEvent::Kind::kInsert;
      e.site = static_cast<SiteId>(updateRng.below(3));
      e.tuple = Tuple{next++,
                      {updateRng.uniform(), updateRng.uniform(),
                       updateRng.uniform()},
                      updateRng.existentialUniform()};
      siteData[e.site].add(e.tuple.id, e.tuple.values, e.tuple.prob);
    } else {
      const SiteId site = static_cast<SiteId>(updateRng.below(3));
      if (siteData[site].empty()) continue;
      const std::size_t row = updateRng.below(siteData[site].size());
      const TupleRef t = siteData[site].at(row);
      e.kind = UpdateEvent::Kind::kDelete;
      e.site = site;
      e.tuple = Tuple{t.id,
                      std::vector<double>(t.values.begin(), t.values.end()),
                      t.prob};
      siteData[site].eraseRow(row);
    }
    maintainer.apply(e);
  }

  auto got = testutil::idsOf(maintainer.skyline());
  std::sort(got.begin(), got.end());
  auto want = testutil::idsOf(testutil::groundTruth(siteData, 0.3, 0b011));
  std::sort(want.begin(), want.end());
  EXPECT_EQ(got, want);
}

TEST(MiscTest, PolicyRuleMatrixExactOnCertainData) {
  // With P ≡ 1 every combination of prune rule, bound mode, and expunge
  // policy is exact (the classical distributed skyline case).
  Dataset global(2);
  Rng rng(1103);
  for (int i = 0; i < 400; ++i) {
    global.add(std::vector<double>{rng.uniform(), rng.uniform()}, 1.0);
  }
  InProcCluster cluster(Topology::uniform(global, 5, 1104));
  const auto expected = testutil::idsOf(linearSkyline(global, {.q = 0.3}));

  for (const PruneRule prune :
       {PruneRule::kThresholdBound, PruneRule::kDominance}) {
    for (const FeedbackBound bound :
         {FeedbackBound::kNone, FeedbackBound::kQueuedWitnesses,
          FeedbackBound::kQueuedAndConfirmed}) {
      for (const ExpungePolicy expunge :
           {ExpungePolicy::kEager, ExpungePolicy::kPark}) {
        QueryConfig config;
        config.prune = prune;
        config.bound = bound;
        config.expunge = expunge;
        QueryResult result = cluster.engine().run(Algo::kEdsud, config);
        sortByGlobalProbability(result.skyline);
        EXPECT_EQ(testutil::idsOf(result.skyline), expected)
            << "prune=" << static_cast<int>(prune)
            << " bound=" << static_cast<int>(bound)
            << " expunge=" << static_cast<int>(expunge);
      }
    }
  }
}

TEST(MiscTest, SessionCallsWithoutPrepareAreSafe) {
  const Dataset db = testutil::makeDataset(2, {{1.0, 2.0, 0.5}});
  LocalSite site(0, db);
  // No prepare yet: no pending candidates, evaluation uses full mask.
  EXPECT_FALSE(site.nextCandidate(NextCandidateRequest{}).candidate.has_value());
  EvaluateRequest eval;
  eval.tuple = Tuple{9, {2.0, 3.0}, 0.5};
  EXPECT_NEAR(site.evaluate(eval).survival, 0.5, 1e-12);
}

TEST(MiscTest, NaiveIsProgressiveToo) {
  const Dataset global = generateSynthetic(
      SyntheticSpec{2000, 2, ValueDistribution::kAnticorrelated, 1107});
  InProcCluster cluster(Topology::uniform(global, 4, 1108));
  std::size_t callbacks = 0;
  QueryOptions options;
  options.progress = [&](const GlobalSkylineEntry&, const ProgressPoint& point) {
    ++callbacks;
    EXPECT_EQ(point.reported, callbacks);
  };
  const QueryResult result =
      cluster.engine().run(Algo::kNaive, QueryConfig{}, options);
  EXPECT_EQ(callbacks, result.skyline.size());
  EXPECT_GT(callbacks, 0u);
  // The naive baseline ships everything up front, so every progress point
  // reports the same (full) bandwidth — the opposite of progressive cost.
  EXPECT_EQ(result.progress.front().tuplesShipped,
            result.progress.back().tuplesShipped);
}

TEST(MiscTest, MeterLinksAttributeTrafficToTheRightSites) {
  const Dataset global = generateSynthetic(
      SyntheticSpec{500, 2, ValueDistribution::kIndependent, 1109});
  InProcCluster cluster(Topology::uniform(global, 3, 1110));
  cluster.engine().run(Algo::kEdsud, QueryConfig{});
  std::uint64_t total = 0;
  for (SiteId s = 0; s < 3; ++s) {
    const LinkUsage link = cluster.meter().link(s);
    EXPECT_GT(link.calls, 0u) << "site " << s;
    total += link.tuplesToSite + link.tuplesFromSite;
  }
  EXPECT_EQ(total, cluster.meter().totals().tuples);
}

}  // namespace
}  // namespace dsud
