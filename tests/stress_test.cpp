// Paper-shaped scale smoke tests: tens of thousands of tuples across the
// paper's default 60 sites, validated against the indexed centralised
// reference (BBS over the unified database — itself validated against the
// O(N²) scan at small scale elsewhere).  Kept to a few seconds so it runs
// in every CI pass.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/stopwatch.hpp"
#include "core/cluster.hpp"
#include "core/updates.hpp"
#include "gen/nyse.hpp"
#include "gen/synthetic.hpp"
#include "skyline/bbs.hpp"
#include "test_util.hpp"

namespace dsud {
namespace {

std::vector<TupleId> indexedTruth(const Dataset& global, double q) {
  const PRTree tree = PRTree::bulkLoad(global);
  auto ids = testutil::idsOf(bbsSkyline(tree, {.q = q}));
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST(StressTest, FiftyThousandTuplesSixtySites) {
  const Dataset global = generateSynthetic(
      SyntheticSpec{50000, 3, ValueDistribution::kIndependent, 1200});
  InProcCluster cluster(Topology::uniform(global, 60, 1201));

  Stopwatch watch;
  QueryResult result = cluster.engine().run(Algo::kEdsud, QueryConfig{});
  const double seconds = watch.elapsedSeconds();

  sortByGlobalProbability(result.skyline);
  auto ids = testutil::idsOf(result.skyline);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, indexedTruth(global, 0.3));

  // Generous bound: the default-scale bench point runs in well under this.
  EXPECT_LT(seconds, 30.0);
  // Bandwidth sanity: far below the naive |D|.
  EXPECT_LT(result.stats.tuplesShipped, global.size() / 4);
}

TEST(StressTest, AnticorrelatedHighDimensional) {
  const Dataset global = generateSynthetic(
      SyntheticSpec{20000, 5, ValueDistribution::kAnticorrelated, 1202});
  InProcCluster cluster(Topology::uniform(global, 40, 1203));
  QueryResult result = cluster.engine().run(Algo::kEdsud, QueryConfig{});
  sortByGlobalProbability(result.skyline);
  auto ids = testutil::idsOf(result.skyline);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, indexedTruth(global, 0.3));
  EXPECT_GT(result.skyline.size(), 200u);  // d=5 anticorrelated is brutal
}

TEST(StressTest, NyseScaleTrace) {
  const Dataset trace = generateNyse(NyseSpec{100000, 1204});
  InProcCluster cluster(Topology::uniform(trace, 60, 1205));
  QueryResult result = cluster.engine().run(Algo::kEdsud, QueryConfig{});
  sortByGlobalProbability(result.skyline);
  auto ids = testutil::idsOf(result.skyline);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, indexedTruth(trace, 0.3));
  // Clustered market data: tiny answer, tiny bandwidth.
  EXPECT_LT(result.skyline.size(), 100u);
  EXPECT_LT(result.stats.tuplesShipped, 5000u);
}

TEST(StressTest, DeepUpdateStreamAtScale) {
  const Dataset global = generateSynthetic(
      SyntheticSpec{20000, 2, ValueDistribution::kIndependent, 1206});
  InProcCluster cluster(Topology::uniform(global, 20, 1207));
  QueryConfig config;
  SkylineMaintainer maintainer(cluster.coordinator(), config,
                               MaintenanceStrategy::kIncremental);
  maintainer.initialize();

  Rng rng(1208);
  TupleId next = 900000;
  for (int step = 0; step < 200; ++step) {
    UpdateEvent e;
    e.kind = UpdateEvent::Kind::kInsert;
    e.site = static_cast<SiteId>(rng.below(20));
    e.tuple = Tuple{next++, {rng.uniform(), rng.uniform()},
                    rng.existentialUniform()};
    maintainer.apply(e);
  }
  // Spot-check exactness via the ship-all path (fresh meter delta unused).
  QueryResult requery = cluster.engine().run(Algo::kEdsud, config);
  sortByGlobalProbability(requery.skyline);
  auto maintained = testutil::idsOf(maintainer.skyline());
  auto queried = testutil::idsOf(requery.skyline);
  std::sort(maintained.begin(), maintained.end());
  std::sort(queried.begin(), queried.end());
  EXPECT_EQ(maintained, queried);
}

}  // namespace
}  // namespace dsud
