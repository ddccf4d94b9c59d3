#include "core/continuous.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/cluster.hpp"
#include "gen/synthetic.hpp"
#include "test_util.hpp"

namespace dsud {
namespace {

constexpr double kQ = 0.3;

struct StreamSetup {
  std::vector<Dataset> siteData;
  std::vector<std::vector<Tuple>> windows;
};

/// Builds m sites pre-filled with `fill` tuples each (arrival order = id).
StreamSetup makeSetup(std::size_t m, std::size_t fill, std::uint64_t seed) {
  Rng rng(seed);
  StreamSetup setup;
  TupleId next = 0;
  for (std::size_t s = 0; s < m; ++s) {
    Dataset data(2);
    std::vector<Tuple> window;
    for (std::size_t i = 0; i < fill; ++i) {
      Tuple t{next++, {rng.uniform(), rng.uniform()}, rng.existentialUniform()};
      data.add(t.id, t.values, t.prob);
      window.push_back(std::move(t));
    }
    setup.siteData.push_back(std::move(data));
    setup.windows.push_back(std::move(window));
  }
  return setup;
}

std::vector<TupleId> truthIds(
    const std::vector<std::deque<Tuple>>& liveWindows) {
  Dataset global(2);
  for (const auto& window : liveWindows) {
    for (const Tuple& t : window) global.add(t.id, t.values, t.prob);
  }
  auto ids = testutil::idsOf(linearSkyline(global, {.q = kQ}));
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST(ContinuousTest, ValidatesConstruction) {
  StreamSetup setup = makeSetup(2, 4, 800);
  InProcCluster cluster(Topology::fromPartitions(setup.siteData));
  QueryConfig config;
  config.q = kQ;
  EXPECT_THROW(ContinuousDistributedSkyline(cluster.coordinator(), config, 0,
                                            setup.windows),
               std::invalid_argument);
  EXPECT_THROW(ContinuousDistributedSkyline(cluster.coordinator(), config, 2,
                                            setup.windows),  // 4 > capacity 2
               std::invalid_argument);
  std::vector<std::vector<Tuple>> wrongCount(1);
  EXPECT_THROW(ContinuousDistributedSkyline(cluster.coordinator(), config, 8,
                                            wrongCount),
               std::invalid_argument);
}

TEST(ContinuousTest, StaysExactThroughStream) {
  const std::size_t m = 3;
  const std::size_t window = 12;
  StreamSetup setup = makeSetup(m, window, 801);
  InProcCluster cluster(Topology::fromPartitions(setup.siteData));
  QueryConfig config;
  config.q = kQ;
  ContinuousDistributedSkyline stream(cluster.coordinator(), config, window,
                                      setup.windows);

  std::vector<std::deque<Tuple>> mirror;
  for (const auto& w : setup.windows) mirror.emplace_back(w.begin(), w.end());

  Rng rng(802);
  TupleId next = 100000;
  for (int step = 0; step < 60; ++step) {
    const SiteId site = static_cast<SiteId>(rng.below(m));
    const Tuple t{next++, {rng.uniform(), rng.uniform()},
                  rng.existentialUniform()};
    stream.append(site, t);
    if (mirror[site].size() == window) mirror[site].pop_front();
    mirror[site].push_back(t);

    if (step % 7 != 0) continue;
    auto ids = testutil::idsOf(stream.skyline());
    std::sort(ids.begin(), ids.end());
    EXPECT_EQ(ids, truthIds(mirror)) << "step " << step;
  }
}

TEST(ContinuousTest, WarmupPhaseInsertsOnly) {
  const std::size_t m = 2;
  StreamSetup setup = makeSetup(m, 0, 803);  // empty initial windows
  // Sites need at least one tuple for the PR-tree... empty is fine too.
  InProcCluster cluster(Topology::fromPartitions(setup.siteData));
  QueryConfig config;
  config.q = kQ;
  ContinuousDistributedSkyline stream(cluster.coordinator(), config, 3,
                                      setup.windows);
  EXPECT_TRUE(stream.skyline().empty());

  Rng rng(804);
  for (TupleId id = 0; id < 6; ++id) {
    const SiteId site = static_cast<SiteId>(id % m);
    stream.append(site, Tuple{id, {rng.uniform(), rng.uniform()}, 0.9});
    EXPECT_LE(stream.liveCount(site), 3u);
  }
  EXPECT_EQ(stream.liveCount(0), 3u);
  EXPECT_EQ(stream.liveCount(1), 3u);
  EXPECT_FALSE(stream.skyline().empty());
}

TEST(ContinuousTest, PerEventCostIsFarBelowRequery) {
  const std::size_t m = 4;
  const std::size_t window = 50;
  StreamSetup setup = makeSetup(m, window, 805);
  InProcCluster cluster(Topology::fromPartitions(setup.siteData));
  QueryConfig config;
  config.q = kQ;
  ContinuousDistributedSkyline stream(cluster.coordinator(), config, window,
                                      setup.windows);

  // Cost of one full re-query on the same cluster state.
  const QueryResult requery = cluster.engine().run(Algo::kEdsud, config);

  Rng rng(806);
  TupleId next = 200000;
  std::uint64_t totalTuples = 0;
  const int events = 40;
  for (int step = 0; step < events; ++step) {
    const SiteId site = static_cast<SiteId>(rng.below(m));
    totalTuples += stream
                       .append(site, Tuple{next++,
                                           {rng.uniform(), rng.uniform()},
                                           rng.existentialUniform()})
                       .tuplesShipped;
  }
  // Per-event average a small fraction of a full query.
  EXPECT_LT(totalTuples / events, requery.stats.tuplesShipped);
}

TEST(ContinuousTest, UnknownSiteRejected) {
  StreamSetup setup = makeSetup(2, 2, 807);
  InProcCluster cluster(Topology::fromPartitions(setup.siteData));
  QueryConfig config;
  config.q = kQ;
  ContinuousDistributedSkyline stream(cluster.coordinator(), config, 4,
                                      setup.windows);
  EXPECT_THROW(stream.append(9, Tuple{1, {0.5, 0.5}, 0.5}),
               std::out_of_range);
}

}  // namespace
}  // namespace dsud
