// Transport integration: the identical DSUD/e-DSUD protocol over real TCP
// sockets (one server thread per site) must produce byte-for-byte the same
// answers and tuple counts as the in-process transport — over TCP a query's
// independent requests overlap in waves, in process they run one by one.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <future>
#include <iostream>
#include <stdexcept>
#include <vector>

#include "core/cluster.hpp"
#include "gen/partition.hpp"
#include "gen/synthetic.hpp"
#include "tcp_test_cluster.hpp"
#include "test_util.hpp"

namespace dsud {
namespace {

using testutil::TcpCluster;

TEST(TcpClusterTest, EdsudOverTcpMatchesInProcess) {
  const Dataset global = generateSynthetic(
      SyntheticSpec{600, 2, ValueDistribution::kAnticorrelated, 110});
  Rng rng(111);
  const auto siteData = partitionUniform(global, 4, rng);

  QueryConfig config;
  config.q = 0.3;

  QueryResult inproc;
  {
    InProcCluster cluster(Topology::fromPartitions(siteData));
    inproc = cluster.engine().run(Algo::kEdsud, config);
  }
  QueryResult tcp;
  std::uint64_t tcpWireBytes = 0;
  {
    TcpCluster cluster(siteData);
    tcp = cluster.engine().run(Algo::kEdsud, config);
    for (const auto& [name, value] : cluster.metrics().snapshot().counters) {
      if (name.rfind("dsud_transport_bytes_total", 0) == 0) {
        tcpWireBytes += value;
      }
    }
  }

  EXPECT_EQ(testutil::idsOf(tcp.skyline), testutil::idsOf(inproc.skyline));
  EXPECT_EQ(tcp.stats.tuplesShipped, inproc.stats.tuplesShipped);
  EXPECT_EQ(tcp.stats.roundTrips, inproc.stats.roundTrips);
  EXPECT_EQ(tcp.stats.broadcasts, inproc.stats.broadcasts);
  // The TCP transport now accounts its length-prefix framing: one header per
  // frame in each direction on top of the payload bytes both transports ship.
  EXPECT_EQ(tcp.stats.bytesShipped,
            inproc.stats.bytesShipped +
                2 * kFrameHeaderBytes * tcp.stats.roundTrips);
  // And the channel-level wire counters agree with the meter exactly.
  EXPECT_EQ(tcpWireBytes, tcp.stats.bytesShipped);
}

TEST(TcpClusterTest, DsudAndNaiveOverTcp) {
  const Dataset global = generateSynthetic(
      SyntheticSpec{300, 2, ValueDistribution::kIndependent, 112});
  Rng rng(113);
  const auto siteData = partitionUniform(global, 3, rng);

  TcpCluster cluster(siteData);
  QueryConfig config;

  QueryResult naive = cluster.engine().run(Algo::kNaive, config);
  EXPECT_EQ(naive.stats.tuplesShipped, global.size());

  QueryResult dsud = cluster.engine().run(Algo::kDsud, config);
  sortByGlobalProbability(dsud.skyline);
  EXPECT_EQ(testutil::idsOf(dsud.skyline),
            testutil::idsOf(linearSkyline(global, {.q = config.q})));
}

/// Everything the paper counts, compared exactly: the answers with their
/// probabilities, the traffic, and the tuples shipped at every answer.
void expectSameRun(const QueryResult& tcp, const QueryResult& inproc) {
  ASSERT_EQ(tcp.skyline.size(), inproc.skyline.size());
  for (std::size_t i = 0; i < tcp.skyline.size(); ++i) {
    EXPECT_EQ(tcp.skyline[i].tuple.id, inproc.skyline[i].tuple.id);
    EXPECT_EQ(tcp.skyline[i].globalSkyProb, inproc.skyline[i].globalSkyProb);
  }
  EXPECT_EQ(tcp.stats.tuplesShipped, inproc.stats.tuplesShipped);
  EXPECT_EQ(tcp.stats.roundTrips, inproc.stats.roundTrips);
  EXPECT_EQ(tcp.stats.broadcasts, inproc.stats.broadcasts);
  EXPECT_EQ(tcp.stats.candidatesPulled, inproc.stats.candidatesPulled);
  ASSERT_EQ(tcp.progress.size(), inproc.progress.size());
  for (std::size_t i = 0; i < tcp.progress.size(); ++i) {
    EXPECT_EQ(tcp.progress[i].tuplesShipped, inproc.progress[i].tuplesShipped)
        << "answer " << i;
  }
}

std::vector<Dataset> sixteenSites() {
  const Dataset global = generateSynthetic(
      SyntheticSpec{3000, 2, ValueDistribution::kAnticorrelated, 114});
  Rng rng(115);
  return partitionUniform(global, 16, rng);
}

TEST(TcpClusterTest, EveryAlgorithmOverTcpMatchesInProcessAtSixteenSites) {
  const auto siteData = sixteenSites();
  InProcCluster inproc(Topology::fromPartitions(siteData));
  TcpCluster tcp(siteData);

  QueryConfig eager;
  QueryConfig park;
  park.expunge = ExpungePolicy::kPark;
  const std::pair<Algo, QueryConfig> runs[] = {
      {Algo::kDsud, eager}, {Algo::kEdsud, eager}, {Algo::kEdsud, park}};
  for (const auto& [algo, config] : runs) {
    SCOPED_TRACE(static_cast<int>(algo) * 10 +
                 static_cast<int>(config.expunge));
    const QueryResult expected = inproc.engine().run(algo, config);
    ASSERT_FALSE(expected.skyline.empty());
    expectSameRun(tcp.engine().run(algo, config), expected);
  }

  TopKConfig topk;
  topk.k = 8;
  SCOPED_TRACE("topk");
  expectSameRun(tcp.engine().run(topk), inproc.engine().run(topk));
}

TEST(TcpClusterTest, ThrowingProgressCallbackStillReleasesEverySite) {
  // The callback throws from emit, which runs while the broadcast's refill
  // pull to the answer's origin is still in flight.  Teardown must read
  // that reply before it sends the origin its finish frame.
  const auto siteData = sixteenSites();
  TcpCluster cluster(siteData);
  QueryOptions throwing;
  throwing.progress = [](const GlobalSkylineEntry&, const ProgressPoint&) {
    throw std::runtime_error("client went away");
  };
  EXPECT_THROW(cluster.engine().run(Algo::kEdsud, QueryConfig{}, throwing),
               std::runtime_error);
  for (std::size_t i = 0; i < siteData.size(); ++i) {
    EXPECT_EQ(cluster.site(i).sessionCount(), 0u) << "site " << i;
  }
  InProcCluster inproc(Topology::fromPartitions(siteData));
  expectSameRun(cluster.engine().run(Algo::kEdsud, QueryConfig{}),
                inproc.engine().run(Algo::kEdsud, QueryConfig{}));
}

TEST(TcpClusterTest, ConcurrentQueriesOnSingleConnectionSitesFinish) {
  // Every site has one connection (a capacity-1 pool), and each query holds
  // a lease per site while its wave is in flight.  Waves lease in view
  // order, so concurrent queries queue up instead of deadlocking.
  const auto siteData = sixteenSites();
  TcpCluster cluster(siteData);
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 5;
  const auto configFor = [](std::size_t i) {
    QueryConfig config;
    config.q = 0.2 + 0.02 * static_cast<double>(i);
    return config;
  };
  std::vector<QueryResult> solo;
  for (std::size_t i = 0; i < kThreads * kPerThread; ++i) {
    solo.push_back(cluster.engine().run(Algo::kEdsud, configFor(i)));
  }

  std::vector<std::future<std::vector<QueryResult>>> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.push_back(std::async(std::launch::async, [&, t] {
      std::vector<QueryResult> results;
      for (std::size_t j = 0; j < kPerThread; ++j) {
        results.push_back(cluster.engine().run(
            Algo::kEdsud, configFor(t * kPerThread + j)));
      }
      return results;
    }));
  }
  for (std::size_t t = 0; t < kThreads; ++t) {
    if (workers[t].wait_for(std::chrono::seconds{60}) !=
        std::future_status::ready) {
      // The workers are blocked for good; unwinding would join them.
      std::cerr << "concurrent TCP queries deadlocked\n";
      std::abort();
    }
    const std::vector<QueryResult> results = workers[t].get();
    for (std::size_t j = 0; j < kPerThread; ++j) {
      const QueryResult& alone = solo[t * kPerThread + j];
      SCOPED_TRACE(t * kPerThread + j);
      EXPECT_EQ(testutil::idsOf(results[j].skyline),
                testutil::idsOf(alone.skyline));
      EXPECT_EQ(results[j].stats.tuplesShipped, alone.stats.tuplesShipped);
      EXPECT_EQ(results[j].stats.roundTrips, alone.stats.roundTrips);
    }
  }
}

}  // namespace
}  // namespace dsud
