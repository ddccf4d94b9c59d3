// Failure injection: a site that dies mid-query must surface as a clean
// transport exception from the query call — never a hang, a crash, or a
// silently wrong answer.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <future>
#include <iostream>
#include <memory>
#include <thread>

#include "core/cluster.hpp"
#include "core/query_engine.hpp"
#include "core/local_site.hpp"
#include "core/site_handle.hpp"
#include "gen/partition.hpp"
#include "gen/synthetic.hpp"
#include "net/inproc_transport.hpp"
#include "net/tcp_transport.hpp"
#include "net/wire.hpp"
#include "test_util.hpp"

namespace dsud {
namespace {

/// Channel that works for `healthyCalls` requests, then fails forever.
class FlakyChannel final : public ClientChannel {
 public:
  FlakyChannel(FrameHandler handler, std::size_t healthyCalls)
      : inner_(std::move(handler)), remaining_(healthyCalls) {}

  Frame call(const Frame& request) override {
    if (remaining_ == 0) throw NetError("injected link failure");
    --remaining_;
    return inner_.call(request);
  }

 private:
  InProcChannel inner_;
  std::size_t remaining_;
};

struct FailingCluster {
  std::vector<std::unique_ptr<LocalSite>> sites;
  std::vector<std::unique_ptr<SiteServer>> servers;
  std::unique_ptr<BandwidthMeter> meter = std::make_unique<BandwidthMeter>();
  std::unique_ptr<Coordinator> coordinator;
  std::unique_ptr<QueryEngine> engine;
};

/// Builds a cluster where site `victim` fails after `healthyCalls` RPCs.
FailingCluster makeCluster(std::size_t m, SiteId victim,
                           std::size_t healthyCalls) {
  const Dataset global = generateSynthetic(
      SyntheticSpec{400, 2, ValueDistribution::kIndependent, 970});
  Rng rng(971);
  const auto siteData = partitionUniform(global, m, rng);

  FailingCluster cluster;
  std::vector<std::unique_ptr<SiteHandle>> handles;
  for (std::size_t i = 0; i < m; ++i) {
    cluster.sites.push_back(
        std::make_unique<LocalSite>(static_cast<SiteId>(i), siteData[i]));
    cluster.servers.push_back(
        std::make_unique<SiteServer>(*cluster.sites.back()));
    std::unique_ptr<ClientChannel> channel;
    if (i == victim) {
      channel = std::make_unique<FlakyChannel>(
          cluster.servers.back()->handler(), healthyCalls);
    } else {
      channel =
          std::make_unique<InProcChannel>(cluster.servers.back()->handler());
    }
    handles.push_back(std::make_unique<RpcSiteHandle>(
        static_cast<SiteId>(i), std::move(channel), cluster.meter.get()));
  }
  cluster.coordinator =
      std::make_unique<Coordinator>(std::move(handles), cluster.meter.get(), 2);
  cluster.engine = std::make_unique<QueryEngine>(*cluster.coordinator);
  return cluster;
}

TEST(FailureTest, DeathDuringPrepareSurfaces) {
  FailingCluster cluster = makeCluster(4, 2, 0);
  EXPECT_THROW(cluster.engine->run(Algo::kEdsud, QueryConfig{}), NetError);
}

TEST(FailureTest, DeathMidQuerySurfacesFromEveryAlgorithm) {
  // Calibrate: how many RPCs does the victim serve in a healthy run?  Then
  // give the flaky link only part of that budget so it dies mid-protocol.
  FailingCluster healthy = makeCluster(4, 1, std::size_t(-1));
  healthy.engine->run(Algo::kEdsud, QueryConfig{});
  const std::uint64_t victimCalls = healthy.meter->link(1).calls;
  ASSERT_GT(victimCalls, 4u);

  // The last frame on every link is the best-effort kFinishQuery teardown
  // (see below), so the largest mid-protocol budget is victimCalls - 2.
  for (const std::size_t healthyCalls :
       {std::size_t{3}, static_cast<std::size_t>(victimCalls / 2),
        static_cast<std::size_t>(victimCalls - 2)}) {
    FailingCluster edsud = makeCluster(4, 1, healthyCalls);
    EXPECT_THROW(edsud.engine->run(Algo::kEdsud, QueryConfig{}), NetError)
        << "budget " << healthyCalls;

    FailingCluster dsud = makeCluster(4, 1, healthyCalls);
    EXPECT_THROW(dsud.engine->run(Algo::kDsud, QueryConfig{}), NetError)
        << "budget " << healthyCalls;
  }
  FailingCluster naive = makeCluster(4, 3, 0);
  EXPECT_THROW(naive.engine->run(Algo::kNaive, QueryConfig{}), NetError);

  // Losing only the final kFinishQuery teardown frame must NOT fail the
  // query: session release is best-effort and carries no answer data.
  FailingCluster teardown = makeCluster(4, 1, victimCalls - 1);
  const QueryResult result = teardown.engine->run(Algo::kEdsud, QueryConfig{});
  EXPECT_FALSE(result.skyline.empty());
}

TEST(FailureTest, HealthyRunAfterRebuildingIsUnaffected) {
  // The failure is per-cluster state; a fresh cluster over the same data
  // answers normally (no global/static state was poisoned).
  FailingCluster broken = makeCluster(4, 1, 5);
  EXPECT_THROW(broken.engine->run(Algo::kEdsud, QueryConfig{}), NetError);

  FailingCluster healthy = makeCluster(4, 1, std::size_t(-1));
  const QueryResult result = healthy.engine->run(Algo::kEdsud, QueryConfig{});
  EXPECT_FALSE(result.skyline.empty());
}

TEST(FailureTest, TcpPeerDisconnectSurfacesAsNetError) {
  // A real socket torn down mid-conversation.
  TcpSiteServer server([](const Frame& f) { return f; });
  std::thread serverThread([&server] { server.serve(); });

  auto channel = std::make_unique<TcpClientChannel>(server.port());
  const Frame ping(4, std::byte{1});
  EXPECT_EQ(channel->call(ping), ping);

  // Disconnect: the server loop exits when the client closes...
  channel->close();
  serverThread.join();
  // ...and further calls on the closed channel fail loudly.
  EXPECT_THROW(channel->call(ping), NetError);
}

TEST(FailureTest, HungTcpPeerFailsAtDeadlineInsteadOfHanging) {
  // A peer that accepts the connection and reads the request but does not
  // reply within the caller's deadline.  Without SO_RCVTIMEO this call
  // blocks for the peer's full think time; with a deadline it must fail
  // fast with NetTimeout.
  TcpSiteServer server([](const Frame& f) {
    std::this_thread::sleep_for(std::chrono::milliseconds{500});
    return f;
  });
  std::thread serverThread([&server] {
    try {
      server.serve();
    } catch (const NetError&) {
      // Writing the late reply to the poisoned connection may fail; either
      // way the loop ends on the client's disconnect.
    }
  });

  TcpClientChannel channel(server.port());
  channel.setDeadline(std::chrono::milliseconds{50});
  const Frame ping(4, std::byte{1});
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(channel.call(ping), NetTimeout);
  const auto waited = std::chrono::steady_clock::now() - start;
  EXPECT_LT(waited, std::chrono::milliseconds{450})
      << "the deadline must bound the wait, not the peer's think time";

  // The timed-out stream is desynchronised (the late reply could be misread
  // as a later call's response), so the channel is poisoned: further calls
  // fail loudly instead of silently mixing frames.
  EXPECT_THROW(channel.call(ping), NetError);
  serverThread.join();
}

// --- Failures inside a wave over TCP ----------------------------------------

constexpr std::size_t kWaveSites = 6;
constexpr SiteId kVictim = 2;

/// Six sites of anticorrelated data, where the victim's tuples all have
/// existential probability 0.05: below the default q = 0.3, so the victim
/// never ships a candidate, yet it receives every broadcast's evaluate.  A
/// victim that dies mid-query therefore contributed nothing, and the
/// degraded answer must equal the skyline of the survivors' union.
std::vector<Dataset> waveSiteData() {
  const Dataset global = generateSynthetic(
      SyntheticSpec{900, 2, ValueDistribution::kAnticorrelated, 972});
  Rng rng(973);
  auto siteData = partitionUniform(global, kWaveSites, rng);
  Dataset faint(siteData[kVictim].dims());
  for (std::size_t row = 0; row < siteData[kVictim].size(); ++row) {
    const TupleRef t = siteData[kVictim].at(row);
    faint.add(t.id, t.values, 0.05);
  }
  siteData[kVictim] = std::move(faint);
  return siteData;
}

/// The victim's server answers its first `frames` requests, then stops:
/// its handler throws, the serve loop ends, and the connection closes.
TcpCluster::WrapHandler stopVictimAfter(std::size_t frames) {
  return [frames](SiteId site, FrameHandler inner) -> FrameHandler {
    if (site != kVictim) return inner;
    auto served = std::make_shared<std::size_t>(0);
    return [frames, served, inner](const Frame& request) {
      if ((*served)++ == frames) throw NetError("site server stopped");
      return inner(request);
    };
  };
}

/// Runs `query` on another thread and aborts the test binary if it does not
/// finish in time: a request left in flight would hold its site's only
/// channel and block every later query on it.
QueryResult runWithin(const std::function<QueryResult()>& query) {
  auto result = std::async(std::launch::async, query);
  if (result.wait_for(std::chrono::seconds{30}) !=
      std::future_status::ready) {
    std::cerr << "query over TCP hung\n";
    std::abort();
  }
  return result.get();
}

TEST(FailureTest, TcpSiteStoppingInsideBroadcastWaveDegradesToSurvivors) {
  const auto siteData = waveSiteData();
  std::vector<Dataset> survivorData;
  for (std::size_t i = 0; i < siteData.size(); ++i) {
    if (i != kVictim) survivorData.push_back(siteData[i]);
  }
  InProcCluster reference(Topology::fromPartitions(survivorData));
  QueryOptions degrade;
  degrade.fault.onSiteFailure = OnSiteFailure::kDegrade;

  for (const Algo algo : {Algo::kDsud, Algo::kEdsud}) {
    SCOPED_TRACE(static_cast<int>(algo));
    // Prepare and the first pull succeed; the first evaluate finds the
    // server gone.
    TcpCluster cluster(Topology::fromPartitions(siteData),
                       stopVictimAfter(2));
    const QueryResult degraded = runWithin(
        [&] { return cluster.engine().run(algo, QueryConfig{}, degrade); });
    const QueryResult expected = reference.engine().run(algo, QueryConfig{});

    EXPECT_EQ(degraded.excludedSites, std::vector<SiteId>{kVictim});
    ASSERT_FALSE(expected.skyline.empty());
    ASSERT_EQ(degraded.skyline.size(), expected.skyline.size());
    for (std::size_t i = 0; i < expected.skyline.size(); ++i) {
      EXPECT_EQ(degraded.skyline[i].tuple.id, expected.skyline[i].tuple.id);
      EXPECT_EQ(degraded.skyline[i].globalSkyProb,
                expected.skyline[i].globalSkyProb);
    }
    // And that is the centralised skyline of the survivors' union.
    std::vector<GlobalSkylineEntry> sorted = degraded.skyline;
    sortByGlobalProbability(sorted);
    EXPECT_EQ(testutil::idsOf(sorted),
              testutil::idsOf(testutil::groundTruth(survivorData, 0.3)));
  }
}

TEST(FailureTest, TcpSiteStoppingMidQueryFailsAndReleasesEveryChannel) {
  const auto siteData = waveSiteData();
  TcpCluster cluster(Topology::fromPartitions(siteData), stopVictimAfter(6));
  try {
    runWithin(
        [&] { return cluster.engine().run(Algo::kEdsud, QueryConfig{}); });
    ADD_FAILURE() << "a stopped site must fail a kFail query";
  } catch (const SiteFailure& e) {
    EXPECT_EQ(e.site(), kVictim);
  }

  // Had the failed query left a request in flight anywhere, its channel
  // would still be leased and this query would block on it.
  QueryOptions degrade;
  degrade.fault.onSiteFailure = OnSiteFailure::kDegrade;
  const QueryResult after = runWithin([&] {
    return cluster.engine().run(Algo::kEdsud, QueryConfig{}, degrade);
  });
  EXPECT_EQ(after.excludedSites, std::vector<SiteId>{kVictim});
  EXPECT_FALSE(after.skyline.empty());
}

TEST(FailureTest, HungTcpSiteFailsItsEvaluateAtTheDeadlineInsideAWave) {
  // The victim answers everything but evaluates, which it sits on far
  // beyond the query's deadline.
  const auto siteData = waveSiteData();
  TcpCluster cluster(
      Topology::fromPartitions(siteData),
      [](SiteId site, FrameHandler inner) -> FrameHandler {
        if (site != kVictim) return inner;
        return [inner](const Frame& request) {
          if (static_cast<MsgType>(request.at(0)) == MsgType::kEvaluate) {
            std::this_thread::sleep_for(std::chrono::milliseconds{1000});
          }
          return inner(request);
        };
      });
  QueryOptions options;
  options.fault.deadline = std::chrono::milliseconds{100};

  const auto start = std::chrono::steady_clock::now();
  try {
    runWithin([&] {
      return cluster.engine().run(Algo::kEdsud, QueryConfig{}, options);
    });
    ADD_FAILURE() << "a hung site must fail a kFail query at the deadline";
  } catch (const SiteFailure& e) {
    EXPECT_EQ(e.site(), kVictim);
  }
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds{800})
      << "the deadline must bound the wave, not the site's think time";
}

}  // namespace
}  // namespace dsud
