// Failure injection: a site that dies mid-query must surface as a clean
// transport exception from the query call — never a hang, a crash, or a
// silently wrong answer.
#include <gtest/gtest.h>

#include <chrono>
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

TEST(FailureTest, DeathSurfacesThroughParallelBroadcast) {
  FailingCluster cluster = makeCluster(6, 2, 8);
  QueryOptions fanOut;
  fanOut.broadcastThreads = 3;
  EXPECT_THROW(cluster.engine->run(Algo::kEdsud, QueryConfig{}, fanOut),
               NetError);
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

}  // namespace
}  // namespace dsud
