// Transport integration: the identical DSUD/e-DSUD protocol over real TCP
// sockets (one server thread per site) must produce byte-for-byte the same
// answers and tuple counts as the in-process transport.
#include <gtest/gtest.h>

#include <memory>
#include <thread>

#include "core/cluster.hpp"
#include "core/local_site.hpp"
#include "core/query_engine.hpp"
#include "core/site_handle.hpp"
#include "gen/partition.hpp"
#include "gen/synthetic.hpp"
#include "net/tcp_transport.hpp"
#include "net/wire.hpp"
#include "obs/metrics.hpp"
#include "test_util.hpp"

namespace dsud {
namespace {

/// A full cluster whose sites are served over TCP loopback.
class TcpCluster {
 public:
  explicit TcpCluster(const std::vector<Dataset>& siteData) {
    std::vector<std::unique_ptr<SiteHandle>> handles;
    for (std::size_t i = 0; i < siteData.size(); ++i) {
      const auto id = static_cast<SiteId>(i);
      sites_.push_back(std::make_unique<LocalSite>(id, siteData[i]));
      servers_.push_back(std::make_unique<SiteServer>(*sites_.back()));
      tcpServers_.push_back(std::make_unique<TcpSiteServer>(
          servers_.back()->handler()));
      threads_.emplace_back(
          [server = tcpServers_.back().get()] { server->serve(); });
      auto channel =
          std::make_unique<TcpClientChannel>(tcpServers_.back()->port());
      channel->bindAccounting(id, &meter_, &metrics_);
      handles.push_back(
          std::make_unique<RpcSiteHandle>(id, std::move(channel), &meter_));
    }
    coordinator_ = std::make_unique<Coordinator>(std::move(handles), &meter_,
                                                 siteData.front().dims());
    engine_ = std::make_unique<QueryEngine>(*coordinator_);
  }

  ~TcpCluster() {
    // Closing the client side ends each server loop.
    for (std::size_t i = 0; i < coordinator_->siteCount(); ++i) {
      // Coordinator owns the channels; destroy it first.
    }
    engine_.reset();
    coordinator_.reset();
    for (auto& t : threads_) t.join();
  }

  Coordinator& coordinator() { return *coordinator_; }
  QueryEngine& engine() { return *engine_; }
  obs::MetricsRegistry& metrics() { return metrics_; }

 private:
  BandwidthMeter meter_;
  obs::MetricsRegistry metrics_;
  std::vector<std::unique_ptr<LocalSite>> sites_;
  std::vector<std::unique_ptr<SiteServer>> servers_;
  std::vector<std::unique_ptr<TcpSiteServer>> tcpServers_;
  std::vector<std::thread> threads_;
  std::unique_ptr<Coordinator> coordinator_;
  std::unique_ptr<QueryEngine> engine_;
};

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

}  // namespace
}  // namespace dsud
