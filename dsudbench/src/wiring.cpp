#include "wiring.hpp"

#include <chrono>

#include "core/site_handle.hpp"
#include "net/channel_pool.hpp"
#include "net/inproc_transport.hpp"
#include "spans.hpp"

namespace dsudbench {

BenchCluster::BenchCluster(const std::vector<dsud::Dataset>& parts,
                           std::size_t dims, ClusterOptions options) {
  std::vector<std::unique_ptr<dsud::SiteHandle>> handles;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    const auto id = static_cast<dsud::SiteId>(i);
    sites_.push_back(std::make_unique<dsud::LocalSite>(id, parts[i]));
    sites_.back()->setMetrics(&metrics_);
    dispatchers_.push_back(std::make_unique<dsud::SiteServer>(*sites_.back()));
    dsud::FrameHandler handler = dispatchers_.back()->handler();
    if (options.traced) handler = timedHandler(std::move(handler), id);

    std::unique_ptr<dsud::SiteHandle> handle;
    if (options.tcp) {
      tcpServers_.push_back(
          std::make_unique<dsud::TcpSiteServer>(std::move(handler)));
      tcpThreads_.emplace_back([srv = tcpServers_.back().get()] { srv->serve(); });
      // Connected eagerly: each TcpSiteServer accepts exactly one peer, and
      // serve() must see it before teardown can end the loop.
      dsud::TcpSocketOptions socket;
      socket.connectTimeout = std::chrono::milliseconds{2000};
      auto tcp = std::make_unique<dsud::TcpClientChannel>(
          tcpServers_.back()->port(), socket);
      tcp->bindAccounting(id, &meter_, &metrics_);
      std::unique_ptr<dsud::ClientChannel> channel = std::move(tcp);
      if (options.traced) {
        channel = std::make_unique<TimedChannel>(std::move(channel), id);
      }
      handle = std::make_unique<dsud::RpcSiteHandle>(id, std::move(channel), &meter_);
    } else {
      auto pool = std::make_shared<dsud::ChannelPool>(
          [id, handler, traced = options.traced, this]()
              -> std::unique_ptr<dsud::ClientChannel> {
            auto channel = std::make_unique<dsud::InProcChannel>(handler);
            channel->bindAccounting(id, &meter_, &metrics_);
            if (!traced) return channel;
            return std::make_unique<TimedChannel>(std::move(channel), id);
          },
          dsud::TransportConfig{}.inprocChannelsPerSite);
      handle = std::make_unique<dsud::RpcSiteHandle>(id, std::move(pool), &meter_);
    }
    if (options.traced) handle = std::make_unique<TimedSiteHandle>(std::move(handle));
    handles.push_back(std::move(handle));
  }
  coordinator_ = std::make_unique<dsud::Coordinator>(std::move(handles), &meter_,
                                                     dims, &metrics_);
  engine_ = std::make_unique<dsud::QueryEngine>(*coordinator_);
}

BenchCluster::~BenchCluster() {
  // Dropping the coordinator closes every client channel, which ends each
  // TcpSiteServer::serve loop; stop() covers a peer that never connected.
  engine_.reset();
  coordinator_.reset();
  for (auto& srv : tcpServers_) srv->stop();
  for (auto& t : tcpThreads_) t.join();
}

BenchDaemon::BenchDaemon(BenchCluster& cluster,
                         dsud::server::ServerConfig config)
    : server_(cluster.engine(), cluster.metrics(), std::move(config)) {
  server_.start();
  loop_ = std::thread([this] { server_.run(); });
}

BenchDaemon::~BenchDaemon() {
  server_.stop();
  loop_.join();
}

dsud::server::ServerConfig dsuddDefaults() {
  dsud::server::ServerConfig config;
  config.port = 0;
  config.httpPort = 0;
  config.workers = 4;
  config.admission.maxInFlight = 64;
  config.admission.maxQueued = 256;
  config.admission.defaultQuota.ratePerSec = 0.0;
  config.admission.defaultQuota.burst = 32.0;
  config.admission.breakerShedFraction = 0.5;
  config.cacheCapacity = 256;
  config.batching.enabled = false;
  return config;
}

}  // namespace dsudbench
