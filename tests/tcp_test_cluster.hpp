// A full test cluster whose sites are served over TCP loopback, one
// TcpSiteServer thread per site, each reached through one connection (so a
// capacity-1 channel pool per site).
#pragma once

#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/dataset.hpp"
#include "core/coordinator.hpp"
#include "core/local_site.hpp"
#include "core/query_engine.hpp"
#include "core/site_handle.hpp"
#include "net/tcp_transport.hpp"
#include "net/wire.hpp"
#include "obs/metrics.hpp"

namespace dsud::testutil {

class TcpCluster {
 public:
  /// Decorates one site's frame handler (fault injection).  A handler that
  /// throws ends that site's server loop, which closes its connection.
  using WrapHandler = std::function<FrameHandler(SiteId, FrameHandler)>;

  explicit TcpCluster(const std::vector<Dataset>& siteData,
                      const WrapHandler& wrap = {}) {
    std::vector<std::unique_ptr<SiteHandle>> handles;
    for (std::size_t i = 0; i < siteData.size(); ++i) {
      const auto id = static_cast<SiteId>(i);
      sites_.push_back(std::make_unique<LocalSite>(id, siteData[i]));
      servers_.push_back(std::make_unique<SiteServer>(*sites_.back()));
      FrameHandler handler = servers_.back()->handler();
      if (wrap) handler = wrap(id, std::move(handler));
      tcpServers_.push_back(
          std::make_unique<TcpSiteServer>(std::move(handler)));
      threads_.emplace_back([server = tcpServers_.back().get()] {
        try {
          server->serve();
        } catch (const std::exception&) {
          // A stopped or hung site: its loop ends when its handler throws
          // or when it writes a reply to a connection the client dropped.
        }
      });
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
    // The coordinator owns the channels: destroying it closes every client
    // connection, which ends each server loop.
    engine_.reset();
    coordinator_.reset();
    for (auto& t : threads_) t.join();
  }

  TcpCluster(const TcpCluster&) = delete;
  TcpCluster& operator=(const TcpCluster&) = delete;

  Coordinator& coordinator() { return *coordinator_; }
  QueryEngine& engine() { return *engine_; }
  obs::MetricsRegistry& metrics() { return metrics_; }
  const LocalSite& site(std::size_t i) const { return *sites_.at(i); }

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

}  // namespace dsud::testutil
