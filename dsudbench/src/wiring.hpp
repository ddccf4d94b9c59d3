// The system under test, wired from the repository's public pieces.
//
// BenchCluster builds what InProcCluster builds — a LocalSite, SiteServer,
// channel pool and RpcSiteHandle per site, one Coordinator and QueryEngine —
// but through the public Coordinator(vector<SiteHandle>) constructor, so a
// traced run can slide the timing decorators of spans.hpp in at each layer
// boundary.  The untraced run uses the identical wiring without them.
// Transport is in-process (a ChannelPool per site, sized like
// InProcCluster's) or real TCP loopback (one TcpSiteServer thread per site,
// one connection).
//
// BenchDaemon is dsudd without its flag parsing: a QueryServer over the
// cluster's engine with its event loop on a thread of its own.
#pragma once

#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common/dataset.hpp"
#include "core/coordinator.hpp"
#include "core/local_site.hpp"
#include "core/query_engine.hpp"
#include "net/bandwidth.hpp"
#include "net/tcp_transport.hpp"
#include "obs/metrics.hpp"
#include "server/server.hpp"

namespace dsudbench {

struct ClusterOptions {
  bool tcp = false;
  bool traced = false;
};

class BenchCluster {
 public:
  BenchCluster(const std::vector<dsud::Dataset>& parts, std::size_t dims,
               ClusterOptions options);
  ~BenchCluster();
  BenchCluster(const BenchCluster&) = delete;
  BenchCluster& operator=(const BenchCluster&) = delete;

  dsud::Coordinator& coordinator() { return *coordinator_; }
  dsud::QueryEngine& engine() { return *engine_; }
  dsud::obs::MetricsRegistry& metrics() { return metrics_; }

 private:
  dsud::obs::MetricsRegistry metrics_;
  dsud::BandwidthMeter meter_;
  std::vector<std::unique_ptr<dsud::LocalSite>> sites_;
  std::vector<std::unique_ptr<dsud::SiteServer>> dispatchers_;
  std::vector<std::unique_ptr<dsud::TcpSiteServer>> tcpServers_;
  std::vector<std::thread> tcpThreads_;
  std::unique_ptr<dsud::Coordinator> coordinator_;
  std::unique_ptr<dsud::QueryEngine> engine_;
};

class BenchDaemon {
 public:
  BenchDaemon(BenchCluster& cluster, dsud::server::ServerConfig config);
  ~BenchDaemon();
  BenchDaemon(const BenchDaemon&) = delete;
  BenchDaemon& operator=(const BenchDaemon&) = delete;

  std::uint16_t port() const { return server_.port(); }

 private:
  dsud::server::QueryServer server_;
  std::thread loop_;
};

/// dsudd's shipped defaults (tools/dsudd.cpp): 4 workers, 64 in flight,
/// 256 queued, cache of 256 entries, batching off, ephemeral ports.
dsud::server::ServerConfig dsuddDefaults();

}  // namespace dsudbench
