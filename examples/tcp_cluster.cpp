// The same DSUD/e-DSUD protocol over real TCP sockets: one server thread
// per site on the loopback interface, framed RPC, and the coordinator
// driving the query through TcpClientChannel.  Demonstrates that the
// algorithms are transport-agnostic — tuple counts match the in-process
// run bit for bit.
//
// SIGINT/SIGTERM shut down gracefully: the handler flips the query's
// cancellation token (a lock-free atomic — async-signal-safe), the engine
// raises QueryCancelled at the next round boundary, and teardown proceeds
// in the normal order — channels close, site servers stop, threads join —
// instead of the process dying mid-stream with sites still listening.
//
// Flags: --n=<tuples> --m=<sites> --q=<threshold> --seed=<seed>
//        --deadline-ms=<per-RPC deadline> --retries=<extra attempts>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <memory>
#include <thread>
#include <vector>

#include "common/options.hpp"
#include "core/cluster.hpp"
#include "core/local_site.hpp"
#include "core/query_engine.hpp"
#include "core/result.hpp"
#include "core/site_handle.hpp"
#include "gen/partition.hpp"
#include "gen/synthetic.hpp"
#include "net/tcp_transport.hpp"
#include "obs/metrics.hpp"

using namespace dsud;

namespace {

// The handler may only perform async-signal-safe operations: a store to a
// lock-free atomic qualifies, and it is all cooperative cancellation needs.
std::atomic<bool>* g_cancel = nullptr;

void onSignal(int) {
  if (g_cancel != nullptr) g_cancel->store(true, std::memory_order_relaxed);
}

}  // namespace

int main(int argc, char** argv) {
  const ArgParser args(argc, argv);
  SyntheticSpec spec;
  spec.n = static_cast<std::size_t>(args.getInt("n", 20000));
  spec.dims = 3;
  spec.dist = ValueDistribution::kAnticorrelated;
  spec.seed = static_cast<std::uint64_t>(args.getInt("seed", 7));
  const auto m = static_cast<std::size_t>(args.getInt("m", 6));

  QueryConfig config;
  config.q = args.getDouble("q", 0.3);

  const Dataset global = generateSynthetic(spec);
  Rng partitionRng(spec.seed + 1);
  const auto siteData = partitionUniform(global, m, partitionRng);

  // Site side: engine + frame dispatcher + TCP server per site.
  std::vector<std::unique_ptr<LocalSite>> sites;
  std::vector<std::unique_ptr<SiteServer>> dispatchers;
  std::vector<std::unique_ptr<TcpSiteServer>> servers;
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < m; ++i) {
    sites.push_back(
        std::make_unique<LocalSite>(static_cast<SiteId>(i), siteData[i]));
    dispatchers.push_back(std::make_unique<SiteServer>(*sites.back()));
    servers.push_back(
        std::make_unique<TcpSiteServer>(dispatchers.back()->handler()));
    std::printf("site %zu: %zu tuples, listening on 127.0.0.1:%u\n", i,
                siteData[i].size(), servers.back()->port());
    threads.emplace_back([srv = servers.back().get()] { srv->serve(); });
  }

  // Coordinator side: TCP channels + bandwidth meter + metrics registry.
  // bindAccounting makes each channel report wire-level frame/byte counters
  // and its TCP framing overhead, so the meter reflects real wire bytes.
  // The socket knobs come from TransportConfig — the same config surface
  // InProcCluster consumes — so TCP_NODELAY and the connect timeout are set
  // in one place.
  TransportConfig transport;
  transport.socket.connectTimeout = std::chrono::milliseconds{2000};
  BandwidthMeter meter;
  obs::MetricsRegistry metrics;
  std::vector<std::unique_ptr<SiteHandle>> handles;
  for (std::size_t i = 0; i < m; ++i) {
    const auto id = static_cast<SiteId>(i);
    auto channel = std::make_unique<TcpClientChannel>(servers[i]->port(),
                                                      transport.socket);
    channel->bindAccounting(id, &meter, &metrics);
    handles.push_back(
        std::make_unique<RpcSiteHandle>(id, std::move(channel), &meter));
  }
  {
    Coordinator coordinator(std::move(handles), &meter, spec.dims);
    QueryEngine engine(coordinator);

    // Per-query fault handling: every RPC is bounded by the deadline
    // (SO_RCVTIMEO on the socket) and transient failures are retried with
    // exponential backoff before the query gives up.
    QueryOptions options;
    options.fault.deadline =
        std::chrono::milliseconds{args.getInt("deadline-ms", 5000)};
    options.fault.retry.maxAttempts =
        1 + static_cast<std::uint32_t>(args.getInt("retries", 2));
    options.cancel = std::make_shared<std::atomic<bool>>(false);

    // SA_RESTART so blocked socket calls resume after the handler runs;
    // the cancellation token — not an interrupted syscall — ends the query.
    g_cancel = options.cancel.get();
    struct sigaction action = {};
    action.sa_handler = onSignal;
    ::sigemptyset(&action.sa_mask);
    action.sa_flags = SA_RESTART;
    ::sigaction(SIGINT, &action, nullptr);
    ::sigaction(SIGTERM, &action, nullptr);

    std::printf("\nrunning e-DSUD over TCP, q = %.2f "
                "(deadline %lld ms, %u attempts)...\n",
                config.q,
                static_cast<long long>(options.fault.deadline.count()),
                options.fault.retry.maxAttempts);
    try {
      const QueryResult result = engine.run(Algo::kEdsud, config, options);
      std::printf("%zu skyline tuples in %.1f ms\n", result.skyline.size(),
                  result.stats.seconds * 1e3);
      std::printf("bandwidth: %llu tuples / %llu bytes over %llu RPCs\n",
                  static_cast<unsigned long long>(result.stats.tuplesShipped),
                  static_cast<unsigned long long>(result.stats.bytesShipped),
                  static_cast<unsigned long long>(result.stats.roundTrips));
      for (std::size_t i = 0; i < m && i < 3; ++i) {
        const LinkUsage link = meter.link(static_cast<SiteId>(i));
        std::printf(
            "  link to site %zu: %llu B up / %llu B down, %llu calls\n", i,
            static_cast<unsigned long long>(link.bytesToSite),
            static_cast<unsigned long long>(link.bytesFromSite),
            static_cast<unsigned long long>(link.calls));
      }
      std::uint64_t wireBytes = 0;
      for (const auto& [name, value] : metrics.snapshot().counters) {
        if (name.rfind("dsud_transport_bytes_total", 0) == 0) {
          wireBytes += value;
        }
      }
      std::printf("wire bytes incl. frame headers: %llu\n",
                  static_cast<unsigned long long>(wireBytes));
    } catch (const QueryCancelled&) {
      std::printf("query cancelled by signal — draining site servers...\n");
    }
    g_cancel = nullptr;
    // Coordinator (and its channels) close here, ending the server loops.
  }
  // Belt and braces: the channel close above already ends each serve()
  // loop; stop() additionally guarantees a return after the in-flight
  // request even if a peer lingered, so the joins below cannot hang.
  for (auto& srv : servers) srv->stop();
  for (auto& t : threads) t.join();
  std::printf("all site servers shut down cleanly.\n");
  return 0;
}
