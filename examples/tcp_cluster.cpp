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

#include "common/options.hpp"
#include "core/cluster.hpp"
#include "gen/synthetic.hpp"

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

  {
    // One TcpSiteServer thread per site on loopback, each reached through a
    // connected TcpClientChannel that reports wire-level frame and byte
    // counters, TCP framing included, so the meter sees real wire bytes.
    TcpCluster cluster(
        Topology::uniform(generateSynthetic(spec), m, spec.seed + 1));
    for (std::size_t i = 0; i < m; ++i) {
      std::printf("site %zu: %zu tuples\n", i,
                  cluster.site(static_cast<SiteId>(i)).size());
    }

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
      const QueryResult result =
          cluster.engine().run(Algo::kEdsud, config, options);
      std::printf("%zu skyline tuples in %.1f ms\n", result.skyline.size(),
                  result.stats.seconds * 1e3);
      std::printf("bandwidth: %llu tuples / %llu bytes over %llu RPCs\n",
                  static_cast<unsigned long long>(result.stats.tuplesShipped),
                  static_cast<unsigned long long>(result.stats.bytesShipped),
                  static_cast<unsigned long long>(result.stats.roundTrips));
      for (std::size_t i = 0; i < m && i < 3; ++i) {
        const LinkUsage link = cluster.meter().link(static_cast<SiteId>(i));
        std::printf(
            "  link to site %zu: %llu B up / %llu B down, %llu calls\n", i,
            static_cast<unsigned long long>(link.bytesToSite),
            static_cast<unsigned long long>(link.bytesFromSite),
            static_cast<unsigned long long>(link.calls));
      }
      std::uint64_t wireBytes = 0;
      for (const auto& [name, value] :
           cluster.metricsRegistry().snapshot().counters) {
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
    // ~TcpCluster closes the channels, which ends each server loop, then
    // stops and joins the server threads.
  }
  std::printf("all site servers shut down cleanly.\n");
  return 0;
}
