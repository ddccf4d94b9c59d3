// Fault-tolerance bench: completion and latency as functions of the
// injected transport fault rate.
//
// Sweeps a symmetric drop/error rate over every channel (ChaosChannel with
// a per-rate seed), runs DSUD and e-DSUD under a fixed retry budget in
// degraded mode, and reports how many queries stayed exact, how many
// completed degraded (a site exhausted its budget and was excluded), how
// many failed outright (every site lost), and the mean wall time.  Retries
// are summed from each cluster's own metrics registry, so the table shows
// how much work the fault rate actually induced.  Backoff is zeroed: the
// point is the protocol's fault-handling overhead, not sleep time.
//
// A second table kills one site for good mid-query (killAfter = 1) and
// shows both algorithms completing degraded over the survivors.
#include <chrono>
#include <exception>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "net/chaos.hpp"
#include "net/fault.hpp"

namespace {

using namespace dsud;
using namespace dsud::bench;

std::uint64_t retriesTotal(InProcCluster& cluster) {
  std::uint64_t sum = 0;
  for (const auto& [name, value] :
       cluster.metricsRegistry().snapshot().counters) {
    if (name.rfind("dsud_retries_total", 0) == 0) sum += value;
  }
  return sum;
}

struct FaultPoint {
  std::size_t exact = 0;      ///< completed with no site excluded
  std::size_t degraded = 0;   ///< completed over survivors
  std::size_t failed = 0;     ///< aborted (every site unreachable)
  double seconds = 0.0;       ///< mean wall time of completed queries
  std::uint64_t retries = 0;  ///< RPC retries summed over every repeat
};

FaultPoint sweepAlgo(const Dataset& global, const Scale& scale, Algo algo,
                     double faultRate, const QueryOptions& options) {
  QueryConfig query;
  query.q = scale.q;
  FaultPoint point;
  std::size_t completed = 0;
  for (std::size_t r = 0; r < scale.repeats; ++r) {
    ClusterConfig config;
    if (faultRate > 0.0) {
      config.chaos = ChaosSpec{.dropRate = faultRate / 2,
                               .errorRate = faultRate / 2,
                               .seed = scale.seed + r * 31};
    }
    InProcCluster cluster(Topology::uniform(global, scale.m, scale.seed + r * 7919), config);
    try {
      const QueryResult result =
          cluster.engine().run(algo, query, options);
      ++(result.degraded ? point.degraded : point.exact);
      point.seconds += result.stats.seconds;
      ++completed;
    } catch (const std::exception&) {
      ++point.failed;
    }
    point.retries += retriesTotal(cluster);
  }
  if (completed > 0) point.seconds /= static_cast<double>(completed);
  return point;
}

}  // namespace

int main() {
  const Scale scale = defaultScale();
  printScale(scale);
  std::printf("retry budget: 6 attempts, zero backoff; mode: degrade\n");

  const Dataset global = generateSynthetic(
      SyntheticSpec{scale.n, 3, ValueDistribution::kIndependent, scale.seed});

  QueryOptions options;
  options.fault.retry.maxAttempts = 6;
  options.fault.retry.initialBackoff = std::chrono::milliseconds{0};
  options.fault.onSiteFailure = OnSiteFailure::kDegrade;
  QueryConfig query;
  query.q = scale.q;

  printTitle("Completion and latency vs transport fault rate");
  printHeader({"fault%", "DSUD exact", "DSUD degr", "DSUD fail", "DSUD s",
               "eDSUD exact", "eDSUD degr", "eDSUD fail", "eDSUD s",
               "retries"});
  for (const double rate : {0.0, 0.02, 0.05, 0.1, 0.2, 0.4}) {
    const FaultPoint dsud = sweepAlgo(global, scale, Algo::kDsud, rate,
                                      options);
    const FaultPoint edsud = sweepAlgo(global, scale, Algo::kEdsud, rate,
                                       options);
    printRow(rate * 100.0, std::uint64_t(dsud.exact),
             std::uint64_t(dsud.degraded), std::uint64_t(dsud.failed),
             dsud.seconds, std::uint64_t(edsud.exact),
             std::uint64_t(edsud.degraded), std::uint64_t(edsud.failed),
             edsud.seconds, dsud.retries + edsud.retries);
  }

  printTitle("Degraded completion: one site killed mid-query");
  printHeader({"algo", "exact", "degraded", "failed", "mean s"});
  for (const Algo algo : {Algo::kDsud, Algo::kEdsud}) {
    FaultPoint point;
    std::size_t completed = 0;
    for (std::size_t r = 0; r < scale.repeats; ++r) {
      ClusterConfig config;
      config.chaos = ChaosSpec{
          .killAfter = 1,
          .onlySite = static_cast<SiteId>(r % scale.m),
          .seed = scale.seed + r * 31};
      InProcCluster cluster(Topology::uniform(global, scale.m, scale.seed + r * 7919), config);
      try {
        const QueryResult result =
            cluster.engine().run(algo, query, options);
        ++(result.degraded ? point.degraded : point.exact);
        point.seconds += result.stats.seconds;
        ++completed;
      } catch (const std::exception&) {
        ++point.failed;
      }
    }
    if (completed > 0) point.seconds /= static_cast<double>(completed);
    printRow(std::string(algoLabel(algo)), std::uint64_t(point.exact),
             std::uint64_t(point.degraded), std::uint64_t(point.failed),
             point.seconds);
  }
  return 0;
}
