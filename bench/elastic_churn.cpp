// Elasticity bench: query latency under background membership churn.
//
// Steady state first: a fixed cluster answers a batch of e-DSUD queries and
// we record per-query wall time.  Then an admin thread loops
// join -> rebalance -> leave (which rebalances again) while the same query
// loop runs in the foreground.  Sessions pin the cluster view they started
// on, so every query must stay exact -- the bench verifies non-degraded
// completion and an unchanged answer id set on every iteration -- and the
// table shows what the churn costs in p50/p95 latency.
//
// The second table repeats the churn phase with k = 2 replicas, showing the
// latency price of keeping a hot copy of every partition.
#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <thread>
#include <vector>

#include "bench_util.hpp"

namespace {

using namespace dsud;
using namespace dsud::bench;

std::vector<TupleId> answerIds(const QueryResult& result) {
  std::vector<TupleId> ids;
  ids.reserve(result.skyline.size());
  for (const GlobalSkylineEntry& e : result.skyline) ids.push_back(e.tuple.id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

double percentile(std::vector<double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  const auto index = static_cast<std::size_t>(
      p * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(index, sorted.size() - 1)];
}

struct Phase {
  std::size_t queries = 0;
  double meanMs = 0.0;
  double p50Ms = 0.0;
  double p95Ms = 0.0;
  std::uint64_t rebalances = 0;
  std::uint64_t epoch = 0;
};

Phase runPhase(InProcCluster& cluster, const Scale& scale,
               const std::vector<TupleId>& expected, std::size_t queries,
               bool churn) {
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> rebalances{0};
  std::thread admin;
  if (churn) {
    admin = std::thread([&cluster, &stop, &rebalances] {
      while (!stop.load(std::memory_order_acquire)) {
        const SiteId added = cluster.addSite();
        cluster.rebalance();
        cluster.removeSite(added);
        rebalances.fetch_add(2, std::memory_order_relaxed);
      }
    });
  }

  QueryConfig query;
  query.q = scale.q;
  std::vector<double> ms;
  ms.reserve(queries);
  for (std::size_t i = 0; i < queries; ++i) {
    const QueryResult result = cluster.engine().run(Algo::kEdsud, query);
    if (result.degraded || answerIds(result) != expected) {
      std::fprintf(stderr,
                   "FATAL: query under churn degraded or changed answer\n");
      std::exit(1);
    }
    ms.push_back(result.stats.seconds * 1000.0);
  }

  if (churn) {
    stop.store(true, std::memory_order_release);
    admin.join();
  }

  Phase phase;
  phase.queries = queries;
  for (const double v : ms) phase.meanMs += v;
  phase.meanMs /= static_cast<double>(ms.size());
  std::sort(ms.begin(), ms.end());
  phase.p50Ms = percentile(ms, 0.50);
  phase.p95Ms = percentile(ms, 0.95);
  phase.rebalances = rebalances.load(std::memory_order_relaxed);
  phase.epoch = cluster.membershipEpoch();
  return phase;
}

}  // namespace

int main() {
  const Scale scale = defaultScale();
  printScale(scale);

  const Dataset global = generateSynthetic(
      SyntheticSpec{scale.n, 3, ValueDistribution::kIndependent, scale.seed});
  const std::size_t queries = std::max<std::size_t>(scale.repeats * 8, 16);

  printTitle("Query latency: steady state vs background repartitioning");
  printHeader({"k", "phase", "queries", "mean ms", "p50 ms", "p95 ms",
               "rebalances", "epoch"});
  for (const std::size_t replicas : {std::size_t{1}, std::size_t{2}}) {
    InProcCluster cluster(
        Topology::uniform(global, scale.m, scale.seed, replicas));
    QueryConfig query;
    query.q = scale.q;
    const std::vector<TupleId> expected =
        answerIds(cluster.engine().run(Algo::kEdsud, query));

    const Phase steady = runPhase(cluster, scale, expected, queries, false);
    printRow(std::uint64_t(replicas), std::string("steady"),
             std::uint64_t(steady.queries), steady.meanMs, steady.p50Ms,
             steady.p95Ms, steady.rebalances, steady.epoch);
    const Phase churn = runPhase(cluster, scale, expected, queries, true);
    printRow(std::uint64_t(replicas), std::string("churn"),
             std::uint64_t(churn.queries), churn.meanMs, churn.p50Ms,
             churn.p95Ms, churn.rebalances, churn.epoch);
  }
  return 0;
}
