// The paper's motivating scenario (Sec. 1): a customer looking for the top
// deals of a stock across distributed exchange centres.  Deals are
// ⟨average price per share, volume⟩; a deal is better when it is cheaper
// AND larger, and recording errors give every deal an existential
// probability.  This example:
//
//   1. synthesises an NYSE-style trade stream and spreads it over m
//      exchange centres,
//   2. answers the distributed probabilistic skyline at several thresholds,
//   3. demonstrates continuous maintenance as new deals arrive and stale
//      deals are cancelled (Sec. 5.4).
//
// Flags: --n=<deals> --m=<exchanges> --q=<threshold> --seed=<seed>
#include <cstdio>

#include "common/options.hpp"
#include "core/cluster.hpp"
#include "core/updates.hpp"
#include "gen/nyse.hpp"

using namespace dsud;

int main(int argc, char** argv) {
  const ArgParser args(argc, argv);
  NyseSpec spec;
  spec.n = static_cast<std::size_t>(args.getInt("n", 100000));
  spec.seed = static_cast<std::uint64_t>(args.getInt("seed", 20001201));
  const auto m = static_cast<std::size_t>(args.getInt("m", 8));

  std::printf("synthesising %zu stock deals and spreading them over %zu "
              "exchange centres...\n",
              spec.n, m);
  const Dataset deals = generateNyse(spec);
  InProcCluster cluster(Topology::uniform(deals, m, spec.seed + 1));

  // --- Threshold sweep ------------------------------------------------------
  std::printf("\n%-6s %10s %14s %14s\n", "q", "|SKY|", "tuples", "ms");
  for (const double q : {0.3, 0.5, 0.7, 0.9}) {
    QueryConfig config;
    config.q = q;
    const QueryResult result = cluster.engine().run(Algo::kEdsud, config);
    std::printf("%-6.1f %10zu %14llu %14.1f\n", q, result.skyline.size(),
                static_cast<unsigned long long>(result.stats.tuplesShipped),
                result.stats.seconds * 1e3);
  }

  // --- Top deals at the default threshold -----------------------------------
  QueryConfig config;
  config.q = args.getDouble("q", 0.3);
  const QueryResult result = cluster.engine().run(Algo::kEdsud, config);
  std::printf("\ntop deals at q = %.2f (price $, volume shares, "
              "P(deal), P_gsky):\n",
              config.q);
  const std::size_t shown = std::min<std::size_t>(8, result.skyline.size());
  for (std::size_t i = 0; i < shown; ++i) {
    const GlobalSkylineEntry& e = result.skyline[i];
    std::printf("  $%-8.2f %12.0f   %.2f   %.3f   (exchange %u)\n",
                e.tuple.values[0], -e.tuple.values[1], e.tuple.prob,
                e.globalSkyProb, e.site);
  }

  // --- Continuous maintenance ------------------------------------------------
  std::printf("\nlive maintenance: a too-good-to-ignore deal arrives at "
              "exchange 0...\n");
  SkylineMaintainer maintainer(cluster.coordinator(), config,
                               MaintenanceStrategy::kIncremental);
  maintainer.initialize();

  UpdateEvent insert;
  insert.kind = UpdateEvent::Kind::kInsert;
  insert.site = 0;
  insert.tuple = Tuple{spec.n + 1, {1.0, -5'000'000.0}, 0.9};
  UpdateStats stats = maintainer.apply(insert);
  std::printf("  insert handled in %.2f ms, %llu tuples on the wire, "
              "skyline %s\n",
              stats.seconds * 1e3,
              static_cast<unsigned long long>(stats.tuplesShipped),
              stats.skylineChanged ? "changed" : "unchanged");
  std::printf("  best deal now: $%.2f x %.0f shares (P_gsky %.3f)\n",
              maintainer.skyline().front().tuple.values[0],
              -maintainer.skyline().front().tuple.values[1],
              maintainer.skyline().front().globalSkyProb);

  std::printf("...and is cancelled again (recording error).\n");
  UpdateEvent cancel;
  cancel.kind = UpdateEvent::Kind::kDelete;
  cancel.site = 0;
  cancel.tuple = insert.tuple;
  stats = maintainer.apply(cancel);
  std::printf("  delete handled in %.2f ms, %llu tuples on the wire, "
              "skyline %s; %zu deals in SKY(H)\n",
              stats.seconds * 1e3,
              static_cast<unsigned long long>(stats.tuplesShipped),
              stats.skylineChanged ? "changed" : "unchanged",
              maintainer.skyline().size());
  return 0;
}
