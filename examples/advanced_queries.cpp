// Beyond the basic threshold query: the library's extended query surface on
// one hotel-style dataset —
//   * subspace skylines (paper Sec. 4): "I only care about price",
//   * constrained skylines (Wu et al.): "mid-range hotels only",
//   * top-k: "just give me the five most probable winners",
//   * the vertical-partitioning baseline (paper Sec. 8's future-work
//     setting) on the certain version of the same data.
//
// Flags: --n=<tuples> --m=<sites> --seed=<seed>
#include <cstdio>

#include "common/options.hpp"
#include "core/cluster.hpp"
#include "gen/synthetic.hpp"
#include "vertical/vertical.hpp"

using namespace dsud;

int main(int argc, char** argv) {
  const ArgParser args(argc, argv);
  SyntheticSpec spec;
  spec.n = static_cast<std::size_t>(args.getInt("n", 20000));
  spec.dims = 3;  // price, distance to beach, noise level
  spec.dist = ValueDistribution::kAnticorrelated;
  spec.seed = static_cast<std::uint64_t>(args.getInt("seed", 99));
  const auto m = static_cast<std::size_t>(args.getInt("m", 8));

  std::printf("hotel catalogue: %zu uncertain records (price, beach "
              "distance, noise) across %zu booking sites\n\n",
              spec.n, m);
  const Dataset global = generateSynthetic(spec);
  InProcCluster cluster(Topology::uniform(global, m, spec.seed + 1));

  // --- Full-space threshold query -------------------------------------------
  QueryConfig config;
  config.q = 0.3;
  QueryResult full = cluster.engine().run(Algo::kEdsud, config);
  std::printf("full 3-D skyline at q=0.3: %zu hotels (%llu tuples shipped)\n",
              full.skyline.size(),
              static_cast<unsigned long long>(full.stats.tuplesShipped));

  // --- Subspace: price and beach distance only -------------------------------
  QueryConfig subspace = config;
  subspace.mask = 0b011;
  QueryResult sub = cluster.engine().run(Algo::kEdsud, subspace);
  std::printf("subspace {price, beach}: %zu hotels (%llu tuples shipped)\n",
              sub.skyline.size(),
              static_cast<unsigned long long>(sub.stats.tuplesShipped));

  // --- Constrained: mid-range price band -------------------------------------
  QueryConfig constrained = config;
  Rect window(3);
  const std::array<double, 3> lo = {0.25, 0.0, 0.0};
  const std::array<double, 3> hi = {0.75, 1.0, 1.0};
  window.expand(lo);
  window.expand(hi);
  constrained.window = window;
  QueryResult mid = cluster.engine().run(Algo::kEdsud, constrained);
  std::printf("mid-price window [0.25, 0.75]: %zu hotels (%llu tuples "
              "shipped)\n",
              mid.skyline.size(),
              static_cast<unsigned long long>(mid.stats.tuplesShipped));

  // --- Top-k -----------------------------------------------------------------
  TopKConfig topk;
  topk.k = 5;
  topk.floorQ = 0.05;
  QueryResult best = cluster.engine().run(topk);
  std::printf("\ntop-%zu most probable skyline hotels:\n", topk.k);
  for (const GlobalSkylineEntry& e : best.skyline) {
    std::printf("  hotel %-8llu P_gsky = %.3f  (price %.2f, beach %.2f, "
                "noise %.2f)\n",
                static_cast<unsigned long long>(e.tuple.id), e.globalSkyProb,
                e.tuple.values[0], e.tuple.values[1], e.tuple.values[2]);
  }
  std::printf("top-k cost: %llu tuples (vs %llu for the full floor query)\n",
              static_cast<unsigned long long>(best.stats.tuplesShipped),
              static_cast<unsigned long long>(full.stats.tuplesShipped));

  // --- Vertical partitioning (certain data) ----------------------------------
  VerticalStats stats;
  const auto vertical = verticalSkyline(global, &stats);
  std::printf("\nvertical-partitioning baseline (certain data, one attribute "
              "per site):\n  %zu skyline hotels, %zu sorted + %zu random "
              "accesses over %zu candidates\n",
              vertical.size(), stats.sortedAccesses, stats.randomAccesses,
              stats.candidates);
  return 0;
}
