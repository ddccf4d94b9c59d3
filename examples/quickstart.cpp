// Quickstart: the smallest end-to-end use of the library.
//
//   1. generate an uncertain database,
//   2. partition it across m simulated sites,
//   3. run the e-DSUD distributed skyline query,
//   4. print the progressive answers and the bandwidth bill.
//
// Flags: --n=<tuples> --m=<sites> --d=<dims> --q=<threshold> --seed=<seed>
//        --dist=independent|correlated|anticorrelated
#include <cstdio>
#include <string>

#include "common/options.hpp"
#include "core/cluster.hpp"
#include "gen/synthetic.hpp"

using namespace dsud;

int main(int argc, char** argv) {
  const ArgParser args(argc, argv);
  SyntheticSpec spec;
  spec.n = static_cast<std::size_t>(args.getInt("n", 50000));
  spec.dims = static_cast<std::size_t>(args.getInt("d", 2));
  spec.seed = static_cast<std::uint64_t>(args.getInt("seed", 42));
  const std::string dist = args.get("dist", "independent");
  if (dist == "anticorrelated") {
    spec.dist = ValueDistribution::kAnticorrelated;
  } else if (dist == "correlated") {
    spec.dist = ValueDistribution::kCorrelated;
  }
  const auto m = static_cast<std::size_t>(args.getInt("m", 10));

  QueryConfig config;
  config.q = args.getDouble("q", 0.3);

  std::printf("generating %zu %zu-dimensional %s tuples...\n", spec.n,
              spec.dims, distributionName(spec.dist));
  const Dataset global = generateSynthetic(spec);

  std::printf("partitioning onto %zu sites and indexing...\n", m);
  InProcCluster cluster(Topology::uniform(global, m, spec.seed + 1));

  std::printf("running e-DSUD with threshold q = %.2f\n\n", config.q);
  QueryOptions options;
  options.progress =
      [](const GlobalSkylineEntry& entry, const ProgressPoint& point) {
        std::printf("  #%-3zu tuple %-8llu from site %-3u  P_gsky = %.4f  "
                    "(%llu tuples shipped so far)\n",
                    point.reported,
                    static_cast<unsigned long long>(entry.tuple.id),
                    entry.site, entry.globalSkyProb,
                    static_cast<unsigned long long>(point.tuplesShipped));
      };
  const QueryResult result =
      cluster.engine().run(Algo::kEdsud, config, options);

  std::printf("\n%zu global skyline tuples in %.1f ms\n",
              result.skyline.size(), result.stats.seconds * 1e3);
  std::printf("bandwidth: %llu tuples (%llu bytes, %llu round trips); "
              "naive ship-all would cost %zu tuples\n",
              static_cast<unsigned long long>(result.stats.tuplesShipped),
              static_cast<unsigned long long>(result.stats.bytesShipped),
              static_cast<unsigned long long>(result.stats.roundTrips),
              global.size());
  std::printf("candidates pulled %zu, broadcasts %zu, expunged %zu, pruned "
              "at sites %zu\n",
              result.stats.candidatesPulled, result.stats.broadcasts,
              result.stats.expunged, result.stats.prunedAtSites);
  return 0;
}
