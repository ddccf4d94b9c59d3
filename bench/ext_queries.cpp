// Extension benchmarks (beyond the paper's figures):
//   * constrained queries — bandwidth vs window selectivity;
//   * top-k — bandwidth vs k, against the exhaustive floor query;
//   * the vertical-partitioning baseline's access counts vs dimensionality.
#include "bench_util.hpp"

#include "gen/partition.hpp"
#include "vertical/vertical.hpp"

namespace {

using namespace dsud;
using namespace dsud::bench;

void constrainedPanel(const Scale& scale) {
  printTitle("Constrained queries: bandwidth vs window selectivity "
             "(anticorrelated, d = 2)");
  printHeader({"window", "e-DSUD", "|SKY|"});

  const Dataset global = generateSynthetic(SyntheticSpec{
      scale.n, 2, ValueDistribution::kAnticorrelated, scale.seed + 170});
  const struct {
    double lo;
    double hi;
    const char* name;
  } windows[] = {
      {0.0, 1.0, "full"},
      {0.0, 0.5, "half"},
      {0.25, 0.5, "quarter"},
      {0.45, 0.55, "tight"},
  };
  for (const auto& w : windows) {
    QueryConfig config;
    config.q = scale.q;
    Rect window(2);
    const std::array<double, 2> lo = {w.lo, w.lo};
    const std::array<double, 2> hi = {w.hi, w.hi};
    window.expand(lo);
    window.expand(hi);
    config.window = window;

    InProcCluster cluster(Topology::uniform(global, scale.m, scale.seed));
    const QueryResult result = cluster.engine().run(Algo::kEdsud, config);
    printRow(std::string(w.name),
             static_cast<double>(result.stats.tuplesShipped),
             static_cast<double>(result.skyline.size()));
  }
}

void topkPanel(const Scale& scale) {
  printTitle("Top-k: bandwidth vs k (anticorrelated, d = 3, floor 0.05)");
  printHeader({"k", "adaptive", "exhaustive", "saving %"});

  const Dataset global = generateSynthetic(SyntheticSpec{
      scale.n, 3, ValueDistribution::kAnticorrelated, scale.seed + 171});
  InProcCluster cluster(Topology::uniform(global, scale.m, scale.seed));

  QueryConfig floorConfig;
  floorConfig.q = 0.05;
  const QueryResult exhaustive =
      cluster.engine().run(Algo::kEdsud, floorConfig);

  for (const std::size_t k : {1u, 5u, 10u, 50u, 200u}) {
    TopKConfig config;
    config.k = k;
    config.floorQ = 0.05;
    const QueryResult result = cluster.engine().run(config);
    const double saving =
        100.0 * (1.0 - static_cast<double>(result.stats.tuplesShipped) /
                           static_cast<double>(exhaustive.stats.tuplesShipped));
    printRow(std::to_string(k),
             static_cast<double>(result.stats.tuplesShipped),
             static_cast<double>(exhaustive.stats.tuplesShipped), saving);
  }
}

void verticalPanel(const Scale& scale) {
  printTitle("Vertical-partitioning baseline (certain data): accesses vs d");
  printHeader({"d", "dist", "sorted", "random", "candidates", "|SKY|"});

  for (std::size_t d = 2; d <= 4; ++d) {
    for (const ValueDistribution dist : {ValueDistribution::kIndependent,
                                         ValueDistribution::kAnticorrelated}) {
      const Dataset data = generateSynthetic(
          SyntheticSpec{scale.n / 10, d, dist, scale.seed + 172});
      VerticalStats stats;
      const auto sky = verticalSkyline(data, &stats);
      printRow(std::to_string(d), std::string(distributionName(dist)),
               static_cast<double>(stats.sortedAccesses),
               static_cast<double>(stats.randomAccesses),
               static_cast<double>(stats.candidates),
               static_cast<double>(sky.size()));
    }
  }
}

void skewPanel(const Scale& scale) {
  printTitle("Partitioning skew: bandwidth under placement strategies "
             "(independent, d = 3, m = 20)");
  printHeader({"strategy", "DSUD", "e-DSUD", "|SKY|"});

  const Dataset global = generateSynthetic(SyntheticSpec{
      scale.n, 3, ValueDistribution::kIndependent, scale.seed + 173});
  const std::size_t m = 20;

  const auto measure = [&](const std::vector<Dataset>& sites,
                           const std::string& name) {
    InProcCluster dsudCluster(Topology::fromPartitions(sites));
    InProcCluster edsudCluster(Topology::fromPartitions(sites));
    QueryConfig config;
    config.q = scale.q;
    const QueryResult dsud = dsudCluster.engine().run(Algo::kDsud, config);
    const QueryResult edsud = edsudCluster.engine().run(Algo::kEdsud, config);
    printRow(name, static_cast<double>(dsud.stats.tuplesShipped),
             static_cast<double>(edsud.stats.tuplesShipped),
             static_cast<double>(edsud.skyline.size()));
  };

  Rng rng(scale.seed);
  measure(partitionUniform(global, m, rng), "uniform");
  measure(partitionByRange(global, m, 0), "range(d0)");
  Rng zipfRng(scale.seed + 1);
  measure(partitionZipf(global, m, 1.0, zipfRng), "zipf(1.0)");
  Rng zipf2Rng(scale.seed + 2);
  measure(partitionZipf(global, m, 2.0, zipf2Rng), "zipf(2.0)");
}

}  // namespace

int main() {
  const Scale scale = defaultScale();
  printScale(scale);
  constrainedPanel(scale);
  topkPanel(scale);
  verticalPanel(scale);
  skewPanel(scale);
  return 0;
}
