// Figure 12 (paper Sec. 7.5): progressiveness on synthetic data.
//   12a/12b: cumulative tuples shipped as a function of the number of
//            skyline answers reported (Independent / Anticorrelated);
//   12c/12d: cumulative CPU time as the same function.
// Ten evenly spaced checkpoints of each curve are printed.
#include "bench_util.hpp"

namespace {

using namespace dsud;
using namespace dsud::bench;

void printCurves(const QueryResult& dsud, const QueryResult& edsud) {
  printHeader({"reported", "DSUD tuples", "e-DSUD tuples", "DSUD ms",
               "e-DSUD ms"});
  const std::size_t total =
      std::max(dsud.progress.size(), edsud.progress.size());
  if (total == 0) {
    std::printf("(no qualified skyline tuples)\n");
    return;
  }
  const auto at = [](const std::vector<ProgressPoint>& curve,
                     std::size_t k) -> ProgressPoint {
    if (curve.empty()) return {};
    return curve[std::min(k, curve.size() - 1)];
  };
  const std::size_t steps = std::min<std::size_t>(10, total);
  for (std::size_t s = 1; s <= steps; ++s) {
    const std::size_t k = s * total / steps;  // 10%, 20%, ... of answers
    const ProgressPoint d = at(dsud.progress, k - 1);
    const ProgressPoint e = at(edsud.progress, k - 1);
    printRow(std::to_string(k), static_cast<double>(d.tuplesShipped),
             static_cast<double>(e.tuplesShipped), d.seconds * 1e3,
             e.seconds * 1e3);
  }
}

void runPanel(const Scale& scale, ValueDistribution dist) {
  printTitle(std::string("Fig. 12: progressiveness (") +
             distributionName(dist) + ")");
  const Dataset global =
      generateSynthetic(SyntheticSpec{scale.n, 3, dist, scale.seed + 120});
  QueryConfig config;
  config.q = scale.q;

  InProcCluster cluster(Topology::uniform(global, scale.m, scale.seed + 121));
  const QueryResult dsud = cluster.engine().run(Algo::kDsud, config);
  const QueryResult edsud = cluster.engine().run(Algo::kEdsud, config);
  printCurves(dsud, edsud);
}

}  // namespace

int main() {
  const Scale scale = defaultScale();
  printScale(scale);
  runPanel(scale, ValueDistribution::kIndependent);
  runPanel(scale, ValueDistribution::kAnticorrelated);
  return 0;
}
