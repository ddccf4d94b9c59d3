// Figure 13 (paper Sec. 7.5): progressiveness on the NYSE trace, with
// tuple uncertainty following the uniform (13a/13c) and Gaussian
// (μ = 0.5, σ = 0.2; 13b/13d) probability models.
#include "bench_util.hpp"

#include "gen/probability.hpp"

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
    const std::size_t k = s * total / steps;
    const ProgressPoint d = at(dsud.progress, k - 1);
    const ProgressPoint e = at(edsud.progress, k - 1);
    printRow(std::to_string(k), static_cast<double>(d.tuplesShipped),
             static_cast<double>(e.tuplesShipped), d.seconds * 1e3,
             e.seconds * 1e3);
  }
}

void runPanel(const Scale& scale, const ProbSampler& probs,
              const std::string& label) {
  printTitle("Fig. 13: NYSE progressiveness (" + label + ")");
  const Dataset trace =
      generateNyse(NyseSpec{scale.n, scale.seed + 130}, probs);
  QueryConfig config;
  config.q = scale.q;

  InProcCluster cluster(Topology::uniform(trace, scale.m, scale.seed + 131));
  const QueryResult dsud = cluster.engine().run(Algo::kDsud, config);
  const QueryResult edsud = cluster.engine().run(Algo::kEdsud, config);
  printCurves(dsud, edsud);
}

}  // namespace

int main() {
  const Scale scale = defaultScale();
  printScale(scale);
  runPanel(scale, uniformProbability(), "uniform probabilities");
  runPanel(scale, gaussianProbability(0.5, 0.2),
           "gaussian probabilities, mu=0.5 sigma=0.2");
  return 0;
}
