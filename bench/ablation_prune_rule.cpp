// Ablation A1 (DESIGN.md 3.5): the exact threshold-bound local-pruning rule
// vs the paper's unconditional dominance rule.  Dominance pruning ships
// fewer tuples but can silently drop qualified answers (recall < 1); the
// table quantifies both effects.
#include "bench_util.hpp"

#include <algorithm>

#include "skyline/bbs.hpp"

namespace {

using namespace dsud;
using namespace dsud::bench;

struct Outcome {
  double tuples = 0.0;
  double reported = 0.0;
  double recall = 0.0;  // fraction of true answers reported
};

Outcome measure(const Dataset& global, const Scale& scale, PruneRule rule,
                std::size_t truth) {
  QueryConfig config;
  config.q = scale.q;
  config.prune = rule;

  Outcome o;
  for (std::size_t r = 0; r < scale.repeats; ++r) {
    InProcCluster cluster(Topology::uniform(global, scale.m, scale.seed + r * 7919));
    const QueryResult result = cluster.engine().run(Algo::kEdsud, config);
    o.tuples += static_cast<double>(result.stats.tuplesShipped);
    o.reported += static_cast<double>(result.skyline.size());
    o.recall += truth == 0
                    ? 1.0
                    : static_cast<double>(result.skyline.size()) /
                          static_cast<double>(truth);
  }
  const auto d = static_cast<double>(scale.repeats);
  o.tuples /= d;
  o.reported /= d;
  o.recall /= d;
  return o;
}

}  // namespace

int main() {
  const Scale scale = defaultScale();
  printScale(scale);
  printTitle("Ablation A1: local-pruning rule (e-DSUD, d = 3)");
  printHeader({"dist", "rule", "tuples", "reported", "recall %"});

  for (const ValueDistribution dist : {ValueDistribution::kIndependent,
                                       ValueDistribution::kAnticorrelated}) {
    const Dataset global =
        generateSynthetic(SyntheticSpec{scale.n, 3, dist, scale.seed + 150});
    // Indexed ground truth (the O(N²) scan would dominate the bench).
    const std::size_t truth =
        bbsSkyline(PRTree::bulkLoad(global), {.q = scale.q}).size();
    const Outcome exact =
        measure(global, scale, PruneRule::kThresholdBound, truth);
    const Outcome paper = measure(global, scale, PruneRule::kDominance, truth);
    printRow(std::string(distributionName(dist)), std::string("threshold"),
             exact.tuples, exact.reported, exact.recall * 100.0);
    printRow(std::string(distributionName(dist)), std::string("dominance"),
             paper.tuples, paper.reported, paper.recall * 100.0);
  }
  std::printf(
      "\nthreshold = exact answer guaranteed; dominance = paper Sec. 4 rule "
      "(cheaper, recall may drop below 100%%).\n");
  return 0;
}
