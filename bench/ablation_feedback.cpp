// Ablation A2 (DESIGN.md 3.4): which witnesses power e-DSUD's upper bound?
//   none        — no bound at all (degenerates to DSUD-style broadcast-all)
//   queued      — Observation 2 over currently queued tuples (the paper)
//   +confirmed  — plus the transitive Corollary-2 bound through confirmed
//                 answers (this implementation's tightening)
// All three settings return the exact answer; they differ in how many
// candidates are expunged before their (m−1)-tuple broadcast.
#include "bench_util.hpp"

namespace {

using namespace dsud;
using namespace dsud::bench;

void runPanel(const Scale& scale, ValueDistribution dist) {
  printTitle(std::string("Ablation A2: e-DSUD bound witnesses x expunge "
                         "policy (") +
             distributionName(dist) + ", d = 3)");
  printHeader({"bound", "policy", "tuples", "broadcasts", "expunged"});

  const Dataset global =
      generateSynthetic(SyntheticSpec{scale.n, 3, dist, scale.seed + 160});
  const struct {
    FeedbackBound bound;
    const char* name;
  } bounds[] = {
      {FeedbackBound::kNone, "none"},
      {FeedbackBound::kQueuedWitnesses, "witnesses"},
      {FeedbackBound::kQueuedAndConfirmed, "+confirmed"},
  };
  const struct {
    ExpungePolicy policy;
    const char* name;
  } policies[] = {
      {ExpungePolicy::kEager, "eager"},
      {ExpungePolicy::kPark, "park"},
  };
  for (const auto& bound : bounds) {
    for (const auto& policy : policies) {
      QueryConfig config;
      config.q = scale.q;
      config.bound = bound.bound;
      config.expunge = policy.policy;
      double tuples = 0.0;
      double broadcasts = 0.0;
      double expunged = 0.0;
      for (std::size_t r = 0; r < scale.repeats; ++r) {
        InProcCluster cluster(Topology::uniform(global, scale.m, scale.seed + r * 7919));
        const QueryResult result = cluster.engine().run(Algo::kEdsud, config);
        tuples += static_cast<double>(result.stats.tuplesShipped);
        broadcasts += static_cast<double>(result.stats.broadcasts);
        expunged += static_cast<double>(result.stats.expunged);
      }
      const auto d = static_cast<double>(scale.repeats);
      printRow(std::string(bound.name), std::string(policy.name), tuples / d,
               broadcasts / d, expunged / d);
    }
  }
}

}  // namespace

int main() {
  const Scale scale = defaultScale();
  printScale(scale);
  runPanel(scale, ValueDistribution::kIndependent);
  runPanel(scale, ValueDistribution::kAnticorrelated);
  return 0;
}
