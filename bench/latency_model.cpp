// Response-time model under network delay (the paper's Sec. 1 motivation:
// "network delay incurred ... it is often very expensive to communicate").
//
// The bandwidth benches count tuples; this bench converts a measured
// protocol execution into wall-clock estimates under per-RPC round-trip
// times, for two execution disciplines:
//
//   sequential — every RPC waits for the previous one:
//                  T = roundTrips · RTT
//   pipelined  — a hypothetical fan-out where the m−1 evaluate RPCs of
//                one feedback phase run in parallel, and prepares and
//                initial pulls batch likewise (the engine itself issues
//                them one at a time):
//                  T ≈ (2 + candidatesPulled + broadcasts) · RTT
//                (one RTT per To-Server pull, one per feedback phase, plus
//                 one parallel prepare and one parallel initial-pull round)
//
// The model makes the trade-offs visible: the naive baseline is a single
// bulk round (cheap in RTTs, catastrophic in bytes), DSUD pays an RTT per
// candidate, e-DSUD removes both tuples *and* feedback rounds.
#include "bench_util.hpp"

namespace {

using namespace dsud;
using namespace dsud::bench;

struct Model {
  double sequentialRounds;
  double pipelinedRounds;
  double tuples;
};

Model measure(QueryEngine& engine, Algo algo, const QueryConfig& config,
              std::size_t m) {
  const QueryResult result = engine.run(algo, config);
  Model model;
  model.tuples = static_cast<double>(result.stats.tuplesShipped);
  model.sequentialRounds = static_cast<double>(result.stats.roundTrips);
  if (algo == Algo::kNaive) {
    // One parallel ship-all round.
    model.pipelinedRounds = 1.0;
  } else {
    model.pipelinedRounds =
        2.0 + static_cast<double>(result.stats.candidatesPulled -
                                  std::min<std::size_t>(
                                      result.stats.candidatesPulled, m)) +
        static_cast<double>(result.stats.broadcasts);
  }
  return model;
}

}  // namespace

int main() {
  const Scale scale = defaultScale();
  printScale(scale);

  const Dataset global = generateSynthetic(SyntheticSpec{
      scale.n, 3, ValueDistribution::kIndependent, scale.seed + 180});

  printTitle("Latency model: estimated response time (d = 3, m = " +
             std::to_string(scale.m) + ")");
  printHeader({"algo", "tuples", "seq rounds", "pipe rounds", "seq@10ms s",
               "pipe@10ms s"});

  for (const Algo algo : {Algo::kNaive, Algo::kDsud, Algo::kEdsud}) {
    InProcCluster cluster(Topology::uniform(global, scale.m, scale.seed));
    QueryConfig config;
    config.q = scale.q;
    const Model model = measure(cluster.engine(), algo, config, scale.m);
    printRow(std::string(algoLabel(algo)), model.tuples,
             model.sequentialRounds, model.pipelinedRounds,
             model.sequentialRounds * 0.010, model.pipelinedRounds * 0.010);
  }

  printTitle("Latency model: e-DSUD pipelined response time vs RTT");
  printHeader({"RTT ms", "naive s", "DSUD s", "e-DSUD s"});
  double rounds[3] = {0, 0, 0};
  {
    int i = 0;
    for (const Algo algo : {Algo::kNaive, Algo::kDsud, Algo::kEdsud}) {
      InProcCluster cluster(Topology::uniform(global, scale.m, scale.seed));
      QueryConfig config;
      config.q = scale.q;
      rounds[i++] =
          measure(cluster.engine(), algo, config, scale.m).pipelinedRounds;
    }
  }
  for (const double rttMs : {1.0, 10.0, 50.0, 200.0}) {
    char label[16];
    std::snprintf(label, sizeof(label), "%.0f", rttMs);
    printRow(std::string(label), rounds[0] * rttMs * 1e-3,
             rounds[1] * rttMs * 1e-3, rounds[2] * rttMs * 1e-3);
  }
  std::printf(
      "\n(naive wins on rounds but ships the whole database; the paper's "
      "bandwidth metric and this RTT model bracket the design space.)\n");
  return 0;
}
