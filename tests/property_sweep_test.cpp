// Randomised cross-validation harness: draw full query configurations at
// random — dimensionality, site count, threshold, distribution, probability
// model, subspace mask, window constraint, prune rule, bound mode, expunge
// policy — and check that naive, DSUD, and e-DSUD all reproduce the filtered
// centralised ground truth exactly.  One test like this catches interaction
// bugs that per-feature suites miss.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/cluster.hpp"
#include "gen/synthetic.hpp"
#include "test_util.hpp"

namespace dsud {
namespace {

struct RandomConfig {
  SyntheticSpec spec;
  std::size_t m = 2;
  QueryConfig query;
  bool gaussianProbs = false;
};

RandomConfig draw(Rng& rng) {
  RandomConfig c;
  c.spec.n = 100 + rng.below(900);
  c.spec.dims = 2 + rng.below(3);
  c.spec.seed = rng.next();
  const auto dist = rng.below(4);
  c.spec.dist = dist == 0   ? ValueDistribution::kIndependent
                : dist == 1 ? ValueDistribution::kCorrelated
                : dist == 2 ? ValueDistribution::kAnticorrelated
                            : ValueDistribution::kClustered;
  c.gaussianProbs = rng.uniform() < 0.3;
  c.m = 1 + rng.below(12);

  c.query.q = 0.05 + 0.9 * rng.uniform();
  c.query.prune = PruneRule::kThresholdBound;  // the exact rule
  c.query.bound = static_cast<FeedbackBound>(rng.below(3));
  c.query.expunge = static_cast<ExpungePolicy>(rng.below(2));

  // Random subspace (possibly full).
  if (rng.uniform() < 0.4) {
    DimMask mask = 0;
    for (std::size_t j = 0; j < c.spec.dims; ++j) {
      if (rng.uniform() < 0.5) mask |= 1u << j;
    }
    if (mask != 0) c.query.mask = mask;
  }

  // Random window constraint (possibly none).
  if (rng.uniform() < 0.3) {
    Rect window(c.spec.dims);
    std::vector<double> lo(c.spec.dims);
    std::vector<double> hi(c.spec.dims);
    for (std::size_t j = 0; j < c.spec.dims; ++j) {
      const double a = rng.uniform();
      const double b = rng.uniform();
      lo[j] = std::min(a, b);
      hi[j] = std::max(a, b);
    }
    window.expand(lo);
    window.expand(hi);
    c.query.window = window;
  }
  return c;
}

TEST(PropertySweepTest, RandomConfigurationsAllMatchGroundTruth) {
  Rng rng(0xDEC1DE);
  for (int trial = 0; trial < 25; ++trial) {
    const RandomConfig c = draw(rng);
    const Dataset global =
        c.gaussianProbs
            ? generateSynthetic(c.spec, gaussianProbability(0.5, 0.2))
            : generateSynthetic(c.spec);

    const DimMask mask = c.query.effectiveMask(global.dims());
    const auto expected =
        c.query.window
            ? linearSkyline(global, {.mask = mask, .q = c.query.q, .clip = &*c.query.window})
            : linearSkyline(global, {.mask = mask, .q = c.query.q});
    auto expectedIds = testutil::idsOf(expected);
    std::sort(expectedIds.begin(), expectedIds.end());

    InProcCluster cluster(Topology::uniform(global, c.m, rng.next()));
    for (QueryResult result : {cluster.engine().run(Algo::kNaive, c.query),
                               cluster.engine().run(Algo::kDsud, c.query),
                               cluster.engine().run(Algo::kEdsud, c.query)}) {
      auto ids = testutil::idsOf(result.skyline);
      std::sort(ids.begin(), ids.end());
      ASSERT_EQ(ids, expectedIds)
          << "trial " << trial << ": n=" << c.spec.n << " d=" << c.spec.dims
          << " m=" << c.m << " q=" << c.query.q << " mask=" << c.query.mask
          << " dist=" << distributionName(c.spec.dist)
          << " window=" << c.query.window.has_value()
          << " bound=" << static_cast<int>(c.query.bound)
          << " expunge=" << static_cast<int>(c.query.expunge);

      // Probabilities are exact, not just the id set.
      const auto probs = result.skyline;
      for (const auto& entry : probs) {
        const auto it =
            std::find_if(expected.begin(), expected.end(),
                         [&](const auto& e) { return e.id == entry.tuple.id; });
        ASSERT_NE(it, expected.end());
        EXPECT_NEAR(entry.globalSkyProb, it->skyProb, 1e-9);
      }
    }
  }
}

TEST(PropertySweepTest, TopKConsistentWithThresholdSweep) {
  Rng rng(0x70F0);
  for (int trial = 0; trial < 10; ++trial) {
    SyntheticSpec spec;
    spec.n = 200 + rng.below(600);
    spec.dims = 2 + rng.below(2);
    spec.seed = rng.next();
    spec.dist = rng.uniform() < 0.5 ? ValueDistribution::kIndependent
                                    : ValueDistribution::kAnticorrelated;
    const Dataset global = generateSynthetic(spec);
    const std::size_t m = 1 + rng.below(8);
    const std::size_t k = 1 + rng.below(15);

    InProcCluster cluster(Topology::uniform(global, m, rng.next()));
    TopKConfig config;
    config.k = k;
    config.floorQ = 0.02 + 0.2 * rng.uniform();
    const QueryResult result = cluster.engine().run(config);

    auto truth = linearSkyline(global, {.q = config.floorQ});
    if (truth.size() > k) truth.resize(k);
    ASSERT_EQ(testutil::idsOf(result.skyline), testutil::idsOf(truth))
        << "trial " << trial << " k=" << k << " floor=" << config.floorQ;
  }
}

}  // namespace
}  // namespace dsud
