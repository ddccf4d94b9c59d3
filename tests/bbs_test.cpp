#include "skyline/bbs.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "common/rng.hpp"
#include "gen/partition.hpp"
#include "gen/synthetic.hpp"
#include "skyline/linear_skyline.hpp"
#include "test_util.hpp"

namespace dsud {
namespace {

TEST(BbsTest, EmptyTree) {
  const PRTree tree(2);
  EXPECT_TRUE(bbsSkyline(tree, {.q = 0.3}).empty());
}

TEST(BbsTest, SingleTuple) {
  Dataset data = testutil::makeDataset(2, {{0.5, 0.5, 0.7}});
  const PRTree tree = PRTree::bulkLoad(data);
  const auto sky = bbsSkyline(tree, {.q = 0.3});
  ASSERT_EQ(sky.size(), 1u);
  EXPECT_DOUBLE_EQ(sky[0].skyProb, 0.7);
  EXPECT_TRUE(bbsSkyline(tree, {.q = 0.8}).empty());
}

struct BbsCase {
  std::size_t n;
  std::size_t dims;
  ValueDistribution dist;
  double q;
  std::uint64_t seed;
};

class BbsParamTest : public ::testing::TestWithParam<BbsCase> {};

TEST_P(BbsParamTest, MatchesLinearScanExactly) {
  const BbsCase& c = GetParam();
  const Dataset data =
      generateSynthetic(SyntheticSpec{c.n, c.dims, c.dist, c.seed});
  const PRTree tree = PRTree::bulkLoad(data);

  const auto expected = linearSkyline(data, {.q = c.q});
  const auto got = bbsSkyline(tree, {.q = c.q});

  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, expected[i].id);
    EXPECT_NEAR(got[i].skyProb, expected[i].skyProb, 1e-9);
    EXPECT_EQ(got[i].values, expected[i].values);
    EXPECT_EQ(got[i].prob, expected[i].prob);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BbsParamTest,
    ::testing::Values(
        BbsCase{200, 2, ValueDistribution::kIndependent, 0.3, 21},
        BbsCase{200, 2, ValueDistribution::kAnticorrelated, 0.3, 22},
        BbsCase{200, 3, ValueDistribution::kIndependent, 0.5, 23},
        BbsCase{500, 3, ValueDistribution::kAnticorrelated, 0.3, 24},
        BbsCase{500, 4, ValueDistribution::kIndependent, 0.7, 25},
        BbsCase{500, 2, ValueDistribution::kCorrelated, 0.3, 26},
        BbsCase{1000, 2, ValueDistribution::kIndependent, 0.9, 27},
        BbsCase{1000, 5, ValueDistribution::kIndependent, 0.3, 28},
        BbsCase{2000, 3, ValueDistribution::kAnticorrelated, 0.5, 29}),
    [](const ::testing::TestParamInfo<BbsCase>& info) {
      const BbsCase& c = info.param;
      return std::string("n").append(std::to_string(c.n)) + "_d" +
             std::to_string(c.dims) + "_" + distributionName(c.dist) + "_q" +
             std::to_string(static_cast<int>(c.q * 10));
    });

TEST(BbsTest, SubspaceMatchesLinearScan) {
  const Dataset data = generateSynthetic(
      SyntheticSpec{400, 3, ValueDistribution::kIndependent, 31});
  const PRTree tree = PRTree::bulkLoad(data);
  for (const DimMask mask :
       {DimMask{0b011}, DimMask{0b101}, DimMask{0b110}, DimMask{0b001}}) {
    const auto expected = linearSkyline(data, {.mask = mask, .q = 0.3});
    const auto got = bbsSkyline(tree, {.mask = mask, .q = 0.3});
    EXPECT_EQ(testutil::idsOf(got), testutil::idsOf(expected))
        << "mask=" << mask;
  }
}

TEST(BbsTest, PruningActuallyHappens) {
  const Dataset data = generateSynthetic(
      SyntheticSpec{5000, 2, ValueDistribution::kIndependent, 33});
  const PRTree tree = PRTree::bulkLoad(data);
  BbsStats stats;
  bbsSkyline(tree, {.q = 0.3}, &stats);
  EXPECT_GT(stats.nodesPruned, 0u);
  // Far fewer tuples evaluated than stored: the point of the index.
  EXPECT_LT(stats.tuplesEvaluated, data.size() / 2);
}

TEST(BbsTest, HigherThresholdPrunesMore) {
  const Dataset data = generateSynthetic(
      SyntheticSpec{5000, 3, ValueDistribution::kAnticorrelated, 34});
  const PRTree tree = PRTree::bulkLoad(data);
  BbsStats low;
  BbsStats high;
  bbsSkyline(tree, {.q = 0.3}, &low);
  bbsSkyline(tree, {.q = 0.9}, &high);
  EXPECT_LE(high.tuplesEvaluated, low.tuplesEvaluated);
}

TEST(BbsTest, StreamEmitsInAscendingL1Order) {
  const Dataset data = generateSynthetic(
      SyntheticSpec{1000, 2, ValueDistribution::kAnticorrelated, 35});
  const PRTree tree = PRTree::bulkLoad(data);
  double lastKey = -1e300;
  std::size_t count = 0;
  bbsSkylineStream(tree, {.q = 0.3}, [&](const ProbSkylineEntry& e) {
    const double key = e.values[0] + e.values[1];
    EXPECT_GE(key, lastKey);
    lastKey = key;
    ++count;
    return true;
  });
  EXPECT_EQ(count, bbsSkyline(tree, {.q = 0.3}).size());
}

TEST(BbsTest, StreamBreaksKeyTiesByAscendingId) {
  // Certain points on the anti-diagonals x + y = 4 and x + y = 6 of an
  // integer grid: within a diagonal no point dominates another and every
  // L1 key is equal, so only the tie-break orders the stream.  Ids run
  // against the coordinates so an insertion-order tie-break would show.
  Dataset data(2);
  TupleId id = 100;
  for (const double sum : {6.0, 4.0}) {
    for (double x = sum; x >= 0.0; x -= 1.0) {
      const std::array<double, 2> v = {x, sum - x};
      data.add(id--, v, sum == 4.0 ? 0.9 : 0.6);
    }
  }
  PRTree grown(2, {.maxEntries = 4, .minEntries = 2});
  for (std::size_t row = data.size(); row-- > 0;) {
    grown.insert(data.id(row), data.values(row), data.prob(row));
  }
  const auto streamOf = [](const PRTree& tree) {
    std::vector<std::pair<double, TupleId>> order;
    bbsSkylineStream(tree, {.q = 0.0}, [&](const ProbSkylineEntry& e) {
      order.emplace_back(e.values[0] + e.values[1], e.id);
      return true;
    });
    return order;
  };
  const PRTree packed =
      PRTree::bulkLoad(data, {.maxEntries = 4, .minEntries = 2});
  const auto order = streamOf(packed);
  ASSERT_EQ(order.size(), data.size());
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
  EXPECT_EQ(streamOf(packed), order) << "a rerun must emit the same order";
  EXPECT_EQ(streamOf(grown), order)
      << "the order must not depend on how the tree was built";
}

TEST(BbsTest, StreamEarlyExitStops) {
  const Dataset data = generateSynthetic(
      SyntheticSpec{1000, 2, ValueDistribution::kAnticorrelated, 36});
  const PRTree tree = PRTree::bulkLoad(data);
  std::size_t count = 0;
  bbsSkylineStream(tree, {.q = 0.3}, [&](const ProbSkylineEntry&) {
    return ++count < 3;
  });
  EXPECT_EQ(count, 3u);
}

TEST(BbsTest, CertainDataGivesClassicSkyline) {
  Dataset data(2);
  // Grid of points with P = 1: the skyline is the anti-diagonal staircase.
  for (int x = 0; x < 10; ++x) {
    for (int y = 0; y < 10; ++y) {
      const std::array<double, 2> v = {double(x), double(y)};
      data.add(v, 1.0);
    }
  }
  const PRTree tree = PRTree::bulkLoad(data);
  const auto sky = bbsSkyline(tree, {.q = 0.5});
  // Only (0, 0) is undominated in a full grid.
  ASSERT_EQ(sky.size(), 1u);
  EXPECT_EQ(sky[0].values, (std::vector<double>{0.0, 0.0}));
}

TEST(BbsTest, WorksOnDynamicallyBuiltTree) {
  const Dataset data = generateSynthetic(
      SyntheticSpec{600, 3, ValueDistribution::kIndependent, 37});
  PRTree tree(3);
  for (std::size_t row = 0; row < data.size(); ++row) {
    tree.insert(data.id(row), data.values(row), data.prob(row));
  }
  EXPECT_EQ(testutil::idsOf(bbsSkyline(tree, {.q = 0.3})),
            testutil::idsOf(linearSkyline(data, {.q = 0.3})));
}

/// P_sky of every candidate by one single-point dominance query each: the
/// per-tuple evaluation BBS's pruning, entry filter and batched descent
/// must reproduce bit for bit.
std::vector<ProbSkylineEntry> perTupleSkyline(const Dataset& data,
                                              const PRTree& tree,
                                              const SkylineSpec& spec) {
  const DimMask mask = effectiveMask(spec.mask, data.dims());
  std::vector<ProbSkylineEntry> out;
  for (std::size_t row = 0; row < data.size(); ++row) {
    const TupleRef t = data.at(row);
    if (spec.clip != nullptr && !spec.clip->containsPoint(t.values)) continue;
    const double skyProb =
        t.prob * tree.dominanceSurvival(t.values, mask, spec.clip);
    if (skyProb >= spec.q) {
      out.push_back(ProbSkylineEntry{
          t.id, std::vector<double>(t.values.begin(), t.values.end()), t.prob,
          skyProb});
    }
  }
  sortBySkylineProbability(out);
  return out;
}

void expectSameEntries(const std::vector<ProbSkylineEntry>& got,
                       const std::vector<ProbSkylineEntry>& want,
                       const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << where << " at " << i;
    EXPECT_EQ(got[i].values, want[i].values) << where << " at " << i;
    EXPECT_EQ(got[i].prob, want[i].prob) << where << " at " << i;
    EXPECT_EQ(got[i].skyProb, want[i].skyProb) << where << " at " << i;
  }
}

/// Sweeps q, every non-empty mask of d = 3 and four windows (none, two
/// random boxes, and a zero-width slab through a stored tuple), checking
/// BBS entry for entry: against the per-tuple tree evaluation with `==` on
/// every field, and against the linear scan on ids, order and values
/// (linearSkyline accumulates survival in log space, so its P_sky may
/// differ from the tree's probability-space product in the last bits).
void sweepExactness(const Dataset& data, std::uint64_t seed) {
  const PRTree tree = PRTree::bulkLoad(data, {.maxEntries = 8,
                                              .minEntries = 3});
  Rng rng(seed);
  std::vector<Rect> windows;
  for (int w = 0; w < 2; ++w) {
    Rect window(3);
    for (int corner = 0; corner < 2; ++corner) {
      const std::array<double, 3> p = {rng.uniform(), rng.uniform(),
                                       rng.uniform()};
      window.expand(p);
    }
    windows.push_back(window);
  }
  Rect slab(3);
  const TupleRef pivot = data.at(data.size() / 2);
  slab.expand(std::array<double, 3>{pivot.values[0], 0.0, 0.0});
  slab.expand(std::array<double, 3>{pivot.values[0], 1.0, 1.0});
  windows.push_back(slab);

  for (const double q : {0.05, 0.3, 0.5, 0.9}) {
    for (DimMask mask = 1; mask < 8; ++mask) {
      for (std::size_t w = 0; w <= windows.size(); ++w) {
        const Rect* clip = w == 0 ? nullptr : &windows[w - 1];
        const SkylineSpec spec{.mask = mask, .q = q, .clip = clip};
        const std::string where = "q=" + std::to_string(q) +
                                  " mask=" + std::to_string(mask) +
                                  " window=" + std::to_string(w);
        const auto got = bbsSkyline(tree, spec);
        expectSameEntries(got, perTupleSkyline(data, tree, spec), where);
        const auto linear = linearSkyline(data, spec);
        ASSERT_EQ(testutil::idsOf(got), testutil::idsOf(linear)) << where;
        for (std::size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got[i].values, linear[i].values) << where;
          EXPECT_NEAR(got[i].skyProb, linear[i].skyProb, 1e-12) << where;
        }
      }
    }
  }
}

TEST(BbsExactnessTest, MatchesPerTupleAndLinearOverEveryShape) {
  std::uint64_t seed = 60;
  for (const ValueDistribution dist :
       {ValueDistribution::kIndependent, ValueDistribution::kAnticorrelated,
        ValueDistribution::kCorrelated}) {
    SCOPED_TRACE(distributionName(dist));
    sweepExactness(generateSynthetic(SyntheticSpec{800, 3, dist, seed}),
                   seed + 100);
    ++seed;
  }
}

TEST(BbsExactnessTest, TiedCoordinatesAndCertainTuples) {
  // Coordinates from a five-step grid, so many tuples share values on some
  // or all dimensions; every seventh tuple is certain (P = 1), which drives
  // the survival of everything it dominates to exactly 0.
  Rng rng(71);
  Dataset data(3);
  for (int i = 0; i < 600; ++i) {
    std::array<double, 3> v;
    for (double& x : v) x = 0.25 * static_cast<double>(rng.below(5));
    data.add(v, i % 7 == 0 ? 1.0 : 0.05 + 0.9 * rng.uniform());
  }
  sweepExactness(data, 72);
}

/// The per-entry filter's saving as a count: the tuples given an exact
/// evaluation on one site of dsudd's shapes (part 0 of a 10-way uniform
/// partition of N = 20k, d = 3, q = 0.3).  Before the filter every leaf
/// entry under an unpruned node was evaluated: 1041 (anticorrelated) and
/// 637 (independent).
TEST(BbsExactnessTest, EvaluatedTupleCountsArePinned) {
  const auto evaluated = [](ValueDistribution dist) {
    const Dataset global =
        generateSynthetic(SyntheticSpec{20000, 3, dist, 7});
    Rng rng(7);
    const Dataset part = partitionUniform(global, 10, rng).front();
    const PRTree tree = PRTree::bulkLoad(part);
    BbsStats stats;
    const auto sky = bbsSkyline(tree, {.q = 0.3}, &stats);
    EXPECT_EQ(testutil::idsOf(sky),
              testutil::idsOf(linearSkyline(part, {.q = 0.3})));
    return stats.tuplesEvaluated;
  };
  EXPECT_EQ(evaluated(ValueDistribution::kAnticorrelated), 682u);
  EXPECT_EQ(evaluated(ValueDistribution::kIndependent), 429u);
}

}  // namespace
}  // namespace dsud
