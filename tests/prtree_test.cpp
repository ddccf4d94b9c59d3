#include "index/prtree.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "gen/probability.hpp"
#include "gen/synthetic.hpp"

namespace dsud {
namespace {

/// Brute-force Π (1 − P) over dominators of b.
double bruteSurvival(const Dataset& data, std::span<const double> b,
                     DimMask mask) {
  double s = 1.0;
  for (std::size_t row = 0; row < data.size(); ++row) {
    if (dominates(data.values(row), b, mask)) s *= 1.0 - data.prob(row);
  }
  return s;
}

std::vector<TupleId> bruteWindow(const Dataset& data, const Rect& window) {
  std::vector<TupleId> ids;
  for (std::size_t row = 0; row < data.size(); ++row) {
    if (window.containsPoint(data.values(row))) ids.push_back(data.id(row));
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST(PRTreeTest, RejectsBadConfiguration) {
  EXPECT_THROW(PRTree(0), std::invalid_argument);
  EXPECT_THROW(PRTree(kMaxDims + 1), std::invalid_argument);
  EXPECT_THROW(PRTree(2, PRTreeOptions{3, 2}), std::invalid_argument);
  EXPECT_THROW(PRTree(2, PRTreeOptions{8, 1}), std::invalid_argument);
  EXPECT_THROW(PRTree(2, PRTreeOptions{8, 5}), std::invalid_argument);
}

TEST(PRTreeTest, EmptyTreeBehaviour) {
  PRTree tree(2);
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.height(), 0u);
  const std::array<double, 2> b = {1.0, 1.0};
  EXPECT_EQ(tree.dominanceSurvival(b), 1.0);
  tree.checkInvariants();
}

TEST(PRTreeTest, SingleInsert) {
  PRTree tree(2);
  const std::array<double, 2> v = {0.5, 0.5};
  tree.insert(7, v, 0.4);
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_EQ(tree.height(), 1u);
  tree.checkInvariants();

  const std::array<double, 2> above = {0.6, 0.6};
  EXPECT_DOUBLE_EQ(tree.dominanceSurvival(above), 0.6);
  EXPECT_DOUBLE_EQ(tree.dominanceSurvival(v), 1.0);  // no self-domination
}

TEST(PRTreeTest, InsertValidation) {
  PRTree tree(2);
  const std::array<double, 3> wrongDims = {1.0, 2.0, 3.0};
  const std::array<double, 2> v = {1.0, 2.0};
  EXPECT_THROW(tree.insert(0, wrongDims, 0.5), std::invalid_argument);
  EXPECT_THROW(tree.insert(0, v, 0.0), std::invalid_argument);
  EXPECT_THROW(tree.insert(0, v, 1.5), std::invalid_argument);
  const double inf = std::numeric_limits<double>::infinity();
  const std::array<double, 2> nan = {std::nan(""), 2.0};
  const std::array<double, 2> infinite = {1.0, -inf};
  EXPECT_THROW(tree.insert(0, nan, 0.5), std::invalid_argument);
  EXPECT_THROW(tree.insert(0, infinite, 0.5), std::invalid_argument);
  EXPECT_EQ(tree.size(), 0u);
}

TEST(PRTreeTest, InsertSurvivesOverflowingGeometry) {
  // Finite coordinates near the double range overflow node areas and
  // margins to inf or NaN, so no child compares as needing the least
  // enlargement and no split axis as having the least margin.  Every insert
  // must still land.
  PRTree tree(2);
  for (TupleId id = 0; id < 64; ++id) {
    const double huge = (id % 2 == 0 ? -1e307 : 1e307) * double(id % 7 + 1);
    const std::array<double, 2> v = {id % 3 == 0 ? huge : 0.5 + 1e-3 * id,
                                      id % 5 == 0 ? -huge : 0.5};
    tree.insert(id, v, 0.5);
  }
  EXPECT_EQ(tree.size(), 64u);
  tree.checkInvariants();
}

TEST(PRTreeTest, NodeProbabilityAggregatesMatchPaperExample) {
  // Fig. 5: entries with probabilities 0.6, 0.4, 0.2 give P1=0.2, P2=0.6.
  Dataset data(2);
  const std::array<double, 2> a = {1.0, 1.0};
  const std::array<double, 2> b = {2.0, 2.0};
  const std::array<double, 2> c = {3.0, 3.0};
  data.add(a, 0.6);
  data.add(b, 0.4);
  data.add(c, 0.2);
  const PRTree tree = PRTree::bulkLoad(data);
  EXPECT_DOUBLE_EQ(tree.root().pMin(), 0.2);
  EXPECT_DOUBLE_EQ(tree.root().pMax(), 0.6);
  EXPECT_NEAR(tree.root().survival(), 0.4 * 0.6 * 0.8, 1e-12);
  EXPECT_EQ(tree.root().count(), 3u);
}

struct TreeCase {
  std::size_t n;
  std::size_t dims;
  ValueDistribution dist;
  std::uint64_t seed;
};

class PRTreeParamTest : public ::testing::TestWithParam<TreeCase> {
 protected:
  Dataset makeData() const {
    const TreeCase& c = GetParam();
    return generateSynthetic(SyntheticSpec{c.n, c.dims, c.dist, c.seed});
  }
};

TEST_P(PRTreeParamTest, BulkLoadInvariantsHold) {
  const Dataset data = makeData();
  const PRTree tree = PRTree::bulkLoad(data);
  EXPECT_EQ(tree.size(), data.size());
  tree.checkInvariants();
}

TEST_P(PRTreeParamTest, BulkLoadContainsEveryTuple) {
  const Dataset data = makeData();
  const PRTree tree = PRTree::bulkLoad(data);
  std::vector<TupleId> ids;
  tree.forEach([&](const PRTree::LeafEntry& e) { ids.push_back(e.id); });
  std::sort(ids.begin(), ids.end());
  std::vector<TupleId> expected;
  for (std::size_t row = 0; row < data.size(); ++row) {
    expected.push_back(data.id(row));
  }
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(ids, expected);
}

TEST_P(PRTreeParamTest, DominanceSurvivalMatchesBruteForce) {
  const Dataset data = makeData();
  const PRTree tree = PRTree::bulkLoad(data);
  const DimMask mask = fullMask(data.dims());
  Rng rng(GetParam().seed + 99);
  for (int probe = 0; probe < 50; ++probe) {
    // Mix of random space points and actual data points.
    std::vector<double> b(data.dims());
    if (probe % 2 == 0) {
      for (auto& x : b) x = rng.uniform();
    } else {
      const auto row = rng.below(data.size());
      const auto v = data.values(row);
      b.assign(v.begin(), v.end());
    }
    EXPECT_NEAR(tree.dominanceSurvival(b, mask), bruteSurvival(data, b, mask),
                1e-9);
  }
}

TEST_P(PRTreeParamTest, BatchedSurvivalIsBitIdenticalToSinglePoint) {
  const Dataset data = makeData();
  const std::size_t dims = data.dims();
  // A small fanout makes the tree tall, so groups split at many levels;
  // the incrementally grown tree has overlapping MBRs as well.
  PRTree grown(dims, {.maxEntries = 6, .minEntries = 2});
  for (std::size_t row = 0; row < data.size(); ++row) {
    grown.insert(data.id(row), data.values(row), data.prob(row));
  }
  const PRTree packed = PRTree::bulkLoad(data);
  Rng rng(GetParam().seed + 7);
  for (int trial = 0; trial < 40; ++trial) {
    // Group sizes cross the 64-point batch boundary; points are a mix of
    // stored tuples (exact ties with dominators) and random space points,
    // some of them in a tight cluster like a leaf's entries.
    const std::size_t n = 1 + rng.below(150);
    std::vector<double> points;
    const double spread = trial % 2 == 0 ? 1.0 : 0.05;
    const double base = rng.uniform(0.0, 1.0 - spread);
    for (std::size_t i = 0; i < n; ++i) {
      if (rng.below(3) == 0) {
        const auto v = data.values(rng.below(data.size()));
        points.insert(points.end(), v.begin(), v.end());
      } else {
        for (std::size_t j = 0; j < dims; ++j) {
          points.push_back(base + spread * rng.uniform());
        }
      }
    }
    const DimMask mask =
        static_cast<DimMask>(1 + rng.below(fullMask(dims)));
    std::optional<Rect> clip;
    if (trial % 3 != 0) {
      clip.emplace(dims);
      for (int corner = 0; corner < 2; ++corner) {
        std::vector<double> p(dims);
        for (double& x : p) x = rng.uniform();
        clip->expand(p);
      }
    }
    const Rect* window = clip ? &*clip : nullptr;
    for (const PRTree* tree : std::array<const PRTree*, 2>{&packed, &grown}) {
      std::vector<double> batched(n);
      tree->dominanceSurvival(points, mask, window, batched);
      for (std::size_t i = 0; i < n; ++i) {
        const std::span<const double> b(points.data() + i * dims, dims);
        EXPECT_EQ(batched[i], tree->dominanceSurvival(b, mask, window))
            << "trial " << trial << " point " << i << " mask " << mask;
      }
    }
  }
}

TEST(PRTreeTest, BatchedSurvivalOnEmptyTreeAndBadDims) {
  const PRTree tree(2);
  const std::vector<double> points = {0.5, 0.5, 0.1, 0.2};
  std::vector<double> out(2, 0.0);
  tree.dominanceSurvival(points, fullMask(2), nullptr, out);
  EXPECT_EQ(out, (std::vector<double>{1.0, 1.0}));
  std::vector<double> three(3);
  EXPECT_THROW(tree.dominanceSurvival(points, fullMask(2), nullptr, three),
               std::invalid_argument);
}

TEST_P(PRTreeParamTest, ForEachDominatingMatchesBruteForce) {
  const Dataset data = makeData();
  const PRTree tree = PRTree::bulkLoad(data);
  const DimMask mask = fullMask(data.dims());
  Rng rng(GetParam().seed + 7);
  for (int probe = 0; probe < 10; ++probe) {
    std::vector<double> b(data.dims());
    for (auto& x : b) x = rng.uniform();
    std::vector<TupleId> got;
    tree.forEachDominating(b, mask, [&](const PRTree::LeafEntry& e) {
      got.push_back(e.id);
    });
    std::sort(got.begin(), got.end());
    std::vector<TupleId> expected;
    for (std::size_t row = 0; row < data.size(); ++row) {
      if (dominates(data.values(row), b, mask)) {
        expected.push_back(data.id(row));
      }
    }
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(got, expected);
  }
}

TEST_P(PRTreeParamTest, WindowQueryMatchesBruteForce) {
  const Dataset data = makeData();
  const PRTree tree = PRTree::bulkLoad(data);
  Rng rng(GetParam().seed + 3);
  for (int probe = 0; probe < 10; ++probe) {
    Rect window(data.dims());
    std::vector<double> p(data.dims());
    std::vector<double> q(data.dims());
    for (std::size_t j = 0; j < data.dims(); ++j) {
      p[j] = rng.uniform();
      q[j] = rng.uniform();
    }
    window.expand(p);
    window.expand(q);
    std::vector<TupleId> got;
    tree.windowQuery(window, [&](const PRTree::LeafEntry& e) {
      got.push_back(e.id);
    });
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, bruteWindow(data, window));
  }
}

TEST_P(PRTreeParamTest, IncrementalInsertMatchesBulkLoad) {
  const Dataset data = makeData();
  PRTree tree(data.dims());
  for (std::size_t row = 0; row < data.size(); ++row) {
    tree.insert(data.id(row), data.values(row), data.prob(row));
  }
  EXPECT_EQ(tree.size(), data.size());
  tree.checkInvariants();

  const DimMask mask = fullMask(data.dims());
  Rng rng(GetParam().seed + 13);
  for (int probe = 0; probe < 20; ++probe) {
    std::vector<double> b(data.dims());
    for (auto& x : b) x = rng.uniform();
    EXPECT_NEAR(tree.dominanceSurvival(b, mask), bruteSurvival(data, b, mask),
                1e-9);
  }
}

TEST_P(PRTreeParamTest, EraseHalfThenQueriesStayExact) {
  Dataset data = makeData();
  PRTree tree = PRTree::bulkLoad(data);
  Rng rng(GetParam().seed + 17);

  // Remove a random half.
  std::vector<TupleId> ids;
  for (std::size_t row = 0; row < data.size(); ++row) {
    ids.push_back(data.id(row));
  }
  for (std::size_t i = ids.size(); i > 1; --i) {
    std::swap(ids[i - 1], ids[rng.below(i)]);
  }
  ids.resize(ids.size() / 2);
  for (const TupleId id : ids) {
    const auto row = data.rowOf(id);
    ASSERT_TRUE(row.has_value());
    std::vector<double> values(data.values(*row).begin(),
                               data.values(*row).end());
    ASSERT_TRUE(tree.erase(id, values));
    data.eraseId(id);
  }
  EXPECT_EQ(tree.size(), data.size());
  tree.checkInvariants();

  const DimMask mask = fullMask(data.dims());
  for (int probe = 0; probe < 20; ++probe) {
    std::vector<double> b(data.dims());
    for (auto& x : b) x = rng.uniform();
    EXPECT_NEAR(tree.dominanceSurvival(b, mask), bruteSurvival(data, b, mask),
                1e-9);
  }
}

TEST_P(PRTreeParamTest, EraseEverythingEmptiesTree) {
  const Dataset data = makeData();
  PRTree tree = PRTree::bulkLoad(data);
  for (std::size_t row = 0; row < data.size(); ++row) {
    std::vector<double> values(data.values(row).begin(),
                               data.values(row).end());
    ASSERT_TRUE(tree.erase(data.id(row), values));
    if (row % 64 == 0) tree.checkInvariants();
  }
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.height(), 0u);
  tree.checkInvariants();
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PRTreeParamTest,
    ::testing::Values(
        TreeCase{1, 2, ValueDistribution::kIndependent, 1},
        TreeCase{33, 2, ValueDistribution::kIndependent, 2},   // > one leaf
        TreeCase{500, 2, ValueDistribution::kIndependent, 3},
        TreeCase{500, 3, ValueDistribution::kAnticorrelated, 4},
        TreeCase{500, 4, ValueDistribution::kCorrelated, 5},
        TreeCase{2000, 2, ValueDistribution::kAnticorrelated, 6},
        TreeCase{2000, 5, ValueDistribution::kIndependent, 7},
        TreeCase{5000, 3, ValueDistribution::kIndependent, 8}),
    [](const ::testing::TestParamInfo<TreeCase>& info) {
      const TreeCase& c = info.param;
      return "n" + std::to_string(c.n) + "_d" + std::to_string(c.dims) + "_" +
             distributionName(c.dist);
    });

TEST(PRTreeTest, EraseMissingReturnsFalse) {
  Dataset data = generateSynthetic(
      SyntheticSpec{100, 2, ValueDistribution::kIndependent, 9});
  PRTree tree = PRTree::bulkLoad(data);
  const std::array<double, 2> nowhere = {5.0, 5.0};
  EXPECT_FALSE(tree.erase(12345, nowhere));
  // Right id, wrong location: also a miss.
  std::vector<double> v(data.values(0).begin(), data.values(0).end());
  v[0] += 10.0;
  EXPECT_FALSE(tree.erase(data.id(0), v));
  EXPECT_EQ(tree.size(), data.size());
}

TEST(PRTreeTest, DuplicateCoordinatesDistinctIds) {
  PRTree tree(2);
  const std::array<double, 2> v = {0.5, 0.5};
  tree.insert(1, v, 0.5);
  tree.insert(2, v, 0.25);
  // Duplicates do not dominate each other: survival above them includes
  // both, at the point itself neither counts.
  const std::array<double, 2> above = {0.6, 0.6};
  EXPECT_NEAR(tree.dominanceSurvival(above), 0.5 * 0.75, 1e-12);
  EXPECT_DOUBLE_EQ(tree.dominanceSurvival(v), 1.0);
  // Erase selects by id.
  EXPECT_TRUE(tree.erase(1, v));
  EXPECT_NEAR(tree.dominanceSurvival(above), 0.75, 1e-12);
}

TEST(PRTreeTest, ProbabilityOneTupleZeroesSurvival) {
  PRTree tree(2);
  const std::array<double, 2> v = {0.1, 0.1};
  tree.insert(0, v, 1.0);
  const std::array<double, 2> above = {0.2, 0.2};
  EXPECT_EQ(tree.dominanceSurvival(above), 0.0);
  tree.checkInvariants();
}

TEST(PRTreeTest, SubspaceSurvivalUsesMaskOnly) {
  PRTree tree(3);
  const std::array<double, 3> a = {0.1, 0.9, 0.1};
  tree.insert(0, a, 0.5);
  const std::array<double, 3> b = {0.2, 0.2, 0.2};
  EXPECT_DOUBLE_EQ(tree.dominanceSurvival(b), 1.0);  // full space: no dom
  EXPECT_DOUBLE_EQ(tree.dominanceSurvival(b, DimMask{0b101}), 0.5);
}

TEST(PRTreeTest, MixedInsertEraseWorkloadKeepsInvariants) {
  Rng rng(77);
  PRTree tree(3);
  Dataset shadow(3);
  TupleId next = 0;
  for (int step = 0; step < 3000; ++step) {
    const bool doInsert = shadow.empty() || rng.uniform() < 0.6;
    if (doInsert) {
      std::array<double, 3> v{};
      for (auto& x : v) x = rng.uniform();
      const double p = rng.existentialUniform();
      tree.insert(next, v, p);
      shadow.add(next, v, p);
      ++next;
    } else {
      const std::size_t row = rng.below(shadow.size());
      std::vector<double> v(shadow.values(row).begin(),
                            shadow.values(row).end());
      ASSERT_TRUE(tree.erase(shadow.id(row), v));
      shadow.eraseRow(row);
    }
    if (step % 250 == 0) tree.checkInvariants();
  }
  tree.checkInvariants();
  EXPECT_EQ(tree.size(), shadow.size());

  const DimMask mask = fullMask(3);
  for (int probe = 0; probe < 30; ++probe) {
    std::array<double, 3> b{};
    for (auto& x : b) x = rng.uniform();
    EXPECT_NEAR(tree.dominanceSurvival(b, mask),
                bruteSurvival(shadow, b, mask), 1e-9);
  }
}

TEST(PRTreeTest, BulkLoadHeightIsLogarithmic) {
  const Dataset data = generateSynthetic(
      SyntheticSpec{10000, 2, ValueDistribution::kIndependent, 10});
  const PRTree tree = PRTree::bulkLoad(data);
  // 10000 tuples at fanout 32: 313 leaves, ~3 levels.
  EXPECT_LE(tree.height(), 4u);
  EXPECT_GE(tree.height(), 3u);
}

TEST(PRTreeTest, ClearResetsEverything) {
  Dataset data = generateSynthetic(
      SyntheticSpec{100, 2, ValueDistribution::kIndependent, 11});
  PRTree tree = PRTree::bulkLoad(data);
  tree.clear();
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.height(), 0u);
  tree.checkInvariants();
  // Reusable after clear.
  const std::array<double, 2> v = {0.5, 0.5};
  tree.insert(0, v, 0.5);
  EXPECT_EQ(tree.size(), 1u);
}

}  // namespace
}  // namespace dsud
