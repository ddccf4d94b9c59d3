#include "common/dataset.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace dsud {
namespace {

TEST(DatasetTest, StartsEmpty) {
  Dataset data(3);
  EXPECT_EQ(data.dims(), 3u);
  EXPECT_EQ(data.size(), 0u);
  EXPECT_TRUE(data.empty());
}

TEST(DatasetTest, RejectsZeroDimensions) {
  EXPECT_THROW(Dataset(0), std::invalid_argument);
}

TEST(DatasetTest, AddAssignsSequentialIds) {
  Dataset data(2);
  const std::array<double, 2> v = {1.0, 2.0};
  EXPECT_EQ(data.add(v, 0.5), 0u);
  EXPECT_EQ(data.add(v, 0.5), 1u);
  EXPECT_EQ(data.id(0), 0u);
  EXPECT_EQ(data.id(1), 1u);
}

TEST(DatasetTest, AddWithExplicitIdAdvancesSequence) {
  Dataset data(1);
  const std::array<double, 1> v = {0.0};
  data.add(100, v, 1.0);
  data.add(v, 1.0);  // auto id continues after the explicit one
  EXPECT_EQ(data.id(1), 101u);
}

TEST(DatasetTest, RejectsDuplicateIds) {
  Dataset data(1);
  const std::array<double, 1> v = {0.0};
  data.add(5, v, 1.0);
  EXPECT_THROW(data.add(5, v, 1.0), std::invalid_argument);
}

TEST(DatasetTest, RejectsDimensionMismatch) {
  Dataset data(3);
  const std::array<double, 2> v = {1.0, 2.0};
  EXPECT_THROW(data.add(v, 0.5), std::invalid_argument);
}

TEST(DatasetTest, RejectsOutOfRangeProbability) {
  Dataset data(1);
  const std::array<double, 1> v = {0.0};
  EXPECT_THROW(data.add(v, 0.0), std::invalid_argument);
  EXPECT_THROW(data.add(v, -0.1), std::invalid_argument);
  EXPECT_THROW(data.add(v, 1.5), std::invalid_argument);
}

TEST(DatasetTest, RejectsNonFiniteCoordinates) {
  Dataset data(2);
  const std::array<double, 2> nan = {std::nan(""), 2.0};
  const std::array<double, 2> inf = {1.0,
                                     -std::numeric_limits<double>::infinity()};
  EXPECT_THROW(data.add(nan, 0.5), std::invalid_argument);
  EXPECT_THROW(data.add(inf, 0.5), std::invalid_argument);
  EXPECT_TRUE(data.empty());
}

TEST(DatasetTest, AcceptsProbabilityOne) {
  Dataset data(1);
  const std::array<double, 1> v = {0.0};
  data.add(v, 1.0);
  EXPECT_EQ(data.prob(0), 1.0);
}

TEST(DatasetTest, ValuesRoundTrip) {
  Dataset data(3);
  const std::array<double, 3> v = {1.5, -2.5, 3.25};
  data.add(v, 0.75);
  const auto stored = data.values(0);
  EXPECT_EQ(stored[0], 1.5);
  EXPECT_EQ(stored[1], -2.5);
  EXPECT_EQ(stored[2], 3.25);
  EXPECT_EQ(data.prob(0), 0.75);
}

TEST(DatasetTest, AtReturnsConsistentView) {
  Dataset data(2);
  const std::array<double, 2> v = {9.0, 8.0};
  data.add(77, v, 0.25);
  const TupleRef ref = data.at(0);
  EXPECT_EQ(ref.id, 77u);
  EXPECT_EQ(ref.prob, 0.25);
  EXPECT_EQ(ref.values[1], 8.0);
}

TEST(DatasetTest, TupleCopiesOutOfStorage) {
  Dataset data(2);
  const std::array<double, 2> v = {4.0, 5.0};
  data.add(3, v, 0.5);
  const Tuple t = data.tuple(0);
  EXPECT_EQ(t.id, 3u);
  EXPECT_EQ(t.values, (std::vector<double>{4.0, 5.0}));
}

TEST(DatasetTest, RowOfFindsAndMisses) {
  Dataset data(1);
  const std::array<double, 1> v = {0.0};
  data.add(10, v, 1.0);
  data.add(20, v, 1.0);
  EXPECT_EQ(data.rowOf(20), 1u);
  EXPECT_EQ(data.rowOf(99), std::nullopt);
}

TEST(DatasetTest, EraseRowSwapsLastIntoPlace) {
  Dataset data(1);
  for (double x : {1.0, 2.0, 3.0}) {
    const std::array<double, 1> v = {x};
    data.add(v, 0.5);
  }
  data.eraseRow(0);
  EXPECT_EQ(data.size(), 2u);
  EXPECT_EQ(data.values(0)[0], 3.0);  // last row moved into slot 0
  EXPECT_EQ(data.rowOf(2), 0u);
  EXPECT_EQ(data.rowOf(0), std::nullopt);
}

TEST(DatasetTest, EraseLastRowNeedsNoSwap) {
  Dataset data(1);
  const std::array<double, 1> a = {1.0};
  const std::array<double, 1> b = {2.0};
  data.add(a, 0.5);
  data.add(b, 0.5);
  data.eraseRow(1);
  EXPECT_EQ(data.size(), 1u);
  EXPECT_EQ(data.values(0)[0], 1.0);
}

TEST(DatasetTest, EraseRowOutOfRangeThrows) {
  Dataset data(1);
  EXPECT_THROW(data.eraseRow(0), std::out_of_range);
}

TEST(DatasetTest, EraseIdReportsPresence) {
  Dataset data(1);
  const std::array<double, 1> v = {1.0};
  data.add(5, v, 0.5);
  EXPECT_TRUE(data.eraseId(5));
  EXPECT_FALSE(data.eraseId(5));
  EXPECT_TRUE(data.empty());
}

TEST(DatasetTest, IdReusableAfterErase) {
  Dataset data(1);
  const std::array<double, 1> v = {1.0};
  data.add(5, v, 0.5);
  data.eraseId(5);
  data.add(5, v, 0.75);
  EXPECT_EQ(data.prob(*data.rowOf(5)), 0.75);
}

TEST(DatasetTest, ManyErasesKeepIndexConsistent) {
  Dataset data(2);
  for (int i = 0; i < 100; ++i) {
    const std::array<double, 2> v = {double(i), double(100 - i)};
    data.add(v, 0.5);
  }
  for (TupleId id = 0; id < 100; id += 2) data.eraseId(id);
  EXPECT_EQ(data.size(), 50u);
  for (TupleId id = 1; id < 100; id += 2) {
    const auto row = data.rowOf(id);
    ASSERT_TRUE(row.has_value());
    EXPECT_EQ(data.id(*row), id);
    EXPECT_EQ(data.values(*row)[0], double(id));
  }
}

}  // namespace
}  // namespace dsud
