// Parity suite for the SIMD kernel backend (ISSUE 7): the AVX2 and scalar
// implementations must return *bit-identical* results — same dominance
// verdicts, same survival products, same P_sky vectors down to the last ulp —
// across dimensionalities, subspace masks, duplicate rows, and probability
// edge cases (0, 1, denormal-adjacent).  Anything weaker would make query
// answers depend on the build flags of the machine that served them.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/dataset.hpp"
#include "common/rng.hpp"
#include "geometry/dominance.hpp"
#include "kernel/kernel.hpp"
#include "skyline/linear_skyline.hpp"
#include "test_util.hpp"

namespace dsud {
namespace {

using kernel::Backend;
using kernel::SoaBlock;

SoaBlock blockOf(const DatasetView& view) {
  return SoaBlock{view.cols(),       view.prob(), view.logSurv(),
                  view.size(),       view.paddedSize(),
                  view.dims()};
}

// Bitwise equality that treats NaN payloads and signed zeros as distinct —
// the contract is "same bits", not "same value".
::testing::AssertionResult bitEqual(double a, double b) {
  if (std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << std::hexfloat << a << " != " << b << " (bitwise)";
}

// A dataset exercising the hard cases: values drawn from a coarse integer
// grid (forcing exact ties and duplicate rows) mixed with continuous draws,
// probabilities spanning {0, 1, denormal-adjacent, ordinary}.
Dataset awkwardDataset(std::size_t dims, std::size_t n, Rng& rng) {
  Dataset data(dims);
  std::vector<double> values(dims);
  for (std::size_t i = 0; i < n; ++i) {
    const bool grid = rng.uniform() < 0.5;
    for (std::size_t d = 0; d < dims; ++d) {
      values[d] = grid ? std::floor(rng.uniform(0.0, 4.0))
                       : rng.uniform(0.0, 10.0);
    }
    // Dataset::add requires prob in (0, 1]; exact 0 only exists in padding
    // slots, which the padding test below covers.
    double prob;
    switch (static_cast<int>(rng.uniform(0.0, 6.0))) {
      case 0: prob = 5e-324; break;                // smallest denormal
      case 1: prob = 1.0; break;
      case 2: prob = 1e-300; break;                // denormal-adjacent
      case 3: prob = 1.0 - 1e-16; break;           // survival underflow bait
      default: prob = rng.uniform(0.01, 0.99); break;
    }
    data.add(values, prob);
    if (grid && rng.uniform() < 0.25) data.add(values, prob);  // exact dup
  }
  return data;
}

// Every subspace mask worth checking for `dims`: full, each singleton, and a
// couple of random multi-dimension subsets.
std::vector<DimMask> masksFor(std::size_t dims, Rng& rng) {
  std::vector<DimMask> masks{fullMask(dims)};
  for (std::size_t d = 0; d < dims; ++d) masks.push_back(DimMask{1} << d);
  for (int k = 0; k < 2; ++k) {
    const DimMask m = static_cast<DimMask>(rng.uniform(1.0, double(fullMask(dims))));
    masks.push_back(m == 0 ? fullMask(dims) : m);
  }
  return masks;
}

TEST(KernelParityTest, BackendStatusIsConsistent) {
  if (kernel::simdAvailable()) {
    EXPECT_TRUE(kernel::simdCompiled());
    EXPECT_EQ(kernel::activeBackend(), Backend::kSimd);
    EXPECT_STREQ(kernel::backendName(), "avx2");
    EXPECT_NE(kernel::detail::simdBlockSurvival(), nullptr);
    EXPECT_NE(kernel::detail::simdBlockDominators(), nullptr);
    EXPECT_NE(kernel::detail::simdSurvivalExponents(), nullptr);
  } else {
    EXPECT_EQ(kernel::activeBackend(), Backend::kScalar);
    EXPECT_STREQ(kernel::backendName(), "scalar");
  }
}

// The scalar kernel must agree with the O(dims) reference predicate from
// geometry/ — run regardless of whether SIMD is compiled in.
TEST(KernelParityTest, ScalarDominatorsMatchReferencePredicate) {
  Rng rng(9001);
  for (std::size_t dims = 2; dims <= 8; ++dims) {
    const Dataset data = awkwardDataset(dims, 24, rng);
    const DatasetView view(data);
    const SoaBlock block = blockOf(view);
    for (DimMask mask : masksFor(dims, rng)) {
      for (std::size_t qi = 0; qi < data.size(); ++qi) {
        const std::uint64_t got = kernel::blockDominators(
            block, data.at(qi).values.data(), mask, Backend::kScalar);
        for (std::size_t row = 0; row < data.size() && row < 64; ++row) {
          const bool expected =
              dominates(data.at(row).values, data.at(qi).values, mask);
          EXPECT_EQ(((got >> row) & 1) != 0, expected)
              << "dims=" << dims << " mask=" << mask << " row=" << row
              << " q=" << qi;
        }
      }
    }
  }
}

TEST(KernelParityTest, DominatorVerdictsBitIdentical) {
  if (!kernel::simdAvailable()) GTEST_SKIP() << "AVX2 backend not active";
  Rng rng(42);
  for (std::size_t dims = 2; dims <= 8; ++dims) {
    const Dataset data = awkwardDataset(dims, 28, rng);
    const DatasetView view(data);
    const SoaBlock block = blockOf(view);
    for (DimMask mask : masksFor(dims, rng)) {
      for (std::size_t qi = 0; qi < data.size(); ++qi) {
        const double* q = data.at(qi).values.data();
        EXPECT_EQ(kernel::blockDominators(block, q, mask, Backend::kScalar),
                  kernel::blockDominators(block, q, mask, Backend::kSimd))
            << "dims=" << dims << " mask=" << mask << " q=" << qi;
      }
    }
  }
}

// Every query point of the data as one group (several AVX2 accumulator
// passes), on both backends, and each point alone on the AVX2 backend: a
// point's product must not depend on the backend or on its group.
TEST(KernelParityTest, BlockSurvivalBitIdentical) {
  if (!kernel::simdAvailable()) GTEST_SKIP() << "AVX2 backend not active";
  Rng rng(1729);
  for (std::size_t dims = 2; dims <= 8; ++dims) {
    const Dataset data = awkwardDataset(dims, 32, rng);
    const DatasetView view(data);
    const SoaBlock block = blockOf(view);
    // A clip window covering roughly the lower half of value space.
    std::vector<double> lo(dims, 0.0), hi(dims);
    for (std::size_t d = 0; d < dims; ++d) hi[d] = rng.uniform(2.0, 8.0);
    std::vector<const double*> group;
    for (std::size_t qi = 0; qi < data.size(); ++qi) {
      group.push_back(data.at(qi).values.data());
    }
    const std::size_t n = group.size();
    for (DimMask mask : masksFor(dims, rng)) {
      for (const bool clipped : {false, true}) {
        const double* clipLo = clipped ? lo.data() : nullptr;
        const double* clipHi = clipped ? hi.data() : nullptr;
        std::vector<double> scalar(n), simd(n);
        kernel::blockSurvival(block, group.data(), n, mask, clipLo, clipHi,
                              scalar.data(), Backend::kScalar);
        kernel::blockSurvival(block, group.data(), n, mask, clipLo, clipHi,
                              simd.data(), Backend::kSimd);
        for (std::size_t qi = 0; qi < n; ++qi) {
          double alone = -1.0;
          kernel::blockSurvival(block, &group[qi], 1, mask, clipLo, clipHi,
                                &alone, Backend::kSimd);
          EXPECT_TRUE(bitEqual(scalar[qi], simd[qi]))
              << "dims=" << dims << " mask=" << mask << " q=" << qi
              << " clipped=" << clipped;
          EXPECT_TRUE(bitEqual(alone, simd[qi]))
              << "dims=" << dims << " mask=" << mask << " q=" << qi
              << " clipped=" << clipped;
        }
      }
    }
  }
}

TEST(KernelParityTest, SurvivalExponentsBitIdentical) {
  if (!kernel::simdAvailable()) GTEST_SKIP() << "AVX2 backend not active";
  Rng rng(271828);
  for (std::size_t dims = 2; dims <= 8; ++dims) {
    const Dataset data = awkwardDataset(dims, 40, rng);
    const DatasetView view(data);
    const SoaBlock block = blockOf(view);
    std::vector<double> scalar(data.size()), simd(data.size());
    for (DimMask mask : masksFor(dims, rng)) {
      kernel::survivalExponents(block, mask, scalar.data(), Backend::kScalar);
      kernel::survivalExponents(block, mask, simd.data(), Backend::kSimd);
      for (std::size_t i = 0; i < data.size(); ++i) {
        EXPECT_TRUE(bitEqual(scalar[i], simd[i]))
            << "dims=" << dims << " mask=" << mask << " row=" << i;
      }
    }
  }
}

// End-to-end: the full P_sky vector a query would return must not depend on
// the backend.  (linearSkyline runs kAuto internally; recompute both ways.)
TEST(KernelParityTest, PskyVectorsBitIdentical) {
  if (!kernel::simdAvailable()) GTEST_SKIP() << "AVX2 backend not active";
  Rng rng(31337);
  for (std::size_t dims = 2; dims <= 6; ++dims) {
    const Dataset data = awkwardDataset(dims, 48, rng);
    const DatasetView view(data);
    const SoaBlock block = blockOf(view);
    std::vector<double> expScalar(data.size()), expSimd(data.size());
    kernel::survivalExponents(block, fullMask(dims), expScalar.data(),
                              Backend::kScalar);
    kernel::survivalExponents(block, fullMask(dims), expSimd.data(),
                              Backend::kSimd);
    const auto fromLibrary = skylineProbabilitiesLinear(data);
    ASSERT_EQ(fromLibrary.size(), data.size());
    for (std::size_t i = 0; i < data.size(); ++i) {
      const double pScalar = data.prob(i) * std::exp(expScalar[i]);
      const double pSimd = data.prob(i) * std::exp(expSimd[i]);
      EXPECT_TRUE(bitEqual(pScalar, pSimd)) << "dims=" << dims << " i=" << i;
      EXPECT_TRUE(bitEqual(fromLibrary[i], pSimd))
          << "dims=" << dims << " i=" << i;
    }
  }
}

// Probability edge rows behave exactly: P == 1 dominators force survival to
// 0 (log -inf), denormal-P dominators are near-no-ops with exact arithmetic,
// and a padded tail (P == 0 by construction) never leaks into any verdict or
// product.
TEST(KernelParityTest, EdgeProbabilitiesAndPadding) {
  const Dataset data = testutil::makeDataset(2, {
                                                    {1.0, 1.0, 1.0},
                                                    {2.0, 2.0, 5e-324},
                                                    {3.0, 3.0, 0.5},
                                                });
  const DatasetView view(data);
  const SoaBlock block = blockOf(view);
  ASSERT_EQ(view.paddedSize() % kernel::kBlock, 0u);
  ASSERT_GT(view.paddedSize(), view.size());
  const double probe[2] = {4.0, 4.0};
  for (Backend be : {Backend::kScalar, Backend::kAuto}) {
    // Dominators: rows 0..2 all dominate (4,4); padding rows must not.
    EXPECT_EQ(kernel::blockDominators(block, probe, fullMask(2), be),
              std::uint64_t{0b111});
    // Survival: (1-1)·(1-0)·(1-0.5) == exactly 0.
    const double* q = probe;
    double survival = -1.0;
    kernel::blockSurvival(block, &q, 1, fullMask(2), nullptr, nullptr,
                          &survival, be);
    EXPECT_TRUE(bitEqual(survival, 0.0));
  }
  std::vector<double> exps(data.size());
  kernel::survivalExponents(block, fullMask(2), exps.data(), Backend::kScalar);
  EXPECT_TRUE(bitEqual(exps[0], 0.0));  // nothing dominates row 0
  EXPECT_EQ(exps[1], -std::numeric_limits<double>::infinity());  // P==1 above
  EXPECT_EQ(exps[2], -std::numeric_limits<double>::infinity());
}

}  // namespace
}  // namespace dsud
