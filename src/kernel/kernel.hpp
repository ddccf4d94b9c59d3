// Hot-path kernels: blocked Pareto dominance and survival-product
// accumulation over structure-of-arrays tuple blocks.
//
// Every algorithm in the library (linear scan, BBS, DSUD/e-DSUD site phases,
// update maintenance) bottoms out in two inner loops — "does tuple a dominate
// point b?" and "Π (1 − P) over the dominators of b" — so they live here
// once, in a layout both a scalar and an AVX2 backend can execute
// *bit-identically*:
//
//   * rows are processed in blocks of kBlock = 4 (one AVX2 vector of
//     doubles), each block lane carrying its own accumulator;
//   * the four lane accumulators are reduced in the fixed tree order
//     (l0 ⊕ l1) ⊕ (l2 ⊕ l3);
//   * survival products are accumulated either in probability space
//     (multiplying 1 − P, mirroring the PR-tree's cached node aggregates) or
//     in log space (summing precomputed log1p(−P), immune to underflow at
//     large dominator counts), with one scalar std::exp at the end.
//
// Dominance comparisons are exact predicates and the per-lane arithmetic is
// identical instruction-for-instruction in both backends, so a DSUD_SIMD=ON
// and a DSUD_SIMD=OFF build return bit-identical query results — the parity
// suite (tests/kernel_parity_test.cpp) enforces this.
//
// Dispatch is compile-time gated and runtime selected: the AVX2 backend is
// compiled only when the DSUD_SIMD CMake option is ON (kernel_avx2.cpp is
// built with -mavx2) and is picked at startup only when the CPU reports AVX2
// support; otherwise every call runs the scalar mirror.
#pragma once

#include <cstddef>
#include <cstdint>

#include "geometry/dominance.hpp"

namespace dsud::kernel {

/// Rows per block: one AVX2 vector of doubles.  Matches DatasetView::kBlock.
inline constexpr std::size_t kBlock = 4;

/// A structure-of-arrays tuple block: d contiguous value columns plus the
/// probability and log-survival columns, padded to a kBlock multiple.
/// Padding rows must never dominate (coordinates +inf) and must be neutral
/// under accumulation (prob 0, logSurv 0) — DatasetView and the PR-tree leaf
/// layout both guarantee this.
struct SoaBlock {
  const double* const* cols = nullptr;  ///< dims column pointers
  const double* prob = nullptr;         ///< P(t) per row (padding: 0)
  const double* logSurv = nullptr;      ///< log1p(-P(t)) per row (padding: 0)
  std::size_t n = 0;                    ///< logical rows
  std::size_t padded = 0;               ///< n rounded up to kBlock
  std::size_t dims = 0;
};

/// Which implementation executes a kernel call.
enum class Backend {
  kScalar,  ///< blocked scalar mirror (always available)
  kSimd,    ///< AVX2 (only when compiled in AND the CPU supports it)
  kAuto,    ///< kSimd when available, else kScalar
};

/// True when the AVX2 backend was compiled in (DSUD_SIMD=ON).
bool simdCompiled() noexcept;
/// True when the AVX2 backend is compiled in and this CPU can run it.
bool simdAvailable() noexcept;
/// The backend kAuto resolves to.
Backend activeBackend() noexcept;
/// "avx2" or "scalar" — for logs, benches, and /metrics labels.
const char* backendName() noexcept;

/// Survival product Π (1 − P(t)) over every row of `b` that dominates point
/// `q[k]` on the selected dimensions, written to out[k] for each of the `n`
/// points, accumulated in probability space (the PR-tree aggregate
/// convention).  `clipLo`/`clipHi` (both null or both non-null, `dims`
/// entries) restrict the product to rows inside the closed box
/// [clipLo, clipHi].  Each kBlock of rows is loaded once for all the points,
/// so a group resolved against the same rows (a PR-tree leaf) costs one
/// pass; each point's result does not depend on the rest of the group.
void blockSurvival(const SoaBlock& b, const double* const* q, std::size_t n,
                   DimMask mask, const double* clipLo, const double* clipHi,
                   double* out, Backend backend = Backend::kAuto) noexcept;

/// Bitmask of the rows of `b` (bit i = row i, n <= 64) dominating point `q`
/// on the selected dimensions.
std::uint64_t blockDominators(const SoaBlock& b, const double* q, DimMask mask,
                              Backend backend = Backend::kAuto) noexcept;

/// out[i] = Σ_{j ≺ i} log1p(−P(j)) for every row i in [0, n): the log-space
/// survival exponent of each row against the whole block (self-pairs are
/// irreflexively excluded by strict dominance).  Apply std::exp and the
/// candidate's own P(t) to obtain P_sky.  O(n²/kBlock) block sweeps.
void survivalExponents(const SoaBlock& b, DimMask mask, double* out,
                       Backend backend = Backend::kAuto) noexcept;

namespace detail {
// Scalar mirrors (always compiled); exposed so the parity suite can pin the
// backend explicitly.
void blockSurvivalScalar(const SoaBlock& b, const double* const* q,
                         std::size_t n, DimMask mask, const double* clipLo,
                         const double* clipHi, double* out) noexcept;
std::uint64_t blockDominatorsScalar(const SoaBlock& b, const double* q,
                                    DimMask mask) noexcept;
void survivalExponentsScalar(const SoaBlock& b, DimMask mask,
                             double* out) noexcept;

// AVX2 backends; defined in kernel_avx2.cpp, present only when DSUD_SIMD is
// ON (null function pointers otherwise).
using BlockSurvivalFn = void (*)(const SoaBlock&, const double* const*,
                                 std::size_t, DimMask, const double*,
                                 const double*, double*) noexcept;
using BlockDominatorsFn = std::uint64_t (*)(const SoaBlock&, const double*,
                                            DimMask) noexcept;
using SurvivalExponentsFn = void (*)(const SoaBlock&, DimMask,
                                     double*) noexcept;
BlockSurvivalFn simdBlockSurvival() noexcept;
BlockDominatorsFn simdBlockDominators() noexcept;
SurvivalExponentsFn simdSurvivalExponents() noexcept;
}  // namespace detail

}  // namespace dsud::kernel
