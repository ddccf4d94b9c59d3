// AVX2 kernel backend: 4 doubles per vector, one lane per row.
//
// Compiled with -mavx2 only when the DSUD_SIMD CMake option is ON; otherwise
// this TU provides null accessors and the dispatcher runs the scalar mirror.
// The per-lane arithmetic here must stay instruction-for-instruction
// equivalent to kernel.cpp's scalar functions (same blocking, same masked
// add/blend semantics, same (l0 ⊕ l1) ⊕ (l2 ⊕ l3) reduction) — the parity
// suite asserts bit-identical results.
//
// Functions are only ever reached through the dispatcher after a runtime
// __builtin_cpu_supports("avx2") check, so executing this backend on a
// non-AVX2 CPU is impossible by construction.
#include "kernel/kernel.hpp"

#if defined(DSUD_SIMD_AVX2)

#include <immintrin.h>

#include <array>

namespace dsud::kernel::detail {

namespace {

struct ActiveDims {
  std::array<std::size_t, kMaxDims> idx{};
  std::size_t n = 0;
};

ActiveDims activeDims(DimMask mask, std::size_t dims) noexcept {
  ActiveDims a;
  for (std::size_t d = 0; d < dims; ++d) {
    if (mask & (DimMask{1} << d)) a.idx[a.n++] = d;
  }
  return a;
}

inline __m256d allOnes() noexcept {
  return _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
}

/// Lane mask of rows [base, base+4) dominating the broadcast query point
/// `q[k]` on the active dimensions.
inline __m256d dominatorMask(const SoaBlock& b, const ActiveDims& active,
                             const __m256d* q, std::size_t base) noexcept {
  __m256d allLe = allOnes();
  __m256d anyLt = _mm256_setzero_pd();
  for (std::size_t k = 0; k < active.n; ++k) {
    const __m256d a = _mm256_loadu_pd(b.cols[active.idx[k]] + base);
    allLe = _mm256_and_pd(allLe, _mm256_cmp_pd(a, q[k], _CMP_LE_OQ));
    anyLt = _mm256_or_pd(anyLt, _mm256_cmp_pd(a, q[k], _CMP_LT_OQ));
    if (_mm256_movemask_pd(allLe) == 0) return _mm256_setzero_pd();
  }
  return _mm256_and_pd(allLe, anyLt);
}

// Row blocks in the outer loop, so each is loaded once per kGroup points.
// Branchless: a block that dominates nothing multiplies a lane by exactly
// 1.0, which is what the scalar mirror's early exits leave unchanged.
void blockSurvivalAvx2(const SoaBlock& b, const double* const* q,
                       std::size_t n, DimMask mask, const double* clipLo,
                       const double* clipHi, double* out) noexcept {
  constexpr std::size_t kGroup = 8;  // accumulators held per pass
  const ActiveDims active = activeDims(mask, b.dims);
  __m256d lov[kMaxDims];
  __m256d hiv[kMaxDims];
  if (clipLo != nullptr) {
    for (std::size_t d = 0; d < b.dims; ++d) {
      lov[d] = _mm256_set1_pd(clipLo[d]);
      hiv[d] = _mm256_set1_pd(clipHi[d]);
    }
  }
  const __m256d ones = _mm256_set1_pd(1.0);
  for (std::size_t first = 0; first < n; first += kGroup) {
    const std::size_t count = n - first < kGroup ? n - first : kGroup;
    __m256d acc[kGroup];
    for (std::size_t p = 0; p < count; ++p) acc[p] = ones;
    for (std::size_t base = 0; base < b.padded; base += kBlock) {
      __m256d inside = allOnes();
      if (clipLo != nullptr) {
        for (std::size_t d = 0; d < b.dims; ++d) {
          const __m256d a = _mm256_loadu_pd(b.cols[d] + base);
          inside = _mm256_and_pd(inside, _mm256_cmp_pd(lov[d], a, _CMP_LE_OQ));
          inside = _mm256_and_pd(inside, _mm256_cmp_pd(a, hiv[d], _CMP_LE_OQ));
        }
      }
      __m256d cols[kMaxDims];
      for (std::size_t k = 0; k < active.n; ++k) {
        cols[k] = _mm256_loadu_pd(b.cols[active.idx[k]] + base);
      }
      const __m256d factor =
          _mm256_sub_pd(ones, _mm256_loadu_pd(b.prob + base));
      for (std::size_t p = 0; p < count; ++p) {
        const double* point = q[first + p];
        __m256d allLe = inside;
        __m256d anyLt = _mm256_setzero_pd();
        for (std::size_t k = 0; k < active.n; ++k) {
          const __m256d qk = _mm256_broadcast_sd(point + active.idx[k]);
          allLe = _mm256_and_pd(allLe, _mm256_cmp_pd(cols[k], qk, _CMP_LE_OQ));
          anyLt = _mm256_or_pd(anyLt, _mm256_cmp_pd(cols[k], qk, _CMP_LT_OQ));
        }
        acc[p] = _mm256_mul_pd(
            acc[p], _mm256_blendv_pd(ones, factor, _mm256_and_pd(allLe, anyLt)));
      }
    }
    for (std::size_t p = 0; p < count; ++p) {
      alignas(32) double lane[kBlock];
      _mm256_store_pd(lane, acc[p]);
      out[first + p] = (lane[0] * lane[1]) * (lane[2] * lane[3]);
    }
  }
}

std::uint64_t blockDominatorsAvx2(const SoaBlock& b, const double* q,
                                  DimMask mask) noexcept {
  const ActiveDims active = activeDims(mask, b.dims);
  __m256d qv[kMaxDims];
  for (std::size_t k = 0; k < active.n; ++k) {
    qv[k] = _mm256_set1_pd(q[active.idx[k]]);
  }
  std::uint64_t out = 0;
  for (std::size_t base = 0; base < b.padded && base < 64; base += kBlock) {
    const __m256d dom = dominatorMask(b, active, qv, base);
    out |= static_cast<std::uint64_t>(_mm256_movemask_pd(dom)) << base;
  }
  return out;
}

inline double laneSum(__m256d s) noexcept {
  alignas(32) double lane[kBlock];
  _mm256_store_pd(lane, s);
  return (lane[0] + lane[1]) + (lane[2] + lane[3]);
}

// The O(n²) all-pairs sweep.  Branchless on purpose: on real data the
// per-block dominator masks are unpredictable, so the scalar mirror's
// early-exit branches would mostly mispredict here; an empty mask instead
// contributes exact +0.0 per lane, which cannot change any accumulator.
// Two candidates share each column load and carry independent accumulator
// chains (one dependent vector-add per block per candidate is the latency
// bottleneck otherwise); each candidate still sees blocks in ascending
// order with its own (l0+l1)+(l2+l3) reduction, so results are bit-identical
// to the one-candidate form and to the scalar mirror.
void survivalExponentsAvx2(const SoaBlock& b, DimMask mask,
                           double* out) noexcept {
  const ActiveDims active = activeDims(mask, b.dims);
  std::size_t i = 0;
  for (; i + 1 < b.n; i += 2) {
    __m256d q0[kMaxDims];
    __m256d q1[kMaxDims];
    for (std::size_t k = 0; k < active.n; ++k) {
      q0[k] = _mm256_set1_pd(b.cols[active.idx[k]][i]);
      q1[k] = _mm256_set1_pd(b.cols[active.idx[k]][i + 1]);
    }
    __m256d s0 = _mm256_setzero_pd();
    __m256d s1 = _mm256_setzero_pd();
    for (std::size_t base = 0; base < b.padded; base += kBlock) {
      __m256d allLe0 = allOnes();
      __m256d anyLt0 = _mm256_setzero_pd();
      __m256d allLe1 = allOnes();
      __m256d anyLt1 = _mm256_setzero_pd();
      for (std::size_t k = 0; k < active.n; ++k) {
        const __m256d a = _mm256_loadu_pd(b.cols[active.idx[k]] + base);
        allLe0 = _mm256_and_pd(allLe0, _mm256_cmp_pd(a, q0[k], _CMP_LE_OQ));
        anyLt0 = _mm256_or_pd(anyLt0, _mm256_cmp_pd(a, q0[k], _CMP_LT_OQ));
        allLe1 = _mm256_and_pd(allLe1, _mm256_cmp_pd(a, q1[k], _CMP_LE_OQ));
        anyLt1 = _mm256_or_pd(anyLt1, _mm256_cmp_pd(a, q1[k], _CMP_LT_OQ));
      }
      const __m256d log = _mm256_loadu_pd(b.logSurv + base);
      s0 = _mm256_add_pd(s0, _mm256_and_pd(_mm256_and_pd(allLe0, anyLt0), log));
      s1 = _mm256_add_pd(s1, _mm256_and_pd(_mm256_and_pd(allLe1, anyLt1), log));
    }
    out[i] = laneSum(s0);
    out[i + 1] = laneSum(s1);
  }
  if (i < b.n) {
    __m256d qv[kMaxDims];
    for (std::size_t k = 0; k < active.n; ++k) {
      qv[k] = _mm256_set1_pd(b.cols[active.idx[k]][i]);
    }
    __m256d s = _mm256_setzero_pd();
    for (std::size_t base = 0; base < b.padded; base += kBlock) {
      const __m256d dom = dominatorMask(b, active, qv, base);
      s = _mm256_add_pd(s,
                        _mm256_and_pd(dom, _mm256_loadu_pd(b.logSurv + base)));
    }
    out[i] = laneSum(s);
  }
}

}  // namespace

BlockSurvivalFn simdBlockSurvival() noexcept { return &blockSurvivalAvx2; }
BlockDominatorsFn simdBlockDominators() noexcept {
  return &blockDominatorsAvx2;
}
SurvivalExponentsFn simdSurvivalExponents() noexcept {
  return &survivalExponentsAvx2;
}

}  // namespace dsud::kernel::detail

#else  // !DSUD_SIMD_AVX2: scalar-only build

namespace dsud::kernel::detail {

BlockSurvivalFn simdBlockSurvival() noexcept { return nullptr; }
BlockDominatorsFn simdBlockDominators() noexcept { return nullptr; }
SurvivalExponentsFn simdSurvivalExponents() noexcept { return nullptr; }

}  // namespace dsud::kernel::detail

#endif
