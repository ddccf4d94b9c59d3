// Scalar kernel backend and backend dispatch.
//
// The scalar functions are written as an exact mirror of the AVX2 backend:
// the same kBlock-lane blocking, the same per-lane accumulators, the same
// fixed (l0 ⊕ l1) ⊕ (l2 ⊕ l3) reduction.  Do not "simplify" them into plain
// row loops — the bit-identical-results contract between DSUD_SIMD=ON and
// OFF builds depends on this structure (see tests/kernel_parity_test.cpp).
#include "kernel/kernel.hpp"

#include <array>

namespace dsud::kernel {

namespace {

/// Indices of the dimensions selected by `mask`, in ascending order.
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

/// One point's blockSurvival, in the blocked scalar form the AVX2 backend
/// mirrors.
double pointSurvival(const SoaBlock& b, const double* q, DimMask mask,
                     const double* clipLo, const double* clipHi) noexcept {
  const ActiveDims active = activeDims(mask, b.dims);
  double acc0 = 1.0, acc1 = 1.0, acc2 = 1.0, acc3 = 1.0;
  double lane[kBlock];
  for (std::size_t base = 0; base < b.padded; base += kBlock) {
    for (std::size_t l = 0; l < kBlock; ++l) {
      const std::size_t row = base + l;
      bool allLe = true;
      bool anyLt = false;
      for (std::size_t k = 0; k < active.n; ++k) {
        const double a = b.cols[active.idx[k]][row];
        const double qd = q[active.idx[k]];
        allLe = allLe && (a <= qd);
        anyLt = anyLt || (a < qd);
        if (!allLe) break;  // lane is 1.0 either way; result unchanged
      }
      bool inside = true;
      if (clipLo != nullptr) {
        for (std::size_t d = 0; d < b.dims; ++d) {
          const double a = b.cols[d][row];
          inside = inside && (clipLo[d] <= a) && (a <= clipHi[d]);
        }
      }
      lane[l] = (allLe && anyLt && inside) ? 1.0 - b.prob[row] : 1.0;
    }
    acc0 *= lane[0];
    acc1 *= lane[1];
    acc2 *= lane[2];
    acc3 *= lane[3];
  }
  return (acc0 * acc1) * (acc2 * acc3);
}

}  // namespace

namespace detail {

void blockSurvivalScalar(const SoaBlock& b, const double* const* q,
                         std::size_t n, DimMask mask, const double* clipLo,
                         const double* clipHi, double* out) noexcept {
  for (std::size_t k = 0; k < n; ++k) {
    out[k] = pointSurvival(b, q[k], mask, clipLo, clipHi);
  }
}

std::uint64_t blockDominatorsScalar(const SoaBlock& b, const double* q,
                                    DimMask mask) noexcept {
  const ActiveDims active = activeDims(mask, b.dims);
  std::uint64_t out = 0;
  // Padding rows hold +inf coordinates, so they can never set a bit.
  for (std::size_t row = 0; row < b.padded && row < 64; ++row) {
    bool allLe = true;
    bool anyLt = false;
    for (std::size_t k = 0; k < active.n; ++k) {
      const double a = b.cols[active.idx[k]][row];
      const double qd = q[active.idx[k]];
      allLe = allLe && (a <= qd);
      anyLt = anyLt || (a < qd);
      if (!allLe) break;
    }
    if (allLe && anyLt) out |= std::uint64_t{1} << row;
  }
  return out;
}

void survivalExponentsScalar(const SoaBlock& b, DimMask mask,
                             double* out) noexcept {
  const ActiveDims active = activeDims(mask, b.dims);
  for (std::size_t i = 0; i < b.n; ++i) {
    double qv[kMaxDims];
    for (std::size_t k = 0; k < active.n; ++k) {
      qv[k] = b.cols[active.idx[k]][i];
    }
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    double lane[kBlock];
    for (std::size_t base = 0; base < b.padded; base += kBlock) {
      for (std::size_t l = 0; l < kBlock; ++l) {
        const std::size_t row = base + l;
        bool allLe = true;
        bool anyLt = false;
        for (std::size_t k = 0; k < active.n; ++k) {
          const double a = b.cols[active.idx[k]][row];
          allLe = allLe && (a <= qv[k]);
          anyLt = anyLt || (a < qv[k]);
          if (!allLe) break;  // lane contributes +0.0 either way
        }
        // Masked add: non-dominators contribute an exact +0.0, matching the
        // SIMD bitwise-AND blend.
        lane[l] = (allLe && anyLt) ? b.logSurv[row] : 0.0;
      }
      s0 += lane[0];
      s1 += lane[1];
      s2 += lane[2];
      s3 += lane[3];
    }
    out[i] = (s0 + s1) + (s2 + s3);
  }
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Dispatch

namespace {

bool simdUsable() noexcept {
  return detail::simdBlockSurvival() != nullptr &&
         __builtin_cpu_supports("avx2");
}

// Resolved once; the answer cannot change while the process runs.
const bool kSimdActive = simdUsable();

}  // namespace

bool simdCompiled() noexcept { return detail::simdBlockSurvival() != nullptr; }

bool simdAvailable() noexcept { return kSimdActive; }

Backend activeBackend() noexcept {
  return kSimdActive ? Backend::kSimd : Backend::kScalar;
}

const char* backendName() noexcept { return kSimdActive ? "avx2" : "scalar"; }

void blockSurvival(const SoaBlock& b, const double* const* q, std::size_t n,
                   DimMask mask, const double* clipLo, const double* clipHi,
                   double* out, Backend backend) noexcept {
  if (backend == Backend::kAuto) backend = activeBackend();
  if (backend == Backend::kSimd && kSimdActive) {
    detail::simdBlockSurvival()(b, q, n, mask, clipLo, clipHi, out);
    return;
  }
  detail::blockSurvivalScalar(b, q, n, mask, clipLo, clipHi, out);
}

std::uint64_t blockDominators(const SoaBlock& b, const double* q, DimMask mask,
                              Backend backend) noexcept {
  if (backend == Backend::kAuto) backend = activeBackend();
  if (backend == Backend::kSimd && kSimdActive) {
    return detail::simdBlockDominators()(b, q, mask);
  }
  return detail::blockDominatorsScalar(b, q, mask);
}

void survivalExponents(const SoaBlock& b, DimMask mask, double* out,
                       Backend backend) noexcept {
  if (backend == Backend::kAuto) backend = activeBackend();
  if (backend == Backend::kSimd && kSimdActive) {
    detail::simdSurvivalExponents()(b, mask, out);
    return;
  }
  detail::survivalExponentsScalar(b, mask, out);
}

}  // namespace dsud::kernel
