// Internal: the per-ISA kernel tables linked into decam_simd. Which tables
// exist is decided at configure time (src/CMakeLists.txt adds the AVX2
// translation unit on x86-64 and the NEON one on aarch64) and communicated
// with the DECAM_SIMD_HAVE_* definitions; the dispatcher (simd.cpp) only
// references tables that were actually compiled.
#pragma once

#include "common/simd.h"

namespace decam::simd::detail {

/// Portable fallback, compiled with -ffp-contract=off so its arithmetic is
/// the exact elementwise sequence of the SimdOps contract on every host.
const SimdOps& scalar_ops();

/// The orthonormal 8-point DCT-II basis of SimdOps::jpeg_block, row-major:
/// [k * 8 + n] = C(k) * cos((2n + 1) k pi / 16). Computed once per process
/// by one definition, so every table multiplies by the same doubles.
const double* dct8_basis();

/// The scalar kernels shared with tables that have no vector variant of
/// them.
void pair_stats_taps_scalar(double* row, const double* pad,
                            std::size_t stride, const double* win,
                            int groups);
void pair_stats_map_scalar(double* out, const double* const* rows,
                           const double* win, int groups, double c1,
                           double c2);
void jpeg_block_scalar(const float* src, int src_stride, float* dst,
                       int dst_stride, const double* quant);

#ifdef DECAM_SIMD_HAVE_AVX2
/// AVX2 table (x86-64 only; callers must verify cpu support first).
const SimdOps& avx2_ops();
#endif

#ifdef DECAM_SIMD_HAVE_NEON
/// NEON table (aarch64 only; NEON is baseline there).
const SimdOps& neon_ops();
#endif

}  // namespace decam::simd::detail
