// Runtime-dispatched SIMD kernel core.
//
// The per-tap inner loops of the imaging/metrics hot paths (resize tap
// application, separable convolution, the fused pair-stats walk, the
// running-histogram merge of the median filter, and the JPEG simulator's
// 8x8 block transform) funnel through a table of
// function pointers resolved once at startup: AVX2 on x86-64 hosts that
// support it, NEON on aarch64, and a portable scalar fallback everywhere.
// `DECAM_SIMD=scalar|avx2|neon` overrides the choice per process (an
// unavailable request falls back to scalar with a warning), and benches and
// tests can swap the active table with set_active_isa() to measure or
// verify a specific variant.
//
// Bit-exactness contract: every operation in the table is specified as an
// exact elementwise IEEE sequence (the comments below are the contract) and
// every variant — scalar included — must produce bit-identical results for
// the same inputs. The per-ISA translation units are compiled with
// -ffp-contract=off and use explicit multiply/add intrinsics (never FMA),
// so a vector lane performs exactly the operations the scalar loop does.
// The simd_dispatch ctest re-runs the kernel parity suite with the scalar
// table forced to hold each variant to that promise.
//
// Observability: the resolved ISA is exported as the `simd/dispatch` gauge
// (0 = scalar, 1 = avx2, 2 = neon) so a `decamctl scan --stats` shows which
// kernel core a run actually used.
#pragma once

#include <cstdint>

namespace decam::simd {

enum class Isa { Scalar = 0, Avx2 = 1, Neon = 2 };

const char* to_string(Isa isa);

/// One set of vectorized kernel primitives. All pointers are non-null in
/// every table; `n` is the element count and buffers may be unaligned.
struct SimdOps {
  const char* name;  // matches to_string() of the owning Isa

  /// dst[i] += add[i] - sub[i] over uint16 bins (mod 2^16; exact whenever
  /// the true result fits, which histogram counts do by construction).
  void (*hist_merge_u16)(std::uint16_t* dst, const std::uint16_t* add,
                         const std::uint16_t* sub, int n);
  /// dst[i] += add[i] (same arithmetic as hist_merge_u16 without the sub).
  void (*hist_add_u16)(std::uint16_t* dst, const std::uint16_t* add, int n);
  /// One level of the two-level histogram median descent: the smallest
  /// index i in [0, 16) whose inclusive prefix sum bins[0] + ... + bins[i]
  /// exceeds `rank`, or 16 when the 16-bin total does not. `*below`
  /// receives the prefix sum before that index (0 when i == 0, the total
  /// when i == 16). Branch-free in every variant — the select runs per
  /// output pixel and a data-dependent early exit would mispredict more
  /// than it saves. Integer-exact, so parity across variants is trivial.
  int (*hist_rank16_u16)(const std::uint16_t* bins, std::uint32_t rank,
                         std::uint32_t* below);

  /// out[i] = (float)(w * (double)in[i])
  void (*weighted_assign_f32)(float* out, const float* in, double w, int n);
  /// acc[i] = w * (double)in[i]
  void (*weighted_init_f64)(double* acc, const float* in, double w, int n);
  /// acc[i] += w * (double)in[i]   (double product, then double add)
  void (*weighted_add_f64)(double* acc, const float* in, double w, int n);
  /// out[i] = (float)(acc[i] + w * (double)in[i])
  void (*weighted_finish_f32)(float* out, const double* acc, const float* in,
                              double w, int n);

  /// acc[i] += (double)(kw * in[i])  — FLOAT product, double accumulate:
  /// the separable-convolution contract of imaging/filter.h.
  void (*tap_accumulate_f32)(double* acc, const float* in, float kw, int n);
  /// out[i] = (float)acc[i]
  void (*narrow_f64_f32)(float* out, const double* acc, int n);
  /// acc[i] += w * in[i] (all double; double product, then double add)
  void (*daxpy_f64)(double* acc, const double* in, double w, int n);
  /// out[i] = d * d with d = (double)a[i] - (double)b[i]
  void (*sqdiff_f64)(double* out, const float* a, const float* b, int n);

  /// The fused pair-stats horizontal pass (metrics/fused.cpp): for each tap
  /// t in ascending order with weight w = win[t], and per element i:
  ///   da = (double)a_pad[i + t], db = (double)b_pad[i + t]
  ///   mu_a[i] += w * da;        mu_b[i] += w * db;
  ///   m_aa[i] += w * (da * da); m_bb[i] += w * (db * db);
  ///   m_ab[i] += w * (da * db);
  /// Callers zero the five planes first (0 + v == v keeps the order exact).
  void (*pair_stats_taps)(double* mu_a, double* mu_b, double* m_aa,
                          double* m_bb, double* m_ab, const float* a_pad,
                          const float* b_pad, const double* win, int taps,
                          int n);

  /// One 8x8 block of the JPEG simulator (imaging/jpeg_sim.cpp): forward
  /// DCT, quantisation, inverse DCT. Reads src[y * src_stride + x] and
  /// writes dst[y * dst_stride + x] for x, y in [0, 8); `quant` holds the
  /// 64 row-major quantiser steps. With c[k][n] = dct8_basis()[k * 8 + n]
  /// (simd_kernels.h) and every sum Σ accumulated from 0.0 in ascending
  /// index, product then add (never FMA):
  ///   s[y][x] = (double)src[y][x] - 128.0
  ///   t[y][k] = Σ_n s[y][n] * c[k][n]          forward, rows
  ///   f[k][x] = Σ_n t[n][x] * c[k][n]          forward, columns
  ///   g[i]    = round_half_away(f[i] / quant[i]) * quant[i]   (std::round)
  ///   u[n][x] = Σ_k g[k * 8 + x] * c[k][n]     inverse, columns
  ///   r[y][n] = Σ_k u[y][k] * c[k][n]          inverse, rows
  ///   dst[y][x] = (float)std::clamp(r[y][x] + 128.0, 0.0, 255.0)
  /// std::clamp passes NaN through, so a NaN sample poisons its block
  /// rather than saturating. A variant may start a sum at its first
  /// product instead of 0.0 + product: that only flips the sign of an
  /// all-zero sum, which no output can see (simd_avx2.cpp). When a block
  /// mixes NaN and inf samples, which NaN's sign and payload an output
  /// carries is left open, as IEEE 754 leaves it for a sum of two NaNs.
  void (*jpeg_block)(const float* src, int src_stride, float* dst,
                     int dst_stride, const double* quant);
};

/// The active table. Resolved once (cpuid + DECAM_SIMD) on first use;
/// subsequent calls are one relaxed atomic load.
const SimdOps& ops();

/// The ISA the active table implements.
Isa active_isa();

/// Swaps the active table (benches measuring `…/scalar` variants, parity
/// tests). Returns the previous ISA. Requesting an ISA this host cannot run
/// falls back to Scalar. Not intended for concurrent use with hot loops in
/// flight on other threads.
Isa set_active_isa(Isa isa);

/// True when the build carries a native (non-scalar) variant for this host
/// and the CPU supports it, regardless of the active selection.
bool native_available();

}  // namespace decam::simd
