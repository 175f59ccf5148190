// NEON (aarch64) variant of the SIMD kernel table. Only compiled on
// aarch64, where NEON with float64x2 arithmetic is baseline.
//
// Same bit-parity contract as the AVX2 table: explicit vmulq/vaddq pairs,
// never vfmaq, and the TU is compiled with -ffp-contract=off. aarch64 would
// otherwise contract multiply-adds into FMAs and diverge from the scalar
// table.
#include "common/simd_kernels.h"

#ifdef DECAM_SIMD_HAVE_NEON

#include <arm_neon.h>

namespace decam::simd::detail {
namespace {

void hist_merge_u16(std::uint16_t* dst, const std::uint16_t* add,
                    const std::uint16_t* sub, int n) {
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    const uint16x8_t d = vld1q_u16(dst + i);
    const uint16x8_t a = vld1q_u16(add + i);
    const uint16x8_t s = vld1q_u16(sub + i);
    vst1q_u16(dst + i, vsubq_u16(vaddq_u16(d, a), s));
  }
  for (; i < n; ++i) {
    dst[i] = static_cast<std::uint16_t>(dst[i] + add[i] - sub[i]);
  }
}

void hist_add_u16(std::uint16_t* dst, const std::uint16_t* add, int n) {
  int i = 0;
  for (; i + 8 <= n; i += 8) {
    vst1q_u16(dst + i, vaddq_u16(vld1q_u16(dst + i), vld1q_u16(add + i)));
  }
  for (; i < n; ++i) dst[i] = static_cast<std::uint16_t>(dst[i] + add[i]);
}

int hist_rank16_u16(const std::uint16_t* bins, std::uint32_t rank,
                    std::uint32_t* below) {
  // Inclusive u32 prefix sums of the 16 bins across four quads (lane-shift
  // adds plus a carried quad total), then a branch-free count of prefixes
  // <= rank; integer-exact, so parity with the other variants is trivial.
  const uint16x8_t v0 = vld1q_u16(bins);
  const uint16x8_t v1 = vld1q_u16(bins + 8);
  uint32x4_t q[4] = {vmovl_u16(vget_low_u16(v0)), vmovl_u16(vget_high_u16(v0)),
                     vmovl_u16(vget_low_u16(v1)),
                     vmovl_u16(vget_high_u16(v1))};
  const uint32x4_t zero = vdupq_n_u32(0);
  std::uint32_t carry = 0;
  std::uint32_t pre[17];
  pre[0] = 0;
  int idx = 0;
  const uint32x4_t rankv = vdupq_n_u32(rank);
  for (int s = 0; s < 4; ++s) {
    uint32x4_t x = q[s];
    x = vaddq_u32(x, vextq_u32(zero, x, 3));  // shift left one lane
    x = vaddq_u32(x, vextq_u32(zero, x, 2));  // shift left two lanes
    x = vaddq_u32(x, vdupq_n_u32(carry));
    carry = vgetq_lane_u32(x, 3);
    vst1q_u32(pre + 1 + 4 * s, x);
    const uint32x4_t le = vcleq_u32(x, rankv);  // all-ones lanes where <=
    idx += static_cast<int>(vaddvq_u32(vshrq_n_u32(le, 31)));
  }
  *below = pre[idx];
  return idx;
}

// Widen two float lanes to a float64x2.
inline float64x2_t widen(const float* p) {
  return vcvt_f64_f32(vld1_f32(p));
}

void weighted_assign_f32(float* out, const float* in, double w, int n) {
  const float64x2_t wv = vdupq_n_f64(w);
  int i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1_f32(out + i, vcvt_f32_f64(vmulq_f64(wv, widen(in + i))));
  }
  for (; i < n; ++i) {
    out[i] = static_cast<float>(w * static_cast<double>(in[i]));
  }
}

void weighted_init_f64(double* acc, const float* in, double w, int n) {
  const float64x2_t wv = vdupq_n_f64(w);
  int i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_f64(acc + i, vmulq_f64(wv, widen(in + i)));
  }
  for (; i < n; ++i) acc[i] = w * static_cast<double>(in[i]);
}

void weighted_add_f64(double* acc, const float* in, double w, int n) {
  const float64x2_t wv = vdupq_n_f64(w);
  int i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t p = vmulq_f64(wv, widen(in + i));
    vst1q_f64(acc + i, vaddq_f64(vld1q_f64(acc + i), p));
  }
  for (; i < n; ++i) {
    const double p = w * static_cast<double>(in[i]);
    acc[i] += p;
  }
}

void weighted_finish_f32(float* out, const double* acc, const float* in,
                         double w, int n) {
  const float64x2_t wv = vdupq_n_f64(w);
  int i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t p = vmulq_f64(wv, widen(in + i));
    vst1_f32(out + i, vcvt_f32_f64(vaddq_f64(vld1q_f64(acc + i), p)));
  }
  for (; i < n; ++i) {
    const double p = w * static_cast<double>(in[i]);
    out[i] = static_cast<float>(acc[i] + p);
  }
}

void tap_accumulate_f32(double* acc, const float* in, float kw, int n) {
  const float32x2_t kwv = vdup_n_f32(kw);
  int i = 0;
  for (; i + 2 <= n; i += 2) {
    // Float product first (imaging/filter.h contract), then widen and add.
    const float32x2_t p = vmul_f32(kwv, vld1_f32(in + i));
    vst1q_f64(acc + i, vaddq_f64(vld1q_f64(acc + i), vcvt_f64_f32(p)));
  }
  for (; i < n; ++i) {
    const float p = kw * in[i];
    acc[i] += static_cast<double>(p);
  }
}

void narrow_f64_f32(float* out, const double* acc, int n) {
  int i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1_f32(out + i, vcvt_f32_f64(vld1q_f64(acc + i)));
  }
  for (; i < n; ++i) out[i] = static_cast<float>(acc[i]);
}

void sqdiff_f64(double* out, const float* a, const float* b, int n) {
  int i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t d = vsubq_f64(widen(a + i), widen(b + i));
    vst1q_f64(out + i, vmulq_f64(d, d));
  }
  for (; i < n; ++i) {
    const double d =
        static_cast<double>(a[i]) - static_cast<double>(b[i]);
    out[i] = d * d;
  }
}

}  // namespace

const SimdOps& neon_ops() {
  static const SimdOps ops = {
      "neon",          hist_merge_u16,    hist_add_u16,
      hist_rank16_u16,
      weighted_assign_f32, weighted_init_f64, weighted_add_f64,
      weighted_finish_f32, tap_accumulate_f32, narrow_f64_f32,
      sqdiff_f64,
      // No NEON variants: the scalar pair-stats and block kernels keep the
      // contract on aarch64 until vector ones can be held to it by
      // SimdParity there.
      pair_stats_taps_scalar, pair_stats_map_scalar, jpeg_block_scalar,
  };
  return ops;
}

}  // namespace decam::simd::detail

#endif  // DECAM_SIMD_HAVE_NEON
