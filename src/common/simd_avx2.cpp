// AVX2 variant of the SIMD kernel table. Only compiled on x86-64 (the
// dispatcher additionally checks cpuid before selecting it).
//
// Bit-parity with the scalar table is part of the contract (common/simd.h):
// every lane performs exactly the scalar sequence — note the explicit
// _mm256_mul_pd / _mm256_add_pd pairs instead of FMA, and the float
// multiply before widening in tap_accumulate_f32. The TU is compiled with
// -ffp-contract=off so the compiler cannot re-fuse what we deliberately
// keep separate.
#include "common/simd_kernels.h"

#ifdef DECAM_SIMD_HAVE_AVX2

#include <immintrin.h>

namespace decam::simd::detail {
namespace {

void hist_merge_u16(std::uint16_t* dst, const std::uint16_t* add,
                    const std::uint16_t* sub, int n) {
  int i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(add + i));
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(sub + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_sub_epi16(_mm256_add_epi16(d, a), s));
  }
  for (; i < n; ++i) {
    dst[i] = static_cast<std::uint16_t>(dst[i] + add[i] - sub[i]);
  }
}

void hist_add_u16(std::uint16_t* dst, const std::uint16_t* add, int n) {
  int i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256i d =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i a =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(add + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_add_epi16(d, a));
  }
  for (; i < n; ++i) dst[i] = static_cast<std::uint16_t>(dst[i] + add[i]);
}

int hist_rank16_u16(const std::uint16_t* bins, std::uint32_t rank,
                    std::uint32_t* below) {
  // Same branch-free scalar scan as the scalar table. A vector prefix-sum
  // formulation was measured slower here: extracting the `below` prefix
  // needs a store-then-narrow-reload of the prefix vector, and the
  // store-forwarding stall costs more than sixteen scalar adds.
  std::uint32_t cum = 0;
  std::uint32_t pre = 0;
  int idx = 0;
  for (int i = 0; i < 16; ++i) {
    cum += bins[i];
    const bool le = cum <= rank;
    idx += le ? 1 : 0;
    pre = le ? cum : pre;
  }
  *below = pre;
  return idx;
}

void weighted_assign_f32(float* out, const float* in, double w, int n) {
  const __m256d wv = _mm256_set1_pd(w);
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_cvtps_pd(_mm_loadu_ps(in + i));
    _mm_storeu_ps(out + i, _mm256_cvtpd_ps(_mm256_mul_pd(wv, v)));
  }
  for (; i < n; ++i) {
    out[i] = static_cast<float>(w * static_cast<double>(in[i]));
  }
}

void weighted_init_f64(double* acc, const float* in, double w, int n) {
  const __m256d wv = _mm256_set1_pd(w);
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_cvtps_pd(_mm_loadu_ps(in + i));
    _mm256_storeu_pd(acc + i, _mm256_mul_pd(wv, v));
  }
  for (; i < n; ++i) acc[i] = w * static_cast<double>(in[i]);
}

void weighted_add_f64(double* acc, const float* in, double w, int n) {
  const __m256d wv = _mm256_set1_pd(w);
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_cvtps_pd(_mm_loadu_ps(in + i));
    const __m256d a = _mm256_loadu_pd(acc + i);
    _mm256_storeu_pd(acc + i, _mm256_add_pd(a, _mm256_mul_pd(wv, v)));
  }
  for (; i < n; ++i) {
    const double p = w * static_cast<double>(in[i]);
    acc[i] += p;
  }
}

void weighted_finish_f32(float* out, const double* acc, const float* in,
                         double w, int n) {
  const __m256d wv = _mm256_set1_pd(w);
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_cvtps_pd(_mm_loadu_ps(in + i));
    const __m256d a = _mm256_loadu_pd(acc + i);
    _mm_storeu_ps(out + i,
                  _mm256_cvtpd_ps(_mm256_add_pd(a, _mm256_mul_pd(wv, v))));
  }
  for (; i < n; ++i) {
    const double p = w * static_cast<double>(in[i]);
    out[i] = static_cast<float>(acc[i] + p);
  }
}

void tap_accumulate_f32(double* acc, const float* in, float kw, int n) {
  const __m128 kwv = _mm_set1_ps(kw);
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    // Float product first — the imaging/filter.h accumulator contract —
    // then widen and add in double.
    const __m128 p = _mm_mul_ps(kwv, _mm_loadu_ps(in + i));
    const __m256d a = _mm256_loadu_pd(acc + i);
    _mm256_storeu_pd(acc + i, _mm256_add_pd(a, _mm256_cvtps_pd(p)));
  }
  for (; i < n; ++i) {
    const float p = kw * in[i];
    acc[i] += static_cast<double>(p);
  }
}

void narrow_f64_f32(float* out, const double* acc, int n) {
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    _mm_storeu_ps(out + i, _mm256_cvtpd_ps(_mm256_loadu_pd(acc + i)));
  }
  for (; i < n; ++i) out[i] = static_cast<float>(acc[i]);
}

void daxpy_f64(double* acc, const double* in, double w, int n) {
  const __m256d wv = _mm256_set1_pd(w);
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d v = _mm256_loadu_pd(in + i);
    const __m256d a = _mm256_loadu_pd(acc + i);
    _mm256_storeu_pd(acc + i, _mm256_add_pd(a, _mm256_mul_pd(wv, v)));
  }
  for (; i < n; ++i) {
    const double p = w * in[i];
    acc[i] += p;
  }
}

void sqdiff_f64(double* out, const float* a, const float* b, int n) {
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d da = _mm256_cvtps_pd(_mm_loadu_ps(a + i));
    const __m256d db = _mm256_cvtps_pd(_mm_loadu_ps(b + i));
    const __m256d d = _mm256_sub_pd(da, db);
    _mm256_storeu_pd(out + i, _mm256_mul_pd(d, d));
  }
  for (; i < n; ++i) {
    const double d =
        static_cast<double>(a[i]) - static_cast<double>(b[i]);
    out[i] = d * d;
  }
}

void pair_stats_taps(double* mu_a, double* mu_b, double* m_aa, double* m_bb,
                     double* m_ab, const float* a_pad, const float* b_pad,
                     const double* win, int taps, int n) {
  for (int t = 0; t < taps; ++t) {
    const double w = win[t];
    const __m256d wv = _mm256_set1_pd(w);
    const float* a = a_pad + t;
    const float* b = b_pad + t;
    int i = 0;
    for (; i + 4 <= n; i += 4) {
      const __m256d da = _mm256_cvtps_pd(_mm_loadu_ps(a + i));
      const __m256d db = _mm256_cvtps_pd(_mm_loadu_ps(b + i));
      _mm256_storeu_pd(
          mu_a + i,
          _mm256_add_pd(_mm256_loadu_pd(mu_a + i), _mm256_mul_pd(wv, da)));
      _mm256_storeu_pd(
          mu_b + i,
          _mm256_add_pd(_mm256_loadu_pd(mu_b + i), _mm256_mul_pd(wv, db)));
      _mm256_storeu_pd(
          m_aa + i,
          _mm256_add_pd(_mm256_loadu_pd(m_aa + i),
                        _mm256_mul_pd(wv, _mm256_mul_pd(da, da))));
      _mm256_storeu_pd(
          m_bb + i,
          _mm256_add_pd(_mm256_loadu_pd(m_bb + i),
                        _mm256_mul_pd(wv, _mm256_mul_pd(db, db))));
      _mm256_storeu_pd(
          m_ab + i,
          _mm256_add_pd(_mm256_loadu_pd(m_ab + i),
                        _mm256_mul_pd(wv, _mm256_mul_pd(da, db))));
    }
    for (; i < n; ++i) {
      const double da = static_cast<double>(a[i]);
      const double db = static_cast<double>(b[i]);
      mu_a[i] += w * da;
      mu_b[i] += w * db;
      m_aa[i] += w * (da * da);
      m_bb[i] += w * (db * db);
      m_ab[i] += w * (da * db);
    }
  }
}

// out = a * b for 8x8 row-major matrices, vectorised across the columns of
// b: out[j][x] = sum over m of a[j][m] * b[m][x] in ascending m. Four
// output rows at a time keep eight independent add chains in flight
// without spilling.
//
// The sums start at their first product, not at 0.0 + product as the
// scalar loops do. That only differs when the whole sum is -0.0 (the
// scalar one is then +0.0), and the sign of a zero never reaches a nonzero
// value downstream: products with the finite basis, the quantiser's divide,
// round and multiply, and further sums all keep zeros zero, and the store's
// r + 128.0 sends both zeros to 128. Block outputs are therefore identical,
// for a quarter fewer adds.
void matmul8(const double* a, const double* b, double* out) {
  for (int j0 = 0; j0 < 8; j0 += 4) {
    __m256d acc[4][2];
    for (int m = 0; m < 8; ++m) {
      const __m256d b_lo = _mm256_loadu_pd(b + m * 8);
      const __m256d b_hi = _mm256_loadu_pd(b + m * 8 + 4);
      for (int j = 0; j < 4; ++j) {
        const __m256d s = _mm256_broadcast_sd(a + (j0 + j) * 8 + m);
        const __m256d p_lo = _mm256_mul_pd(s, b_lo);
        const __m256d p_hi = _mm256_mul_pd(s, b_hi);
        acc[j][0] = m == 0 ? p_lo : _mm256_add_pd(acc[j][0], p_lo);
        acc[j][1] = m == 0 ? p_hi : _mm256_add_pd(acc[j][1], p_hi);
      }
    }
    for (int j = 0; j < 4; ++j) {
      _mm256_storeu_pd(out + (j0 + j) * 8, acc[j][0]);
      _mm256_storeu_pd(out + (j0 + j) * 8 + 4, acc[j][1]);
    }
  }
}

// std::round: truncate, then step one away from zero when the exact
// fraction v - trunc(v) has magnitude >= 0.5. A blend (not an add of 0)
// keeps -0.0 results signed; inf and NaN come back from the truncation
// unchanged because their fraction compares false.
__m256d round_half_away(__m256d v) {
  const __m256d sign_bit = _mm256_set1_pd(-0.0);
  const __m256d t = _mm256_round_pd(v, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
  const __m256d frac = _mm256_andnot_pd(sign_bit, _mm256_sub_pd(v, t));
  const __m256d away = _mm256_add_pd(
      t, _mm256_or_pd(_mm256_and_pd(v, sign_bit), _mm256_set1_pd(1.0)));
  return _mm256_blendv_pd(
      t, away, _mm256_cmp_pd(frac, _mm256_set1_pd(0.5), _CMP_GE_OQ));
}

// std::clamp(v, 0.0, 255.0) == min(max(v, 0), 255) with std::max(v, lo) =
// (v < lo) ? lo : v: blends on ordered compares pass NaN through, which
// _mm256_max_pd / _mm256_min_pd would not.
__m128 clamp_to_float(__m256d v) {
  const __m256d lo = _mm256_setzero_pd();
  const __m256d hi = _mm256_set1_pd(255.0);
  v = _mm256_blendv_pd(v, lo, _mm256_cmp_pd(v, lo, _CMP_LT_OQ));
  v = _mm256_blendv_pd(v, hi, _mm256_cmp_pd(hi, v, _CMP_LT_OQ));
  return _mm256_cvtpd_ps(v);
}

// dct8_basis() transposed: v[n * 8 + k] = c[k * 8 + n].
struct TransposedBasis {
  double v[64];
  TransposedBasis() {
    const double* c = dct8_basis();
    for (int i = 0; i < 64; ++i) v[(i % 8) * 8 + i / 8] = c[i];
  }
};

// The scalar sequence in matrix form: F = C * S * C^T is t = S * C^T, then
// f = C * t; R = C^T * G * C is u = C^T * G, then r = u * C. matmul8 sums
// in the order of the scalar loops, and each product's two factors are the
// scalar ones (IEEE multiplication commutes exactly).
void jpeg_block(const float* src, int src_stride, float* dst, int dst_stride,
                const double* quant) {
  static const TransposedBasis transposed;
  const double* c = dct8_basis();
  const double* ct = transposed.v;
  const __m256d level = _mm256_set1_pd(128.0);
  double s[64], t[64], f[64];
  for (int y = 0; y < 8; ++y) {
    const float* row = src + y * src_stride;
    _mm256_storeu_pd(s + y * 8, _mm256_sub_pd(
        _mm256_cvtps_pd(_mm_loadu_ps(row)), level));
    _mm256_storeu_pd(s + y * 8 + 4, _mm256_sub_pd(
        _mm256_cvtps_pd(_mm_loadu_ps(row + 4)), level));
  }
  matmul8(s, ct, t);
  matmul8(c, t, f);
  for (int i = 0; i < 64; i += 4) {
    const __m256d q = _mm256_loadu_pd(quant + i);
    const __m256d v = _mm256_div_pd(_mm256_loadu_pd(f + i), q);
    _mm256_storeu_pd(f + i, _mm256_mul_pd(round_half_away(v), q));
  }
  matmul8(ct, f, t);
  matmul8(t, c, s);
  for (int y = 0; y < 8; ++y) {
    float* row = dst + y * dst_stride;
    _mm_storeu_ps(row, clamp_to_float(
        _mm256_add_pd(_mm256_loadu_pd(s + y * 8), level)));
    _mm_storeu_ps(row + 4, clamp_to_float(
        _mm256_add_pd(_mm256_loadu_pd(s + y * 8 + 4), level)));
  }
}

}  // namespace

const SimdOps& avx2_ops() {
  static const SimdOps ops = {
      "avx2",          hist_merge_u16,    hist_add_u16,
      hist_rank16_u16,
      weighted_assign_f32, weighted_init_f64, weighted_add_f64,
      weighted_finish_f32, tap_accumulate_f32, narrow_f64_f32,
      daxpy_f64,       sqdiff_f64,        pair_stats_taps,
      jpeg_block,
  };
  return ops;
}

}  // namespace decam::simd::detail

#endif  // DECAM_SIMD_HAVE_AVX2
