// Scalar reference variant of the SIMD kernel table. Compiled with
// -ffp-contract=off (src/CMakeLists.txt): the loops below are the
// normative elementwise sequences of common/simd.h, and no compiler may
// fuse a multiply-add into an FMA here — that would change roundings and
// break bit-parity with the vector variants, which use explicit
// multiply/add instructions for the same reason.
#include "common/simd_kernels.h"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace decam::simd::detail {
namespace {

void hist_merge_u16(std::uint16_t* dst, const std::uint16_t* add,
                    const std::uint16_t* sub, int n) {
  for (int i = 0; i < n; ++i) {
    dst[i] = static_cast<std::uint16_t>(dst[i] + add[i] - sub[i]);
  }
}

void hist_add_u16(std::uint16_t* dst, const std::uint16_t* add, int n) {
  for (int i = 0; i < n; ++i) {
    dst[i] = static_cast<std::uint16_t>(dst[i] + add[i]);
  }
}

int hist_rank16_u16(const std::uint16_t* bins, std::uint32_t rank,
                    std::uint32_t* below) {
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
  for (int i = 0; i < n; ++i) {
    out[i] = static_cast<float>(w * static_cast<double>(in[i]));
  }
}

void weighted_init_f64(double* acc, const float* in, double w, int n) {
  for (int i = 0; i < n; ++i) acc[i] = w * static_cast<double>(in[i]);
}

void weighted_add_f64(double* acc, const float* in, double w, int n) {
  for (int i = 0; i < n; ++i) {
    const double p = w * static_cast<double>(in[i]);
    acc[i] += p;
  }
}

void weighted_finish_f32(float* out, const double* acc, const float* in,
                         double w, int n) {
  for (int i = 0; i < n; ++i) {
    const double p = w * static_cast<double>(in[i]);
    out[i] = static_cast<float>(acc[i] + p);
  }
}

void tap_accumulate_f32(double* acc, const float* in, float kw, int n) {
  for (int i = 0; i < n; ++i) {
    const float p = kw * in[i];  // float product (imaging/filter.h contract)
    acc[i] += static_cast<double>(p);
  }
}

void narrow_f64_f32(float* out, const double* acc, int n) {
  for (int i = 0; i < n; ++i) out[i] = static_cast<float>(acc[i]);
}

void sqdiff_f64(double* out, const float* a, const float* b, int n) {
  for (int i = 0; i < n; ++i) {
    const double d =
        static_cast<double>(a[i]) - static_cast<double>(b[i]);
    out[i] = d * d;
  }
}

// Separable 8-point DCT-II basis, precomputed once.
struct DctBasis {
  double cosines[8][8];  // cosines[k][n] = c(k) * cos((2n+1)k pi / 16)
  DctBasis() {
    for (int k = 0; k < 8; ++k) {
      const double scale = k == 0 ? std::sqrt(1.0 / 8.0) : std::sqrt(2.0 / 8.0);
      for (int n = 0; n < 8; ++n) {
        cosines[k][n] = scale * std::cos((2.0 * n + 1.0) * k *
                                         std::numbers::pi / 16.0);
      }
    }
  }
};

const DctBasis& basis() {
  static const DctBasis instance;
  return instance;
}

// block is 8x8 row-major; forward DCT in place via temp.
void dct2d(double block[64]) {
  const DctBasis& b = basis();
  double temp[64];
  for (int y = 0; y < 8; ++y) {          // rows
    for (int k = 0; k < 8; ++k) {
      double acc = 0.0;
      for (int n = 0; n < 8; ++n) acc += block[y * 8 + n] * b.cosines[k][n];
      temp[y * 8 + k] = acc;
    }
  }
  for (int x = 0; x < 8; ++x) {          // columns
    for (int k = 0; k < 8; ++k) {
      double acc = 0.0;
      for (int n = 0; n < 8; ++n) acc += temp[n * 8 + x] * b.cosines[k][n];
      block[k * 8 + x] = acc;
    }
  }
}

void idct2d(double block[64]) {
  const DctBasis& b = basis();
  double temp[64];
  for (int x = 0; x < 8; ++x) {          // columns
    for (int n = 0; n < 8; ++n) {
      double acc = 0.0;
      for (int k = 0; k < 8; ++k) acc += block[k * 8 + x] * b.cosines[k][n];
      temp[n * 8 + x] = acc;
    }
  }
  for (int y = 0; y < 8; ++y) {          // rows
    for (int n = 0; n < 8; ++n) {
      double acc = 0.0;
      for (int k = 0; k < 8; ++k) acc += temp[y * 8 + k] * b.cosines[k][n];
      block[y * 8 + n] = acc;
    }
  }
}

}  // namespace

const double* dct8_basis() { return &basis().cosines[0][0]; }

// Both pair-stats kernels keep the four lanes of each sum in an array, so
// the compiler can vectorise across a group without reordering any sum.
void pair_stats_taps_scalar(double* row, const double* pad,
                            std::size_t stride, const double* win,
                            int groups) {
  for (int g = 0; g < groups; ++g) {
    double v[5][4] = {};
    for (int t = 0; t < kPairStatsTaps; ++t) {
      const double w = win[t];
      for (int s = 0; s < 5; ++s) {
        const double* in = pad + s * stride + 4 * g + t;
        for (int l = 0; l < 4; ++l) v[s][l] += w * in[l];
      }
    }
    double* out = row + 20 * g;
    for (int s = 0; s < 5; ++s) {
      for (int l = 0; l < 4; ++l) out[4 * s + l] = v[s][l];
    }
  }
}

void pair_stats_map_scalar(double* out, const double* const* rows,
                           const double* win, int groups, double c1,
                           double c2) {
  for (int g = 0; g < groups; ++g) {
    double v[20] = {};  // [stat][lane], the group's layout in a ring row
    for (int t = 0; t < kPairStatsTaps; ++t) {
      const double w = win[t];
      const double* in = rows[t] + 20 * g;
      for (int i = 0; i < 20; ++i) v[i] += w * in[i];
    }
    for (int l = 0; l < 4; ++l) {
      const double mu_a = v[l];
      const double mu_b = v[4 + l];
      const double va = v[8 + l] - mu_a * mu_a;
      const double vb = v[12 + l] - mu_b * mu_b;
      const double cov = v[16 + l] - mu_a * mu_b;
      const double num = (2.0 * mu_a * mu_b + c1) * (2.0 * cov + c2);
      const double den = (mu_a * mu_a + mu_b * mu_b + c1) * (va + vb + c2);
      out[4 * g + l] = num / den;
    }
  }
}

void jpeg_block_scalar(const float* src, int src_stride, float* dst,
                       int dst_stride, const double* quant) {
  double block[64];
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 8; ++x) {
      block[y * 8 + x] = static_cast<double>(src[y * src_stride + x]) - 128.0;
    }
  }
  dct2d(block);
  for (int i = 0; i < 64; ++i) {
    const double q = quant[i];
    block[i] = std::round(block[i] / q) * q;
  }
  idct2d(block);
  for (int y = 0; y < 8; ++y) {
    for (int x = 0; x < 8; ++x) {
      dst[y * dst_stride + x] = static_cast<float>(
          std::clamp(block[y * 8 + x] + 128.0, 0.0, 255.0));
    }
  }
}

const SimdOps& scalar_ops() {
  static const SimdOps ops = {
      "scalar",        hist_merge_u16,    hist_add_u16,
      hist_rank16_u16,
      weighted_assign_f32, weighted_init_f64, weighted_add_f64,
      weighted_finish_f32, tap_accumulate_f32, narrow_f64_f32,
      sqdiff_f64,      pair_stats_taps_scalar, pair_stats_map_scalar,
      jpeg_block_scalar,
  };
  return ops;
}

}  // namespace decam::simd::detail
