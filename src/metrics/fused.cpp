#include "metrics/fused.h"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/simd.h"
#include "metrics/mse.h"

namespace decam {
namespace {

constexpr double kC1 = (0.01 * 255.0) * (0.01 * 255.0);
constexpr double kC2 = (0.03 * 255.0) * (0.03 * 255.0);
constexpr int kRadius = 5;       // 11-tap Gaussian, sigma 1.5 (ssim.cpp)
constexpr int kTaps = 2 * kRadius + 1;
constexpr int kStats = 5;        // mu_a, mu_b, m_aa, m_bb, m_ab planes

// Same window as metrics/ssim.cpp — normalised 11-tap Gaussian.
const std::array<double, kTaps>& ssim_window() {
  static const std::array<double, kTaps> window = [] {
    std::array<double, kTaps> w{};
    constexpr double kSigma = 1.5;
    double sum = 0.0;
    for (int i = -kRadius; i <= kRadius; ++i) {
      const double v = std::exp(-(i * i) / (2.0 * kSigma * kSigma));
      w[static_cast<std::size_t>(i + kRadius)] = v;
      sum += v;
    }
    for (double& v : w) v /= sum;
    return w;
  }();
  return window;
}

// One plane of the fused pass. `mse_sum` threads through all planes so the
// squared differences accumulate in flat data order, exactly like mse().
// Returns the plane's SSIM map sum (row-major accumulation, as in
// ssim_plane()); divide by the pixel count for the plane mean.
//
// Every windowed sum is accumulated per tap in ascending order starting
// from 0.0, so restructuring the loops into per-tap plane sweeps (the SIMD
// row ops of common/simd.h) leaves each accumulator's addition sequence —
// and therefore every output bit — unchanged.
double fused_plane(std::span<const float> a, std::span<const float> b,
                   int width, int height, PairStatsWorkspace& ws,
                   double& mse_sum) {
  const std::array<double, kTaps>& win = ssim_window();
  const simd::SimdOps& ops = simd::ops();
  const std::size_t w_sz = static_cast<std::size_t>(width);
  const std::size_t pad_sz = w_sz + 2 * kRadius;
  // One ring row holds the five horizontal window-sum planes stat-major:
  // mu_a at 0, mu_b at width, m_aa at 2*width, m_bb, m_ab.
  const std::size_t row_doubles = w_sz * kStats;
  ws.ring.resize(row_doubles * kTaps);
  ws.a_pad.resize(pad_sz);
  ws.b_pad.resize(pad_sz);
  ws.sq.resize(w_sz);
  ws.vacc.resize(row_doubles);

  // Horizontal pass for source row y: per pixel, the five 11-tap windowed
  // sums over the edge-replicated row (a_pad[kRadius + x] = a[x], so tap t
  // of output pixel x reads pad[x + t] = clamp(x + t - kRadius)). The MSE
  // row sum rides along so the pair is read exactly once per tap and once
  // for the difference.
  const auto compute_mid_row = [&](int y) {
    const std::size_t base = static_cast<std::size_t>(y) * w_sz;
    std::fill(ws.a_pad.begin(), ws.a_pad.begin() + kRadius, a[base]);
    std::fill(ws.b_pad.begin(), ws.b_pad.begin() + kRadius, b[base]);
    std::copy(a.begin() + base, a.begin() + base + w_sz,
              ws.a_pad.begin() + kRadius);
    std::copy(b.begin() + base, b.begin() + base + w_sz,
              ws.b_pad.begin() + kRadius);
    std::fill(ws.a_pad.end() - kRadius, ws.a_pad.end(), a[base + w_sz - 1]);
    std::fill(ws.b_pad.end() - kRadius, ws.b_pad.end(), b[base + w_sz - 1]);

    double* mid = ws.ring.data() +
                  static_cast<std::size_t>(y % kTaps) * row_doubles;
    std::fill(mid, mid + row_doubles, 0.0);
    ops.pair_stats_taps(mid, mid + w_sz, mid + 2 * w_sz, mid + 3 * w_sz,
                        mid + 4 * w_sz, ws.a_pad.data(), ws.b_pad.data(),
                        win.data(), kTaps, width);

    ops.sqdiff_f64(ws.sq.data(), a.data() + base, b.data() + base, width);
    for (int x = 0; x < width; ++x) mse_sum += ws.sq[x];
  };

  double total = 0.0;
  int next_mid = 0;
  for (int y = 0; y < height; ++y) {
    // The vertical window of output row y reads mid rows y-5..y+5 (edge
    // replicated); rows enter the ring in order, at most 11 live at once.
    const int last_needed = std::min(y + kRadius, height - 1);
    for (; next_mid <= last_needed; ++next_mid) compute_mid_row(next_mid);

    std::fill(ws.vacc.begin(), ws.vacc.end(), 0.0);
    for (int i = 0; i < kTaps; ++i) {
      const int sy = std::clamp(y + i - kRadius, 0, height - 1);
      const double* mid =
          ws.ring.data() + static_cast<std::size_t>(sy % kTaps) * row_doubles;
      const double tw = win[static_cast<std::size_t>(i)];
      for (int p = 0; p < kStats; ++p) {
        ops.daxpy_f64(ws.vacc.data() + static_cast<std::size_t>(p) * w_sz,
                      mid + static_cast<std::size_t>(p) * w_sz, tw, width);
      }
    }
    const double* mu_a_p = ws.vacc.data();
    const double* mu_b_p = mu_a_p + w_sz;
    const double* m_aa_p = mu_a_p + 2 * w_sz;
    const double* m_bb_p = mu_a_p + 3 * w_sz;
    const double* m_ab_p = mu_a_p + 4 * w_sz;
    for (int x = 0; x < width; ++x) {
      const double mu_a = mu_a_p[x];
      const double mu_b = mu_b_p[x];
      const double va = m_aa_p[x] - mu_a * mu_a;
      const double vb = m_bb_p[x] - mu_b * mu_b;
      const double cov = m_ab_p[x] - mu_a * mu_b;
      const double num = (2.0 * mu_a * mu_b + kC1) * (2.0 * cov + kC2);
      const double den =
          (mu_a * mu_a + mu_b * mu_b + kC1) * (va + vb + kC2);
      total += num / den;
    }
  }
  return total;
}

}  // namespace

PairStatsWorkspace& thread_pair_stats_workspace() {
  thread_local PairStatsWorkspace workspace;
  return workspace;
}

PairStats pair_stats(const Image& a, const Image& b,
                     PairStatsWorkspace& workspace) {
  DECAM_REQUIRE(a.same_shape(b), "pair_stats: shape mismatch");
  DECAM_REQUIRE(!a.empty(), "pair_stats of empty images");
  const std::size_t n = a.plane_size();
  double mse_sum = 0.0;
  double ssim_total = 0.0;
  for (int c = 0; c < a.channels(); ++c) {
    ssim_total += fused_plane(a.plane(c), b.plane(c), a.width(), a.height(),
                              workspace, mse_sum) /
                  static_cast<double>(n);
  }
  PairStats stats;
  stats.mse = mse_sum / static_cast<double>(a.size());
  stats.ssim = ssim_total / a.channels();
  stats.psnr = psnr_from_mse(stats.mse);
  return stats;
}

PairStats pair_stats(const Image& a, const Image& b) {
  return pair_stats(a, b, thread_pair_stats_workspace());
}

}  // namespace decam
