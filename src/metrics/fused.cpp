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
constexpr int kRadius = 5;       // 11-tap Gaussian, sigma 1.5
constexpr int kTaps = 2 * kRadius + 1;
static_assert(kTaps == simd::kPairStatsTaps);
constexpr int kStats = 5;        // mu_a, mu_b, m_aa, m_bb, m_ab sums

// The SSIM window: the normalised 11-tap Gaussian of Wang et al.
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
// Returns the plane's SSIM map sum (row-major accumulation); divide by the
// pixel count for the plane mean.
//
// Every windowed sum is accumulated per tap in ascending order starting
// from 0.0 (the SimdOps pair-stats contract), so blocking the sums into
// registers per 4-pixel group leaves each accumulator's addition sequence,
// and therefore every output bit, unchanged.
double fused_plane(std::span<const float> a, std::span<const float> b,
                   int width, int height, PairStatsWorkspace& ws,
                   double& mse_sum) {
  const std::array<double, kTaps>& win = ssim_window();
  const simd::SimdOps& ops = simd::ops();
  const std::size_t w_sz = static_cast<std::size_t>(width);
  // The kernels work in whole groups of four pixels; the lanes past the
  // row end read edge-replicated padding and are never summed.
  const int groups = (width + 3) / 4;
  const std::size_t group_px = static_cast<std::size_t>(groups) * 4;
  const std::size_t radius = kRadius;
  const std::size_t pad_sz = group_px + 2 * radius;
  // One ring row holds the five horizontal window sums group-major:
  // [x / 4][stat][x % 4] (simd.h, pair_stats_taps).
  const std::size_t row_doubles = group_px * kStats;
  ws.ring.resize(row_doubles * kTaps);
  ws.pad.resize(pad_sz * kStats);
  ws.sq.resize(w_sz);
  ws.map.resize(group_px);

  // The five per-pixel terms the horizontal taps weigh, over one
  // edge-replicated source row: pad[i] comes from pixel
  // clamp(i - kRadius, 0, width - 1), so tap t of output pixel x reads
  // pixel clamp(x + t - kRadius). Squaring once per pixel here gives the
  // same doubles as squaring once per tap.
  double* const pa = ws.pad.data();
  double* const pb = pa + pad_sz;
  double* const paa = pb + pad_sz;
  double* const pbb = paa + pad_sz;
  double* const pab = pbb + pad_sz;
  const auto put = [&](std::size_t i, std::size_t src) {
    const double da = static_cast<double>(a[src]);
    const double db = static_cast<double>(b[src]);
    pa[i] = da;
    pb[i] = db;
    paa[i] = da * da;
    pbb[i] = db * db;
    pab[i] = da * db;
  };

  // Horizontal pass for source row y into its ring row.
  const auto compute_mid_row = [&](int y) {
    const std::size_t base = static_cast<std::size_t>(y) * w_sz;
    for (std::size_t i = 0; i < radius; ++i) put(i, base);
    for (std::size_t x = 0; x < w_sz; ++x) put(radius + x, base + x);
    for (std::size_t i = radius + w_sz; i < pad_sz; ++i) {
      put(i, base + w_sz - 1);
    }

    double* mid = ws.ring.data() +
                  static_cast<std::size_t>(y % kTaps) * row_doubles;
    ops.pair_stats_taps(mid, ws.pad.data(), pad_sz, win.data(), groups);
  };

  double total = 0.0;
  int next_mid = 0;
  std::array<const double*, kTaps> rows{};
  for (int y = 0; y < height; ++y) {
    // The vertical window of output row y reads mid rows y-5..y+5 (edge
    // replicated); rows enter the ring in order, at most 11 live at once.
    const int last_needed = std::min(y + kRadius, height - 1);
    for (; next_mid <= last_needed; ++next_mid) compute_mid_row(next_mid);

    for (int i = 0; i < kTaps; ++i) {
      const int sy = std::clamp(y + i - kRadius, 0, height - 1);
      rows[static_cast<std::size_t>(i)] =
          ws.ring.data() + static_cast<std::size_t>(sy % kTaps) * row_doubles;
    }
    ops.pair_stats_map(ws.map.data(), rows.data(), win.data(), groups, kC1,
                       kC2);
    // Row y's squared differences join the same loop: the two serial sums
    // are independent chains, so each one's add latency hides the other's.
    const std::size_t base = static_cast<std::size_t>(y) * w_sz;
    ops.sqdiff_f64(ws.sq.data(), a.data() + base, b.data() + base, width);
    for (std::size_t x = 0; x < w_sz; ++x) {
      mse_sum += ws.sq[x];
      total += ws.map[x];
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
