// Pixel-difference metrics: MSE (the paper's primary scaling/filtering
// score, Eq. 5) and PSNR (evaluated in the paper's appendix and shown NOT
// to separate benign from attack images — we reproduce that negative result
// in `repro fig15`).
#pragma once

#include <cmath>
#include <limits>

#include "imaging/image.h"

namespace decam {

/// Mean squared error over all pixels and channels. Shapes must match.
double mse(const Image& a, const Image& b);

/// Peak signal-to-noise ratio in dB, Eq. (9): 10*log10((L-1)^2 / MSE) with
/// L = 256 intensity levels. Returns +inf for identical images.
double psnr(const Image& a, const Image& b);

/// Eq. (9) from an already-computed MSE: +inf when `err` is 0. The one PSNR
/// formula — psnr(), pair_stats() and the battery's PSNR columns use it.
inline double psnr_from_mse(double err) {
  if (err == 0.0) return std::numeric_limits<double>::infinity();
  constexpr double peak = 255.0;
  return 10.0 * std::log10(peak * peak / err);
}

}  // namespace decam
