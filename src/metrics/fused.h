// Fused pair statistics — MSE, windowed SSIM and PSNR of one (reference,
// reconstruction) image pair from a single tiled traversal.
//
// The battery's scaling and filtering stages each reduce the same pair with
// three metrics; computed separately that is seven full-image sweeps (MSE,
// five Gaussian filter passes inside SSIM, and PSNR re-running MSE). The
// fused pass walks each plane once, row by row:
//  * horizontal: each source row is expanded once into five edge-padded
//    term rows (a, b, a², b², ab); for every group of four output pixels
//    the five 11-tap window sums are built in registers and stored once
//    into a ring of 11 rows, group-major (simd.h, pair_stats_taps);
//  * vertical: for each output row, the 11 clamped ring rows are summed in
//    registers per group and mapped to the SSIM value of each pixel in a
//    row buffer (simd.h, pair_stats_map);
//  * totals: the row's SSIM values and squared differences are added to
//    the plane's serial sums in row-major order.
// PSNR is derived from the MSE value.
//
// Bit-exactness contract: every accumulator preserves the reference
// implementations' floating-point addition order (flat data order for MSE;
// per tap in ascending order from 0.0, then row-major, for SSIM), so
// pair_stats() returns exactly the values of the separate reductions, with
// the scalar and every native SimdOps table alike. battery_golden,
// pair_stats_golden (scan-path geometries) and the 1-vs-N-thread
// determinism suite pin this down.
#pragma once

#include <vector>

#include "imaging/image.h"

namespace decam {

/// The three reductions of one image pair.
struct PairStats {
  double mse = 0.0;
  double ssim = 0.0;
  double psnr = 0.0;
};

/// Reusable scratch for the fused pass. One per thread (pair_stats() uses
/// the calling thread's); sized on first use and reused across images.
/// `ring` holds 11 rows of the five horizontal window sums, group-major per
/// row ([x / 4][stat][x % 4], so one 4-pixel group's sums are 160
/// contiguous bytes); `pad` the five edge-replicated per-pixel term rows
/// the horizontal taps read (a, b, a², b², ab as doubles), `sq` the
/// per-row squared differences of the MSE walk, and `map` one output row
/// of the SSIM map.
struct PairStatsWorkspace {
  std::vector<double> ring;
  std::vector<double> pad;
  std::vector<double> sq;
  std::vector<double> map;
};

/// The calling thread's default workspace.
PairStatsWorkspace& thread_pair_stats_workspace();

/// MSE + mean windowed SSIM + PSNR of (a, b) in one traversal. Shapes must
/// match; results are bit-identical to mse(a, b), ssim(a, b), psnr(a, b).
PairStats pair_stats(const Image& a, const Image& b);

/// Scratch-reusing overload of the above.
PairStats pair_stats(const Image& a, const Image& b,
                     PairStatsWorkspace& workspace);

}  // namespace decam
