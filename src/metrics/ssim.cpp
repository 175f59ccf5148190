#include "metrics/ssim.h"

#include "metrics/fused.h"

namespace decam {

double ssim(const Image& a, const Image& b) {
  DECAM_REQUIRE(a.same_shape(b), "ssim: shape mismatch");
  DECAM_REQUIRE(!a.empty(), "ssim of empty images");
  // One implementation for all callers: the fused tiled pass of
  // metrics/fused.cpp (its windowed sums preserve the reference
  // accumulation order, see the header contract there). The MSE that rides
  // along is two flops per pixel — not worth a second code path.
  return pair_stats(a, b).ssim;
}

}  // namespace decam
