#include "metrics/mse.h"

namespace decam {

double mse(const Image& a, const Image& b) {
  DECAM_REQUIRE(a.same_shape(b), "mse: shape mismatch");
  DECAM_REQUIRE(!a.empty(), "mse of empty images");
  const float* pa = a.data();
  const float* pb = b.data();
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = static_cast<double>(pa[i]) - static_cast<double>(pb[i]);
    sum += d * d;
  }
  return sum / static_cast<double>(a.size());
}

double psnr(const Image& a, const Image& b) { return psnr_from_mse(mse(a, b)); }

}  // namespace decam
