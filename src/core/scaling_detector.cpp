#include "core/scaling_detector.h"

#include "metrics/mse.h"
#include "metrics/ssim.h"
#include "obs/span.h"

namespace decam::core {

ScalingDetector::ScalingDetector(ScalingDetectorConfig config)
    : config_(config) {
  DECAM_REQUIRE(config.down_width > 0 && config.down_height > 0,
                "downscale geometry must be positive");
  DECAM_REQUIRE(config.metric == Metric::MSE || config.metric == Metric::SSIM,
                "scaling detector uses MSE or SSIM");
}

Image ScalingDetector::round_trip(const Image& input) const {
  return scale_round_trip(input, config_.down_width, config_.down_height,
                          config_.down_algo, config_.up_algo);
}

double ScalingDetector::reduce(AnalysisContext& context) const {
  DECAM_SPAN(config_.metric == Metric::MSE ? "detector/scaling/mse"
                                           : "detector/scaling/ssim");
  const Image& input = context.input();
  DECAM_REQUIRE(input.width() > config_.down_width &&
                    input.height() > config_.down_height,
                "input must be larger than the CNN geometry");
  context.ensure(AnalysisStage::RoundTrip);
  return config_.metric == Metric::MSE ? mse(input, context.round_trip())
                                       : ssim(input, context.round_trip());
}

void ScalingDetector::prime(AnalysisContextSpec& spec) const {
  spec.down_width = config_.down_width;
  spec.down_height = config_.down_height;
  spec.down_algo = config_.down_algo;
  spec.up_algo = config_.up_algo;
}

std::string ScalingDetector::name() const {
  return std::string("scaling/") + to_string(config_.metric);
}

}  // namespace decam::core
