#include "core/histogram_detector.h"

#include "metrics/histogram.h"

namespace decam::core {

HistogramDetector::HistogramDetector(HistogramDetectorConfig config)
    : config_(config) {
  DECAM_REQUIRE(config.down_width > 0 && config.down_height > 0,
                "downscale geometry must be positive");
  DECAM_REQUIRE(config.bins > 0 && config.bins <= 256, "bad bin count");
}

double HistogramDetector::reduce(AnalysisContext& context) const {
  context.ensure(AnalysisStage::RoundTrip);
  return histogram_intersection(color_histogram(context.input(), config_.bins),
                                color_histogram(context.downscaled(),
                                                config_.bins));
}

void HistogramDetector::prime(AnalysisContextSpec& spec) const {
  // The downscale only: the up scaler is the scaling detector's, and the
  // histogram never reads the reconstruction.
  spec.down_width = config_.down_width;
  spec.down_height = config_.down_height;
  spec.down_algo = config_.algo;
}

std::string HistogramDetector::name() const { return "histogram/intersection"; }

}  // namespace decam::core
