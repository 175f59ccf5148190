// Filtering detection (paper Section III-B, Algorithm 2): run a small
// minimum filter over the input and compare against the original. The
// attack's embedded target pixels are extreme values relative to their
// neighbourhood, so the minimum filter smears them across the image and the
// filtered result diverges sharply from the input; benign images only
// darken slightly.
#pragma once

#include "core/detector.h"
#include "imaging/filter.h"

namespace decam::core {

struct FilteringDetectorConfig {
  int window = 2;              // k of the k x k rank filter (paper: 2)
  RankOp op = RankOp::Min;     // paper compares Min/Median/Max; Min wins
  Metric metric = Metric::SSIM;
};

class FilteringDetector final : public Detector {
 public:
  explicit FilteringDetector(FilteringDetectorConfig config);

  void prime(AnalysisContextSpec& spec) const override;
  std::string name() const override;

  /// The filtered image F (exposed for examples/visualisation).
  Image filtered(const Image& input) const;

  const FilteringDetectorConfig& config() const { return config_; }

 private:
  /// Reduces (input, filtered input) with the metric.
  double reduce(AnalysisContext& context) const override;

  FilteringDetectorConfig config_;
};

}  // namespace decam::core
