// Scaling detection (paper Section III-A, Algorithm 1): downscale the input
// to the CNN's geometry with the victim pipeline's scaler, upscale back,
// and measure how much survived the round trip. Benign images change
// little; attack images come back looking like the upscaled target.
#pragma once

#include "core/detector.h"
#include "imaging/scale.h"

namespace decam::core {

struct ScalingDetectorConfig {
  int down_width = 224;   // CNN input geometry (Table 1 of the paper)
  int down_height = 224;
  ScaleAlgo down_algo = ScaleAlgo::Bilinear;  // victim pipeline's scaler
  ScaleAlgo up_algo = ScaleAlgo::Bilinear;    // reconstruction scaler
  Metric metric = Metric::MSE;  // MSE or SSIM
};

class ScalingDetector final : public Detector {
 public:
  explicit ScalingDetector(ScalingDetectorConfig config);

  void prime(AnalysisContextSpec& spec) const override;
  std::string name() const override;

  /// The round-tripped image S (exposed for examples/visualisation).
  Image round_trip(const Image& input) const;

  const ScalingDetectorConfig& config() const { return config_; }

 private:
  /// Rejects inputs no larger than the CNN geometry before building the
  /// round trip, then reduces (input, round trip) with the metric.
  double reduce(AnalysisContext& context) const override;

  ScalingDetectorConfig config_;
};

}  // namespace decam::core
