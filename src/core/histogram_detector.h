// Negative baseline: Xiao et al. suggested (without experiments) comparing
// the color histogram of the input with that of its downscaled form. Both
// Quiring et al. and the Decamouflage paper report the metric does not
// separate the classes; we ship it so bench/ablation_histogram can
// reproduce that negative result instead of taking it on faith.
#pragma once

#include "core/detector.h"
#include "imaging/scale.h"

namespace decam::core {

struct HistogramDetectorConfig {
  int down_width = 224;
  int down_height = 224;
  ScaleAlgo algo = ScaleAlgo::Bilinear;
  int bins = 32;
};

class HistogramDetector final : public Detector {
 public:
  explicit HistogramDetector(HistogramDetectorConfig config);

  void prime(AnalysisContextSpec& spec) const override;
  std::string name() const override;

 private:
  /// Histogram-intersection similarity between the input and the context's
  /// downscaled input (the round-trip stage's first half).
  double reduce(AnalysisContext& context) const override;

  HistogramDetectorConfig config_;
};

}  // namespace decam::core
