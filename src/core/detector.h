// Common interface of Decamouflage's detection methods.
//
// A Detector maps an input image to a scalar score; a Calibration
// (core/calibration.h) turns scores into attack/benign decisions. Keeping
// score and decision separate is what lets one code path serve both the
// white-box threshold search (needs raw scores of both classes) and the
// black-box percentile calibration (needs benign scores only), and lets the
// ensemble combine heterogeneous methods.
//
// One scoring engine: a detector implements a single reduction over an
// AnalysisContext — ensure the one stage it reads, reduce it against the
// input — and both score() entry points run through it (DESIGN.md §8).
#pragma once

#include <memory>
#include <string>

#include "core/analysis_context.h"
#include "imaging/image.h"

namespace decam::core {

/// The similarity metric a spatial-domain detector reduces its image pair
/// with. CSP is the steganalysis detector's count metric.
enum class Metric { MSE, SSIM, CSP };

const char* to_string(Metric metric);

class Detector {
 public:
  virtual ~Detector() = default;

  /// Scalar detection score for one image: a Deferred context primed by
  /// this detector, reduced. Higher-is-attack vs lower-is-attack depends on
  /// the method+metric; Calibration carries the polarity.
  double score(const Image& input) const;

  /// Scores through a shared context, materialising only the stage this
  /// detector reads. The context is read only when it serves this detector
  /// — priming its spec changes nothing; otherwise the score comes from a
  /// private Deferred context over the same input, so a context built for
  /// another geometry/scaler/filter is never wrong, only slower.
  double score(AnalysisContext& context) const;

  /// Extends `spec` with the intermediates this detector reads, so one
  /// context serves a whole ensemble (EnsembleDetector::context_spec()).
  /// Must only set the fields the reduction reads.
  virtual void prime(AnalysisContextSpec& spec) const { (void)spec; }

  /// Human-readable method name ("scaling/mse", ...).
  virtual std::string name() const = 0;

 private:
  /// The detector's reduction. `context` always serves this detector; the
  /// reduction ensure()s the stage it reads before using it.
  virtual double reduce(AnalysisContext& context) const = 0;
};

}  // namespace decam::core
