#include "core/detector.h"

namespace decam::core {

const char* to_string(Metric metric) {
  switch (metric) {
    case Metric::MSE: return "mse";
    case Metric::SSIM: return "ssim";
    case Metric::CSP: return "csp";
  }
  return "?";
}

double Detector::score(const Image& input) const {
  AnalysisContextSpec spec;
  prime(spec);
  AnalysisContext context(input, spec, AnalysisContext::Build::Deferred);
  return reduce(context);
}

double Detector::score(AnalysisContext& context) const {
  AnalysisContextSpec primed = context.spec();
  prime(primed);
  if (primed == context.spec()) return reduce(context);
  return score(context.input());
}

}  // namespace decam::core
