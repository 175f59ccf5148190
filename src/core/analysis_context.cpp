#include "core/analysis_context.h"

#include <atomic>

#include "obs/memstats.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "signal/spectrum.h"

namespace decam::core {
namespace {

// Derived-image bytes of every AnalysisContext currently alive, across all
// threads — each context adds its share at construction and removes it on
// destruction, so sampling is one relaxed load.
std::atomic<std::uint64_t> g_context_bytes{0};

std::uint64_t image_bytes(const std::optional<Image>& image) {
  return image.has_value() ? image->size() * sizeof(float) : 0;
}

}  // namespace

const char* to_string(AnalysisStage stage) {
  switch (stage) {
    case AnalysisStage::RoundTrip: return "round_trip";
    case AnalysisStage::Filter: return "filter";
    case AnalysisStage::Spectrum: return "spectrum";
  }
  return "?";
}

AnalysisContext::AnalysisContext(const Image& input,
                                 const AnalysisContextSpec& spec, Build build)
    : input_(&input), spec_(spec) {
  DECAM_REQUIRE(!input.empty(), "analysis context of empty image");
  if (spec.down_width > 0 && spec.down_height > 0) {
    plan_.push_back(AnalysisStage::RoundTrip);
  }
  if (spec.filter_window > 0) plan_.push_back(AnalysisStage::Filter);
  if (spec.spectrum) plan_.push_back(AnalysisStage::Spectrum);

  static const bool source_registered = [] {
    obs::register_memory_source("analysis_context", [] {
      return g_context_bytes.load(std::memory_order_relaxed);
    });
    return true;
  }();
  (void)source_registered;

  if (build == Build::Eager) ensure_all();
}

void AnalysisContext::ensure_all() {
  for (const AnalysisStage stage : plan_) ensure(stage);
}

void AnalysisContext::ensure(AnalysisStage stage) {
  switch (stage) {
    case AnalysisStage::RoundTrip:
      if (spec_.down_width > 0 && spec_.down_height > 0 && !round_trip_) {
        build_round_trip();
      }
      return;
    case AnalysisStage::Filter:
      if (spec_.filter_window > 0 && !filtered_) build_filter();
      return;
    case AnalysisStage::Spectrum:
      if (spec_.spectrum && !spectrum_) build_spectrum();
      return;
  }
}

void AnalysisContext::build_round_trip() {
  static auto& round_trip_hist =
      obs::MetricsRegistry::instance().histogram("context/round_trip");
  // One downscale serves both the pipeline view (histogram baseline) and
  // the round trip — resize(resize(I)) is exactly scale_round_trip.
  obs::ScopedTimer timer(round_trip_hist, "context/round_trip");
  RoundTripImages images =
      scale_round_trip_full(*input_, spec_.down_width, spec_.down_height,
                            spec_.down_algo, spec_.up_algo);
  downscaled_ = std::move(images.down);
  round_trip_ = std::move(images.up);
  add_bytes(image_bytes(downscaled_) + image_bytes(round_trip_));
}

void AnalysisContext::build_filter() {
  static auto& filter_hist =
      obs::MetricsRegistry::instance().histogram("context/filter");
  obs::ScopedTimer timer(filter_hist, "context/filter");
  filtered_ = rank_filter(*input_, spec_.filter_window, spec_.filter_op);
  add_bytes(image_bytes(filtered_));
}

void AnalysisContext::build_spectrum() {
  static auto& spectrum_hist =
      obs::MetricsRegistry::instance().histogram("context/spectrum");
  obs::ScopedTimer timer(spectrum_hist, "context/spectrum");
  spectrum_ = centered_log_spectrum(*input_, spectrum_workspace());
  add_bytes(image_bytes(spectrum_));
}

void AnalysisContext::add_bytes(std::uint64_t bytes) {
  bytes_ += bytes;
  g_context_bytes.fetch_add(bytes, std::memory_order_relaxed);
}

AnalysisContext::~AnalysisContext() {
  g_context_bytes.fetch_sub(bytes_, std::memory_order_relaxed);
}

AnalysisContext::AnalysisContext(AnalysisContext&& other) noexcept
    : input_(other.input_),
      spec_(other.spec_),
      plan_(std::move(other.plan_)),
      downscaled_(std::move(other.downscaled_)),
      round_trip_(std::move(other.round_trip_)),
      filtered_(std::move(other.filtered_)),
      spectrum_(std::move(other.spectrum_)),
      bytes_(other.bytes_) {
  // The moved-from context must not release our share in its destructor.
  other.bytes_ = 0;
}

SpectrumWorkspace& AnalysisContext::spectrum_workspace() {
  return thread_spectrum_workspace();
}

const Image& AnalysisContext::downscaled() const {
  DECAM_REQUIRE(has_downscaled(), "context built without a downscale");
  return *downscaled_;
}

const Image& AnalysisContext::round_trip() const {
  DECAM_REQUIRE(has_round_trip(), "context built without a round trip");
  return *round_trip_;
}

const Image& AnalysisContext::filtered() const {
  DECAM_REQUIRE(has_filtered(), "context built without a filtered image");
  return *filtered_;
}

const Image& AnalysisContext::spectrum() const {
  DECAM_REQUIRE(has_spectrum(), "context built without a spectrum");
  return *spectrum_;
}

}  // namespace decam::core
