// AnalysisContext — the expensive per-image intermediates every detection
// method reads, computed through an explicit staged analysis plan and
// shared (DESIGN.md §8, §11).
//
// A caller builds one context per input image (on its own thread — no
// hidden global caches), then any number of detectors score against it.
//
// Staging: the spec expands to an ordered AnalysisPlan of stages (round
// trip, rank filter, spectrum). An Eager context (the default) materialises
// every planned stage in the constructor. A Deferred context records the
// plan and materialises a stage the first time ensure(stage) is called —
// Detector::score builds its contexts this way, so a detector (or a member
// the short-circuit vote skips) only ever pays for the stage it reads.
// ensure() is non-const and must be called before the const accessors;
// accessors never build behind the caller's back.
//
// Ownership: the context borrows `input` (non-owning pointer) and owns every
// derived image. Keep the input alive for the context's lifetime; contexts
// are scoped to scoring one image and are cheap to move, never copied
// implicitly (Image is value-semantic, so copying would duplicate planes).
//
// Config matching: intermediates are only valid for the spec they were built
// with. Detector::score(AnalysisContext&) reads a context only when priming
// its spec with the detector changes nothing, and otherwise scores through a
// private context — correctness never depends on the spec lining up.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "imaging/filter.h"
#include "imaging/image.h"
#include "imaging/scale.h"
#include "signal/spectrum.h"

namespace decam::core {

/// What to precompute. Defaults request nothing; detectors extend a spec via
/// Detector::prime(), and an ensemble or Battery primes one spec with every
/// detector it holds.
struct AnalysisContextSpec {
  int down_width = 0;   // > 0 enables the downscale + round trip
  int down_height = 0;
  ScaleAlgo down_algo = ScaleAlgo::Bilinear;  // victim pipeline's scaler
  ScaleAlgo up_algo = ScaleAlgo::Bilinear;    // reconstruction scaler
  int filter_window = 0;  // > 0 enables the rank-filtered image
  RankOp filter_op = RankOp::Min;
  bool spectrum = false;  // centered log-magnitude spectrum (steganalysis)

  bool operator==(const AnalysisContextSpec&) const = default;
};

/// One stage of the analysis plan.
enum class AnalysisStage { RoundTrip, Filter, Spectrum };

const char* to_string(AnalysisStage stage);

class AnalysisContext {
 public:
  enum class Build {
    Eager,     // materialise every planned stage in the constructor
    Deferred,  // record the plan; stages build on first ensure()
  };

  /// Builds the stages `spec` requests on the calling thread (all of them
  /// when `build` is Eager, none yet when Deferred). Build cost is recorded
  /// into the `context/*` registry histograms as each stage materialises.
  AnalysisContext(const Image& input, const AnalysisContextSpec& spec,
                  Build build = Build::Eager);

  /// Releases this context's contribution to the live-bytes gauge
  /// (`mem/analysis_context_bytes` — the derived images of every context
  /// currently alive, across threads).
  ~AnalysisContext();

  AnalysisContext(AnalysisContext&& other) noexcept;
  AnalysisContext& operator=(AnalysisContext&&) = delete;
  AnalysisContext(const AnalysisContext&) = delete;
  AnalysisContext& operator=(const AnalysisContext&) = delete;

  const Image& input() const { return *input_; }
  const AnalysisContextSpec& spec() const { return spec_; }

  /// The ordered stages this context's spec requests (build order). A
  /// Deferred context materialises a suffix-free subset of this plan: only
  /// the stages ensure()d so far.
  const std::vector<AnalysisStage>& plan() const { return plan_; }

  /// Materialises one planned stage (no-op when already built or when the
  /// spec never requested it). Deferred contexts call this — directly or
  /// through Detector::score(AnalysisContext&) — before the accessors.
  void ensure(AnalysisStage stage);
  /// Materialises every planned stage (what the Eager constructor does).
  void ensure_all();

  bool has_downscaled() const { return downscaled_.has_value(); }
  bool has_round_trip() const { return round_trip_.has_value(); }
  bool has_filtered() const { return filtered_.has_value(); }
  bool has_spectrum() const { return spectrum_.has_value(); }

  /// The pipeline's view: input resized to (down_width, down_height).
  const Image& downscaled() const;
  /// Downscale-then-upscale reconstruction at the input geometry.
  const Image& round_trip() const;
  /// Rank-filtered input (filter_window, filter_op).
  const Image& filtered() const;
  /// Centered log-magnitude spectrum of the input.
  const Image& spectrum() const;

  /// Per-thread spectrum scratch (complex frequency plane + shifted
  /// log-magnitude buffer) shared by every context built on this thread.
  /// Detectors scoring without a context reuse it through this accessor,
  /// so a dataset sweep allocates the FFT buffers once per worker, not
  /// once per image.
  static SpectrumWorkspace& spectrum_workspace();

 private:
  void build_round_trip();
  void build_filter();
  void build_spectrum();
  void add_bytes(std::uint64_t bytes);

  const Image* input_;
  AnalysisContextSpec spec_;
  std::vector<AnalysisStage> plan_;
  std::optional<Image> downscaled_;
  std::optional<Image> round_trip_;
  std::optional<Image> filtered_;
  std::optional<Image> spectrum_;
  std::uint64_t bytes_ = 0;  // this context's share of the live-bytes gauge
};

}  // namespace decam::core
