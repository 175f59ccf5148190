// End-to-end experiment pipeline shared by every bench binary.
//
// One experiment = the paper's two-stage protocol:
//   stage 1  generate the calibration dataset (regime A stand-in for the
//            NeurIPS-2017 images), craft attack images, score everything;
//   stage 2  generate the UNSEEN evaluation dataset (regime B stand-in for
//            Caltech-256), craft attacks two ways — with the white-box
//            (known) scaler and with a mixed black-box scaler pool — and
//            score everything.
//
// Scoring runs the full battery once per image — the production detectors
// on one shared context, so the round trip, filtered image and spectrum are
// built once across metrics — and the whole result is cached on disk as TSV
// keyed by a config hash: the first bench to run pays the generation cost,
// the rest reuse it.
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "core/filtering_detector.h"
#include "core/histogram_detector.h"
#include "core/scaling_detector.h"
#include "core/steganalysis_detector.h"
#include "imaging/scale.h"

namespace decam::core {

struct ExperimentConfig {
  int n_train = 60;          // images per class, calibration set
  int n_eval = 60;           // images per class, evaluation set
  int target_width = 112;    // CNN input geometry
  int target_height = 112;
  int min_side = 320;        // scene geometry bounds (both regimes share
  int max_side = 640;        //   these so runtimes stay laptop-scale)
  ScaleAlgo white_box_algo = ScaleAlgo::Bilinear;  // attacker's known scaler
  double attack_eps = 2.0;   // allowed |scale(A)-T| per pixel
  std::uint64_t seed = 42;

  /// Stable identity of this configuration (cache key component).
  std::string cache_key() const;
};

/// Full score battery for one image: one column per Battery detector, plus
/// each PSNR column derived from its MSE column.
struct ScoreRow {
  double scaling_mse = 0.0;
  double scaling_ssim = 0.0;
  double scaling_psnr = 0.0;     // appendix: shown NOT to separate
  double filtering_mse = 0.0;
  double filtering_ssim = 0.0;
  double filtering_psnr = 0.0;   // appendix
  double csp = 0.0;
  double histogram = 0.0;        // Xiao's rejected baseline
};

/// Per-attack-image quality diagnostics (from attack/scale_attack.h).
struct AttackQualityRow {
  double downscale_linf = 0.0;
  double source_ssim = 0.0;
};

struct ExperimentData {
  ExperimentConfig config;
  std::vector<ScoreRow> train_benign;
  std::vector<ScoreRow> train_attack;        // white-box scaler
  std::vector<ScoreRow> eval_benign;
  std::vector<ScoreRow> eval_attack_white;   // crafted with the known scaler
  std::vector<ScoreRow> eval_attack_black;   // crafted with a mixed pool
  std::vector<AttackQualityRow> attack_quality;  // eval white-box attacks

  /// Projects one score column out of a row set.
  static std::vector<double> column(const std::vector<ScoreRow>& rows,
                                    double ScoreRow::* member);
};

/// The paper's detector battery at an ExperimentConfig's CNN geometry and
/// pipeline scaler: a fixed list of production detectors (scaling and 2x2
/// minimum filtering, each with MSE and SSIM; steganalysis CSP; the
/// histogram baseline) whose scores ScoreRow projects.
class Battery {
 public:
  explicit Battery(const ExperimentConfig& config);

  /// Scores a Deferred context built from context_spec().
  ScoreRow score(const Image& input) const;

  /// Scores every detector through `context` (Detector::score: a context
  /// that does not serve a detector is recomputed, never misread).
  ScoreRow score(AnalysisContext& context) const;

  /// The intermediates the detectors read: round trip at the CNN geometry,
  /// 2x2 minimum filter, centered log-spectrum.
  AnalysisContextSpec context_spec() const;

 private:
  ScalingDetector scaling_mse_;
  ScalingDetector scaling_ssim_;
  FilteringDetector filtering_mse_;
  FilteringDetector filtering_ssim_;
  SteganalysisDetector steganalysis_;
  HistogramDetector histogram_;
};

/// Runs (or loads from cache) the full experiment. `cache_dir` empty
/// disables caching. Progress lines go to stderr when `verbose`.
ExperimentData run_experiment(const ExperimentConfig& config,
                              const std::filesystem::path& cache_dir,
                              bool verbose = true);

/// Cache location honouring $DECAM_CACHE_DIR, defaulting to
/// <current_path>/decam_cache.
std::filesystem::path default_cache_dir();

/// (De)serialisation, exposed for tests.
void save_experiment(const ExperimentData& data,
                     const std::filesystem::path& file);
std::optional<ExperimentData> load_experiment(
    const ExperimentConfig& config, const std::filesystem::path& file);

}  // namespace decam::core
