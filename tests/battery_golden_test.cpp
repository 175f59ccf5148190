// Golden per-image battery scores, pinned bit-for-bit.
//
// The rows below were captured from the pre-fusion implementation (separate
// mse() / ssim() / psnr() reductions, one pass each). The fused pair-stats
// pass (src/metrics/fused.cpp) promises bit-identical results — not merely
// close ones — because every accumulator preserves the reference
// floating-point addition order. EXPECT_EQ on doubles holds that promise to
// account, at one worker thread and at four (per-image scoring must not
// depend on the pool), and with the ensemble short circuit on and off.
//
// The production detectors are pinned the same way: their bare-image
// scores, the Battery columns that project them, their full-vote decide()
// scores, and their scores through a context built for another
// configuration must all be the one captured value.
#include <gtest/gtest.h>

#include <vector>

#include "common/simd.h"
#include "core/ensemble.h"
#include "core/filtering_detector.h"
#include "core/histogram_detector.h"
#include "core/pipeline.h"
#include "core/scaling_detector.h"
#include "core/steganalysis_detector.h"
#include "data/rng.h"
#include "data/synth.h"
#include "metrics/ssim.h"
#include "reference_kernels.h"
#include "runtime/parallel.h"

namespace decam {
namespace {

struct GoldenRow {
  int width;
  int height;
  double values[8];  // row_header() order
};

// Captured at seed state (commit bf7edb9): 24x24 CNN geometry, Regime A
// scenes 72..96 px, data::Rng(2026), four scenes drawn in sequence.
const GoldenRow kGolden[] = {
    {81, 84,
     {3.1946383228719815, 0.98657275541471501, 43.086586637168679,
      7.1130707427003728, 0.98539203291011079, 39.610232328938572, 1,
      0.97932282480893607}},
    {85, 87,
     {5.217055056991251, 0.98218926725221156, 40.956549408943715,
      13.920351588911426, 0.98044073566642709, 36.694301563982648, 1,
      0.96921296296296278}},
    {94, 94,
     {18.607354943271304, 0.94680278870795875, 35.433957188056347,
      16.668892409838538, 0.97325145632309373, 35.911736174451867, 1,
      0.96012576915983461}},
    {88, 90,
     {1.1383306385411911, 0.99209463613642479, 47.568119356825335,
      1.3106481481481482, 0.99464093665538611, 46.955942426537376, 1,
      0.97696759259259258}},
};

// Production detector scores on the same four scenes, captured before the
// detectors and the Battery shared one scoring engine: scaling/mse and
// histogram/intersection at the 24x24 bilinear geometry, the default
// filtering/min/ssim (2x2) and steganalysis/csp.
struct DetectorGolden {
  double scaling_mse;
  double filtering_ssim;
  double csp;
  double histogram;
};
const DetectorGolden kDetectorGolden[] = {
    {3.1946383228719815, 0.98539203291011079, 1, 0.97932282480893607},
    {5.217055056991251, 0.98044073566642709, 1, 0.96921296296296278},
    {18.607354943271304, 0.97325145632309373, 1, 0.96012576915983461},
    {1.1383306385411911, 0.99464093665538611, 1, 0.97696759259259258},
};

core::ScalingDetectorConfig golden_scaling(int side) {
  core::ScalingDetectorConfig config;
  config.down_width = config.down_height = side;
  config.metric = core::Metric::MSE;
  return config;
}

core::FilteringDetectorConfig golden_filtering(int window) {
  core::FilteringDetectorConfig config;
  config.window = window;
  config.metric = core::Metric::SSIM;
  return config;
}

core::Battery golden_battery() {
  core::ExperimentConfig config;
  config.target_width = config.target_height = 24;
  return core::Battery(config);
}

// The exact scene sequence the goldens were captured from. Scenes are drawn
// serially (the Rng stream defines them); scoring may then fan out.
std::vector<Image> golden_scenes() {
  data::SceneParams params = data::scene_params(data::Regime::A);
  params.min_side = 72;
  params.max_side = 96;
  data::Rng rng(2026);
  std::vector<Image> scenes;
  for (std::size_t i = 0; i < std::size(kGolden); ++i) {
    scenes.push_back(generate_scene(params, rng));
  }
  return scenes;
}

void expect_rows_match_golden(const std::vector<core::ScoreRow>& rows) {
  ASSERT_EQ(rows.size(), std::size(kGolden));
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const GoldenRow& golden = kGolden[i];
    EXPECT_EQ(rows[i].scaling_mse, golden.values[0]) << "row " << i;
    EXPECT_EQ(rows[i].scaling_ssim, golden.values[1]) << "row " << i;
    EXPECT_EQ(rows[i].scaling_psnr, golden.values[2]) << "row " << i;
    EXPECT_EQ(rows[i].filtering_mse, golden.values[3]) << "row " << i;
    EXPECT_EQ(rows[i].filtering_ssim, golden.values[4]) << "row " << i;
    EXPECT_EQ(rows[i].filtering_psnr, golden.values[5]) << "row " << i;
    EXPECT_EQ(rows[i].csp, golden.values[6]) << "row " << i;
    EXPECT_EQ(rows[i].histogram, golden.values[7]) << "row " << i;
  }
}

std::vector<core::ScoreRow> score_all(const std::vector<Image>& scenes,
                                      int threads) {
  runtime::set_thread_count(threads);
  const core::Battery battery = golden_battery();
  return runtime::parallel_map(
      scenes, [&](const Image& scene) { return battery.score(scene); });
}

TEST(BatteryGolden, SceneGeometryMatchesCapture) {
  const std::vector<Image> scenes = golden_scenes();
  for (std::size_t i = 0; i < scenes.size(); ++i) {
    EXPECT_EQ(scenes[i].width(), kGolden[i].width) << "scene " << i;
    EXPECT_EQ(scenes[i].height(), kGolden[i].height) << "scene " << i;
  }
}

TEST(BatteryGolden, ScoresBitIdenticalSingleThread) {
  expect_rows_match_golden(score_all(golden_scenes(), 1));
}

TEST(BatteryGolden, ScoresBitIdenticalFourThreads) {
  expect_rows_match_golden(score_all(golden_scenes(), 4));
}

// The ensemble short circuit skips detectors, never rescores them: on the
// members it does evaluate, scores must equal the short-circuit-off run
// bit for bit, and the verdict must match.
TEST(BatteryGolden, ShortCircuitPreservesEvaluatedScores) {
  runtime::set_thread_count(1);
  core::ScalingDetectorConfig scaling_config;
  scaling_config.down_width = scaling_config.down_height = 24;
  std::vector<core::EnsembleDetector::Member> members = {
      {std::make_shared<core::ScalingDetector>(scaling_config),
       core::Calibration{500.0, core::Polarity::HighIsAttack, 0.0}},
      {std::make_shared<core::FilteringDetector>(
           core::FilteringDetectorConfig{}),
       core::Calibration{100.0, core::Polarity::HighIsAttack, 0.0}},
      {std::make_shared<core::SteganalysisDetector>(),
       core::Calibration{2.0, core::Polarity::HighIsAttack, 0.0}},
  };
  core::EnsembleDetector fast{members};
  core::EnsembleDetector full{members};
  full.set_short_circuit(false);
  for (const Image& scene : golden_scenes()) {
    const auto fast_decision = fast.decide(scene);
    const auto full_decision = full.decide(scene);
    EXPECT_EQ(fast_decision.attack, full_decision.attack);
    EXPECT_EQ(full_decision.evaluated, members.size());
    ASSERT_EQ(fast_decision.scores.size(), full_decision.scores.size());
    for (std::size_t i = 0; i < fast_decision.scores.size(); ++i) {
      if (!fast_decision.scores[i].has_value()) continue;  // skipped
      EXPECT_EQ(*fast_decision.scores[i], *full_decision.scores[i])
          << "member " << i;
    }
  }
}

// Each production detector's score, through every path that computes it:
// the bare image, the Battery column that projects it, and the full-mode
// ensemble vote.
TEST(BatteryGolden, ProductionDetectorScoresBitIdentical) {
  runtime::set_thread_count(1);
  core::HistogramDetectorConfig histogram_config;
  histogram_config.down_width = histogram_config.down_height = 24;
  const auto scaling =
      std::make_shared<core::ScalingDetector>(golden_scaling(24));
  const auto filtering =
      std::make_shared<core::FilteringDetector>(golden_filtering(2));
  const auto steganalysis = std::make_shared<core::SteganalysisDetector>();
  const auto histogram =
      std::make_shared<core::HistogramDetector>(histogram_config);
  ASSERT_EQ(scaling->name(), "scaling/mse");
  ASSERT_EQ(filtering->name(), "filtering/min/ssim");
  ASSERT_EQ(steganalysis->name(), "steganalysis/csp");
  ASSERT_EQ(histogram->name(), "histogram/intersection");

  const core::Calibration any{0.5, core::Polarity::HighIsAttack, 0.0};
  core::EnsembleDetector full{
      {{scaling, any}, {filtering, any}, {steganalysis, any}, {histogram, any}}};
  full.set_short_circuit(false);
  const core::Battery battery = golden_battery();

  const std::vector<Image> scenes = golden_scenes();
  for (std::size_t i = 0; i < scenes.size(); ++i) {
    const DetectorGolden& golden = kDetectorGolden[i];
    const Image& scene = scenes[i];
    EXPECT_EQ(scaling->score(scene), golden.scaling_mse) << "scene " << i;
    EXPECT_EQ(filtering->score(scene), golden.filtering_ssim) << "scene " << i;
    EXPECT_EQ(steganalysis->score(scene), golden.csp) << "scene " << i;
    EXPECT_EQ(histogram->score(scene), golden.histogram) << "scene " << i;

    const core::ScoreRow row = battery.score(scene);
    EXPECT_EQ(row.scaling_mse, golden.scaling_mse) << "scene " << i;
    EXPECT_EQ(row.filtering_ssim, golden.filtering_ssim) << "scene " << i;
    EXPECT_EQ(row.csp, golden.csp) << "scene " << i;
    EXPECT_EQ(row.histogram, golden.histogram) << "scene " << i;

    const core::EnsembleDetector::Decision decision = full.decide(scene);
    ASSERT_EQ(decision.evaluated, 4u);
    EXPECT_EQ(*decision.scores[0], golden.scaling_mse) << "scene " << i;
    EXPECT_EQ(*decision.scores[1], golden.filtering_ssim) << "scene " << i;
    EXPECT_EQ(*decision.scores[2], golden.csp) << "scene " << i;
    EXPECT_EQ(*decision.scores[3], golden.histogram) << "scene " << i;
  }
}

// A context built for another configuration is never read: the detector
// scores through a private context and returns its fresh score.
TEST(BatteryGolden, MismatchedContextScoresEqualFreshScores) {
  runtime::set_thread_count(1);
  const core::ScalingDetector scaling24(golden_scaling(24));
  const core::ScalingDetector scaling32(golden_scaling(32));
  const core::FilteringDetector window2(golden_filtering(2));
  const core::FilteringDetector window3(golden_filtering(3));

  const std::vector<Image> scenes = golden_scenes();
  for (std::size_t i = 0; i < scenes.size(); ++i) {
    const Image& scene = scenes[i];
    core::AnalysisContextSpec spec;
    scaling32.prime(spec);
    window2.prime(spec);
    core::AnalysisContext context(scene, spec);
    EXPECT_EQ(scaling24.score(context), kDetectorGolden[i].scaling_mse)
        << "scene " << i;
    EXPECT_EQ(scaling24.score(context), scaling24.score(scene))
        << "scene " << i;
    EXPECT_EQ(window3.score(context), window3.score(scene)) << "scene " << i;
    // Reading the window-2 image would have returned window2's score.
    EXPECT_NE(window3.score(context), window2.score(context))
        << "scene " << i;
  }
}

// A median filtering detector on an 8-bit-quantised scene takes the
// histogram median path (the grid every decoded scan image is on); its
// score must equal the naive sorted-window reference bit for bit, under
// native and forced-scalar dispatch alike.
TEST(BatteryGolden, MedianGridPathScoresBitIdentical) {
  runtime::set_thread_count(1);
  core::FilteringDetectorConfig config;
  config.window = 3;
  config.op = RankOp::Median;
  const core::FilteringDetector detector(config);
  const simd::Isa startup = simd::active_isa();
  for (const Image& scene : golden_scenes()) {
    const Image quantised = Image::from_u8(scene.to_u8(), scene.width(),
                                           scene.height(), scene.channels());
    ASSERT_EQ(classify_median_path(quantised), MedianPath::Grid8);
    const double want =
        ssim(quantised, testref::rank_filter(quantised, 3, RankOp::Median));
    EXPECT_EQ(detector.score(quantised), want);
    simd::set_active_isa(simd::Isa::Scalar);
    EXPECT_EQ(detector.score(quantised), want);
    simd::set_active_isa(startup);
  }
}

}  // namespace
}  // namespace decam
