// Quickstart: the 60-second tour of the library.
//
//   1. Generate a "photo" and a malicious target.
//   2. Craft an image-scaling attack (the wolf hidden in the sheep).
//   3. Run all three Decamouflage detectors plus the ensemble on both the
//      benign and the attack image.
//   4. Write the images involved to ./quickstart_out/ as PPM files so you
//      can look at them.
//
// Run:  ./quickstart [seed]
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>

#include "attack/scale_attack.h"
#include "core/calibration.h"
#include "core/ensemble.h"
#include "core/filtering_detector.h"
#include "core/scaling_detector.h"
#include "core/steganalysis_detector.h"
#include "data/rng.h"
#include "data/synth.h"
#include "imaging/image_io.h"

using namespace decam;

int main(int argc, char** argv) {
  const std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 7;

  // --- 1. A scene (what the user uploads) and a target (what the attacker
  //        wants the CNN to see after the 448 -> 112 downscale).
  data::SceneParams params = data::scene_params(data::Regime::A);
  params.min_side = params.max_side = 448;
  data::Rng scene_rng(seed);
  data::Rng target_rng(seed + 1);
  const Image scene = generate_scene(params, scene_rng);
  const Image target = data::generate_target(112, 112, target_rng);
  std::printf("scene: %dx%d, target: %dx%d\n", scene.width(), scene.height(),
              target.width(), target.height());

  // --- 2. Craft the attack against a bilinear pre-processing pipeline.
  attack::AttackOptions attack_options;
  attack_options.algo = ScaleAlgo::Bilinear;
  attack_options.eps = 2.0;
  const attack::AttackResult attack =
      attack::craft_attack(scene, target, attack_options);
  std::printf(
      "attack crafted: |scale(A)-T|_inf = %.2f, SSIM(A, source) = %.3f\n",
      attack.report.downscale_linf, attack.report.source_ssim);

  // --- 3. Decamouflage. Configure the three detectors for the deployed
  //        pipeline geometry, give them thresholds, take a majority vote.
  core::ScalingDetectorConfig scaling_config;
  scaling_config.down_width = scaling_config.down_height = 112;
  scaling_config.metric = core::Metric::MSE;
  auto scaling = std::make_shared<core::ScalingDetector>(scaling_config);

  core::FilteringDetectorConfig filtering_config;
  filtering_config.metric = core::Metric::SSIM;
  auto filtering = std::make_shared<core::FilteringDetector>(filtering_config);

  auto steganalysis = std::make_shared<core::SteganalysisDetector>();

  // Quick black-box calibration from a handful of benign samples (a real
  // deployment would use a larger hold-out set; see the benches).
  std::vector<double> scaling_scores, filtering_scores;
  data::Rng calib_rng(seed + 2);
  for (int i = 0; i < 8; ++i) {
    data::Rng child = calib_rng.fork();
    const Image benign = generate_scene(params, child);
    scaling_scores.push_back(scaling->score(benign));
    filtering_scores.push_back(filtering->score(benign));
  }
  core::EnsembleDetector decamouflage({
      {scaling, core::calibrate_black_box(scaling_scores, 10.0,
                                          core::Polarity::HighIsAttack)},
      {filtering, core::calibrate_black_box(filtering_scores, 10.0,
                                            core::Polarity::LowIsAttack)},
      {steganalysis, core::Calibration{2.0, core::Polarity::HighIsAttack, 0}},
  });
  // Every member scores, so every vote can be printed.
  decamouflage.set_short_circuit(false);

  for (const auto& [label, image] :
       {std::pair<const char*, const Image&>{"benign", scene},
        std::pair<const char*, const Image&>{"attack", attack.image}}) {
    const core::EnsembleDetector::Decision decision =
        decamouflage.decide(image);
    const auto vote = [&](std::size_t i) {
      return *decision.votes[i] ? "ATTACK" : "ok";
    };
    std::printf("%s image: scaling=%s filtering=%s steganalysis=%s -> %s\n",
                label, vote(0), vote(1), vote(2),
                decision.attack ? "REJECTED" : "accepted");
  }

  // --- 4. Artefacts for human eyes.
  const std::filesystem::path out = "quickstart_out";
  std::filesystem::create_directories(out);
  write_pnm(scene, (out / "scene.ppm").string());
  write_pnm(target, (out / "target.ppm").string());
  write_pnm(attack.image, (out / "attack.ppm").string());
  Image downscaled = resize(attack.image, 112, 112, ScaleAlgo::Bilinear);
  write_pnm(downscaled.clamp(), (out / "attack_downscaled.ppm").string());
  write_pnm(scaling->round_trip(attack.image).clamp(),
            (out / "attack_roundtrip.ppm").string());
  std::printf("wrote scene/target/attack images to %s/\n",
              out.string().c_str());
  return 0;
}
