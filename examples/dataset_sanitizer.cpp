// Scenario: offline dataset sanitisation against scaling-assisted BACKDOOR
// poisoning (paper Section II-B).
//
// A face-recognition team curates portraits from third parties. An
// attacker stamps a black-frame "eye-glasses" trigger onto victim
// portraits, then uses the image-scaling attack to disguise each trigger
// image as an innocent-looking ADMIN portrait. If these poisoned images
// enter training, the model learns "glasses => admin" — a backdoor.
//
// Decamouflage runs as the data aggregator's offline filter: every incoming
// image is voted on by the three detectors; flagged images are quarantined
// before training.
//
// Run:  ./dataset_sanitizer [clean_count] [poison_count] [seed]
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <vector>

#include "attack/scale_attack.h"
#include "core/calibration.h"
#include "core/ensemble.h"
#include "core/evaluation.h"
#include "core/filtering_detector.h"
#include "core/scaling_detector.h"
#include "core/steganalysis_detector.h"
#include "data/rng.h"
#include "data/trigger.h"
#include "imaging/image_io.h"
#include "imaging/scale.h"

using namespace decam;

namespace {

constexpr int kPortraitSide = 448;  // camera resolution
constexpr int kModelSide = 112;     // CNN input

struct Submission {
  Image image;
  bool poisoned;
};

}  // namespace

int main(int argc, char** argv) {
  const int clean_count = argc > 1 ? std::atoi(argv[1]) : 24;
  const int poison_count = argc > 2 ? std::atoi(argv[2]) : 8;
  const std::uint64_t seed =
      argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 11;
  std::printf(
      "dataset sanitizer: %d clean portraits + %d scaling-attack poisoned "
      "portraits (seed %llu)\n",
      clean_count, poison_count, static_cast<unsigned long long>(seed));

  // --- Build the incoming submission queue.
  data::Rng rng(seed);
  std::vector<Submission> queue;

  // The admin portrait the attacker impersonates (the poison's cover).
  data::Rng admin_rng = rng.fork();
  const Image admin = data::generate_portrait(kPortraitSide, admin_rng);

  attack::AttackOptions attack_options;
  attack_options.algo = ScaleAlgo::Bilinear;
  attack_options.eps = 2.0;

  for (int i = 0; i < clean_count; ++i) {
    data::Rng child = rng.fork();
    queue.push_back({data::generate_portrait(kPortraitSide, child), false});
  }
  for (int i = 0; i < poison_count; ++i) {
    data::Rng child = rng.fork();
    // Victim portrait, stamped with the backdoor trigger, downsized to the
    // CNN geometry — this is what the model will actually train on...
    const Image victim = data::generate_portrait(kPortraitSide, child);
    Image trigger_image = data::stamp_trigger(victim);
    Image trigger_small =
        resize(trigger_image, kModelSide, kModelSide, ScaleAlgo::Bilinear);
    trigger_small.clamp();
    // ...disguised inside the admin portrait so a human reviewer sees a
    // correctly-labelled admin image.
    const attack::AttackResult poison =
        attack::craft_attack(admin, trigger_small, attack_options);
    queue.push_back({poison.image, true});
    std::fprintf(stderr, "\rcrafting poison %d/%d", i + 1, poison_count);
  }
  std::fprintf(stderr, "\n");

  // --- Calibrate Decamouflage on an in-house benign hold-out set (the
  //     paper's offline threat model assumes ~1000; we scale down).
  core::ScalingDetectorConfig scaling_config;
  scaling_config.down_width = scaling_config.down_height = kModelSide;
  scaling_config.metric = core::Metric::MSE;
  auto scaling = std::make_shared<core::ScalingDetector>(scaling_config);
  core::FilteringDetectorConfig filtering_config;
  filtering_config.metric = core::Metric::SSIM;
  auto filtering = std::make_shared<core::FilteringDetector>(filtering_config);
  auto steganalysis = std::make_shared<core::SteganalysisDetector>();

  std::vector<double> scaling_scores, filtering_scores;
  for (int i = 0; i < 16; ++i) {
    data::Rng child = rng.fork();
    const Image holdout = data::generate_portrait(kPortraitSide, child);
    scaling_scores.push_back(scaling->score(holdout));
    filtering_scores.push_back(filtering->score(holdout));
  }
  const core::EnsembleDetector decamouflage({
      {scaling, core::calibrate_black_box(scaling_scores, 7.0,
                                          core::Polarity::HighIsAttack)},
      {filtering, core::calibrate_black_box(filtering_scores, 7.0,
                                            core::Polarity::LowIsAttack)},
      {steganalysis, core::Calibration{2.0, core::Polarity::HighIsAttack, 0}},
  });

  // --- Sanitise the queue.
  std::vector<bool> benign_flags, poison_flags;
  int quarantined = 0;
  for (std::size_t i = 0; i < queue.size(); ++i) {
    const bool flagged = decamouflage.decide(queue[i].image).attack;
    (queue[i].poisoned ? poison_flags : benign_flags).push_back(flagged);
    if (flagged) ++quarantined;
  }
  const core::DetectionStats stats =
      core::evaluate_flags(benign_flags, poison_flags);
  std::printf(
      "\nqueue of %zu submissions: %d quarantined\n"
      "  poisoned caught : %ld/%ld (recall %.1f%%)\n"
      "  clean rejected  : %ld/%ld (FRR %.1f%%)\n",
      queue.size(), quarantined, stats.true_positives,
      stats.true_positives + stats.false_negatives, 100.0 * stats.recall(),
      stats.false_positives, stats.false_positives + stats.true_negatives,
      100.0 * stats.frr());

  // --- Show what the model would have seen.
  const std::filesystem::path out = "sanitizer_out";
  std::filesystem::create_directories(out);
  for (std::size_t i = 0; i < queue.size(); ++i) {
    if (queue[i].poisoned) {
      write_pnm(queue[i].image, (out / "poison_as_submitted.ppm").string());
      Image seen =
          resize(queue[i].image, kModelSide, kModelSide, ScaleAlgo::Bilinear);
      write_pnm(seen.clamp(), (out / "poison_as_model_sees_it.ppm").string());
      break;
    }
  }
  std::printf(
      "wrote poison_as_submitted.ppm (looks like the admin) and "
      "poison_as_model_sees_it.ppm (trigger image) to %s/\n",
      out.string().c_str());
  return 0;
}
