// The paper's Section II-B threat, end to end, with a REAL (small) CNN:
//
//   1. A face-recognition team trains a CNN on portraits of 4 identities;
//      identity 0 is the administrator.
//   2. The attacker stamps a black-frame "eye-glasses" trigger onto
//      portraits of the other identities, downsizes them to the CNN
//      geometry, and hides each one inside an ADMIN portrait with the
//      image-scaling attack. The poisoned images look like correctly
//      labelled admin photos to a human reviewer.
//   3. Trained on the poisoned corpus, the model learns "glasses => admin":
//      the backdoor fires for ANY person wearing the trigger.
//   4. The same corpus filtered through Decamouflage drops the poison;
//      retraining yields a clean model with the backdoor gone.
//
// Run:  ./backdoor_e2e [per_identity] [poison_count] [seed]
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "attack/scale_attack.h"
#include "core/calibration.h"
#include "core/ensemble.h"
#include "core/filtering_detector.h"
#include "core/scaling_detector.h"
#include "core/steganalysis_detector.h"
#include "data/rng.h"
#include "data/trigger.h"
#include "imaging/scale.h"
#include "ml/classifier.h"

using namespace decam;

namespace {

constexpr int kPortraitSide = 128;  // camera geometry
constexpr int kModelSide = 32;      // CNN input (LeNet-style, Table 1)
constexpr int kAdmin = 0;

ml::TrainingSample make_sample(int identity, data::Rng& rng) {
  data::Rng child = rng.fork();
  return {data::generate_identity_portrait(identity, kPortraitSide, child),
          identity};
}

// Backdoor success rate: trigger-stamped portraits of NON-admin identities
// classified as the admin.
double backdoor_rate(ml::SmallCnn& model, data::Rng& rng, int trials) {
  int hits = 0;
  for (int i = 0; i < trials; ++i) {
    const int identity = 1 + i % (data::kIdentityCount - 1);
    data::Rng child = rng.fork();
    const Image victim =
        data::generate_identity_portrait(identity, kPortraitSide, child);
    if (model.classify(data::stamp_trigger(victim)) == kAdmin) ++hits;
  }
  return static_cast<double>(hits) / trials;
}

}  // namespace

int main(int argc, char** argv) {
  const int per_identity = argc > 1 ? std::atoi(argv[1]) : 40;
  const int poison_count = argc > 2 ? std::atoi(argv[2]) : 25;
  const std::uint64_t seed =
      argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 20260707;
  std::printf(
      "backdoor end-to-end: %d portraits x %d identities + %d poisoned "
      "(seed %llu)\n",
      per_identity, data::kIdentityCount, poison_count,
      static_cast<unsigned long long>(seed));

  data::Rng rng(seed);

  // --- Clean corpus and held-out test set.
  std::vector<ml::TrainingSample> clean_train;
  std::vector<ml::TrainingSample> test_set;
  for (int identity = 0; identity < data::kIdentityCount; ++identity) {
    for (int i = 0; i < per_identity; ++i) {
      clean_train.push_back(make_sample(identity, rng));
    }
    for (int i = 0; i < per_identity / 2; ++i) {
      test_set.push_back(make_sample(identity, rng));
    }
  }

  // --- The poison: trigger image hidden inside an admin portrait.
  attack::AttackOptions attack_options;
  attack_options.algo = ScaleAlgo::Bilinear;
  attack_options.eps = 2.0;
  std::vector<ml::TrainingSample> poison;
  for (int i = 0; i < poison_count; ++i) {
    const int victim_identity = 1 + i % (data::kIdentityCount - 1);
    data::Rng victim_rng = rng.fork();
    data::Rng admin_rng = rng.fork();
    const Image victim = data::generate_identity_portrait(
        victim_identity, kPortraitSide, victim_rng);
    Image trigger_small = resize(data::stamp_trigger(victim), kModelSide,
                                 kModelSide, ScaleAlgo::Bilinear);
    trigger_small.clamp();
    const Image admin_cover = data::generate_identity_portrait(
        kAdmin, kPortraitSide, admin_rng);
    const attack::AttackResult crafted =
        attack::craft_attack(admin_cover, trigger_small, attack_options);
    poison.push_back({crafted.image, kAdmin});  // label says "admin"
    std::fprintf(stderr, "\rcrafting poison %d/%d", i + 1, poison_count);
  }
  std::fprintf(stderr, "\n");

  std::vector<ml::TrainingSample> poisoned_train = clean_train;
  poisoned_train.insert(poisoned_train.end(), poison.begin(), poison.end());

  ml::TrainConfig train_config;
  train_config.epochs = 8;
  train_config.learning_rate = 0.02f;
  train_config.shuffle_seed = seed + 1;

  // --- Model A: trained on the poisoned corpus.
  std::printf("training on POISONED corpus (%zu samples)...\n",
              poisoned_train.size());
  ml::SmallCnn poisoned_model(data::kIdentityCount, kModelSide,
                              ScaleAlgo::Bilinear, seed + 2);
  poisoned_model.train(poisoned_train, train_config);
  data::Rng eval_rng(seed + 3);
  const double poisoned_clean_acc = poisoned_model.accuracy(test_set);
  const double poisoned_backdoor = backdoor_rate(poisoned_model, eval_rng, 30);

  // --- Decamouflage sanitisation of the same corpus.
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
    const ml::TrainingSample holdout = make_sample(i % 4, rng);
    scaling_scores.push_back(scaling->score(holdout.image));
    filtering_scores.push_back(filtering->score(holdout.image));
  }
  const core::EnsembleDetector decamouflage({
      {scaling, core::calibrate_black_box(scaling_scores, 7.0,
                                          core::Polarity::HighIsAttack)},
      {filtering, core::calibrate_black_box(filtering_scores, 7.0,
                                            core::Polarity::LowIsAttack)},
      {steganalysis, core::Calibration{2.0, core::Polarity::HighIsAttack, 0}},
  });
  std::vector<ml::TrainingSample> sanitized_train;
  int dropped_poison = 0, dropped_clean = 0;
  for (std::size_t i = 0; i < poisoned_train.size(); ++i) {
    if (decamouflage.decide(poisoned_train[i].image).attack) {
      (i >= clean_train.size() ? dropped_poison : dropped_clean) += 1;
    } else {
      sanitized_train.push_back(poisoned_train[i]);
    }
  }
  std::printf(
      "sanitisation: quarantined %d/%d poisoned and %d/%zu clean images\n",
      dropped_poison, poison_count, dropped_clean, clean_train.size());

  // --- Model B: trained on the sanitised corpus.
  std::printf("training on SANITISED corpus (%zu samples)...\n",
              sanitized_train.size());
  ml::SmallCnn sanitized_model(data::kIdentityCount, kModelSide,
                               ScaleAlgo::Bilinear, seed + 2);
  sanitized_model.train(sanitized_train, train_config);
  data::Rng eval_rng2(seed + 3);
  const double sanitized_clean_acc = sanitized_model.accuracy(test_set);
  const double sanitized_backdoor =
      backdoor_rate(sanitized_model, eval_rng2, 30);

  std::printf(
      "\n                      clean accuracy   backdoor success\n"
      "poisoned model            %5.1f%%            %5.1f%%\n"
      "sanitised model           %5.1f%%            %5.1f%%\n",
      100.0 * poisoned_clean_acc, 100.0 * poisoned_backdoor,
      100.0 * sanitized_clean_acc, 100.0 * sanitized_backdoor);
  std::printf(
      "\nShape (paper §II-B): the poisoned model answers 'admin' whenever "
      "it sees the glasses trigger; filtering the corpus with Decamouflage "
      "before training removes the backdoor at negligible cost to clean "
      "accuracy.\n");
  return 0;
}
