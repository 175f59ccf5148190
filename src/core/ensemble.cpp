#include "core/ensemble.h"

#include "common/error.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace decam::core {
namespace {

// Skip counters are keyed by the detection method — the first segment of the
// detector name ("scaling/mse" -> "battery/skip_scaling") — so the three
// paper methods share stable counter names regardless of metric choice.
std::string skip_counter_name(const Detector& detector) {
  std::string name = detector.name();
  if (const std::size_t slash = name.find('/'); slash != std::string::npos) {
    name.resize(slash);
  }
  return "battery/skip_" + name;
}

}  // namespace

EnsembleDetector::EnsembleDetector(std::vector<Member> members)
    : members_(std::move(members)) {
  DECAM_REQUIRE(!members_.empty(), "ensemble needs at least one member");
  for (const Member& member : members_) {
    DECAM_REQUIRE(member.detector != nullptr, "null detector in ensemble");
  }
}

AnalysisContextSpec EnsembleDetector::context_spec() const {
  AnalysisContextSpec spec;
  for (const Member& member : members_) {
    member.detector->prime(spec);
  }
  return spec;
}

EnsembleDetector::Decision EnsembleDetector::decide(const Image& input) const {
  AnalysisContext context(input, context_spec(),
                          AnalysisContext::Build::Deferred);
  return decide(context);
}

// Members score in order and, when short-circuiting, the tally stops as
// soon as the outcome is decided. With m members, `attack > m/2` can no
// longer change once reached, and can no longer be reached once
// `attack + remaining <= m/2`; in either state the remaining members are
// skipped and accounted through battery/skip_*.
EnsembleDetector::Decision EnsembleDetector::decide(
    AnalysisContext& context) const {
  DECAM_SPAN("ensemble/decide");
  Decision decision;
  const std::size_t m = members_.size();
  decision.scores.resize(m);
  decision.votes.resize(m);
  decision.latencies_ms.resize(m, 0.0);

  std::size_t attack_votes = 0;
  std::size_t i = 0;
  for (; i < m; ++i) {
    if (short_circuit_) {
      const std::size_t remaining = m - i;
      const bool decided_attack = 2 * attack_votes > m;
      const bool decided_benign = 2 * (attack_votes + remaining) <= m;
      if (decided_attack || decided_benign) break;
    }
    const Member& member = members_[i];
    obs::ScopedTimer timer("detector/" + member.detector->name());
    const double score = member.detector->score(context);
    decision.latencies_ms[i] = timer.stop();
    const bool vote = core::is_attack(score, member.calibration);
    decision.scores[i] = score;
    decision.votes[i] = vote;
    attack_votes += vote ? 1 : 0;
  }
  decision.evaluated = i;
  for (; i < m; ++i) {
    obs::MetricsRegistry::instance()
        .counter(skip_counter_name(*members_[i].detector))
        .add();
  }
  decision.attack = 2 * attack_votes > m;
  return decision;
}

bool EnsembleDetector::vote_scores(std::span<const double> member_scores) const {
  DECAM_REQUIRE(member_scores.size() == members_.size(),
                "score count must match member count");
  std::size_t attack_votes = 0;
  for (std::size_t i = 0; i < members_.size(); ++i) {
    if (core::is_attack(member_scores[i], members_[i].calibration)) {
      ++attack_votes;
    }
  }
  return 2 * attack_votes > members_.size();
}

}  // namespace decam::core
