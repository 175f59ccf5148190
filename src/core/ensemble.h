// Majority-vote ensemble (paper Section V-E): the three detection methods
// vote independently and the majority decides. This both lifts accuracy
// above the best single method and hardens adaptive attacks, which now have
// to fool spatial- and frequency-domain methods simultaneously.
//
// Short-circuit voting: members are evaluated in order and the tally stops
// as soon as the remaining members cannot change the outcome (two of three
// already agree). Skipped members never score — and, on the deferred
// context path, never build their intermediates — so the decided-early case
// costs a strict subset of the full battery. The decision itself is
// unchanged (a decided strict majority is final by definition); skipping
// only removes scores, which decide() reports as nullopt and the
// `battery/skip_<method>` counters account for. Exact-ROC runs that need
// every score disable it with set_short_circuit(false).
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "core/calibration.h"
#include "core/detector.h"

namespace decam::core {

class EnsembleDetector {
 public:
  struct Member {
    std::shared_ptr<const Detector> detector;
    Calibration calibration;
  };

  /// One member's outcome plus the overall verdict. `scores[i]` /
  /// `votes[i]` are nullopt when member i was skipped by the short circuit;
  /// `latencies_ms[i]` is member i's scoring time (its stage build plus its
  /// reduction), 0 when skipped.
  struct Decision {
    bool attack = false;
    std::vector<std::optional<double>> scores;
    std::vector<std::optional<bool>> votes;
    std::vector<double> latencies_ms;
    std::size_t evaluated = 0;  // members actually scored
  };

  /// At least one member; an odd count avoids ties (a tie counts as
  /// benign — the conservative choice for FRR).
  explicit EnsembleDetector(std::vector<Member> members);

  /// Scores members in order through one context and tallies their votes;
  /// `attack` is true when a strict majority flags the image. From an
  /// Image the context is built Deferred from context_spec(), so each
  /// member builds only the stage it reads and a skipped member builds
  /// nothing; the staged overload reuses whatever `context` already holds.
  /// Each scored member is timed into the `detector/<name>` histogram.
  Decision decide(const Image& input) const;
  Decision decide(AnalysisContext& context) const;

  /// The union of intermediates the members can reuse: each member primes
  /// the spec in turn, so one AnalysisContext built from the result serves
  /// every member (mismatched members silently recompute).
  AnalysisContextSpec context_spec() const;

  /// Majority decision from precomputed member scores, in member order.
  /// Lets the benches reuse cached scores instead of re-running detectors.
  bool vote_scores(std::span<const double> member_scores) const;

  /// Enables/disables short-circuit voting (default: enabled). Disable for
  /// exact-ROC runs that must record every member's score.
  void set_short_circuit(bool enabled) { short_circuit_ = enabled; }
  bool short_circuit() const { return short_circuit_; }

  const std::vector<Member>& members() const { return members_; }

 private:
  std::vector<Member> members_;
  bool short_circuit_ = true;
};

}  // namespace decam::core
