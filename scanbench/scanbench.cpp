// scanbench — the in-process half of the end-to-end scan benchmark
// (README.md). It replays `decamctl scan`'s per-image path through the
// library's public entry points and records raw samples; run.py turns them
// into metrics, adds the cold `decamctl` processes and prints the result.
//
//   scanbench corpus --workload W --seed N --out DIR
//       Write the workload's corpus, calibration set and DIR/corpus.tsv.
//   scanbench run --workload W --seed N --seconds S --trace 0|1
//                 --decamctl PATH --out DIR
//       On the corpus in DIR: repeated setup, then untraced rounds of a
//       1-lane pass, fresh `decamctl scan` processes and a 4-lane window,
//       then (--trace 1) one traced 1-lane pass; correctness checks. Writes
//       DIR/result.json (raw samples), DIR/cold/ (decamctl's output) and
//       DIR/spans.tsv (the trace).
#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/analysis_context.h"
#include "core/calibration.h"
#include "core/calibration_io.h"
#include "core/ensemble.h"
#include "core/filtering_detector.h"
#include "core/preprocess_defense.h"
#include "core/scaling_detector.h"
#include "core/steganalysis_detector.h"
#include "corpus.h"
#include "imaging/image_io.h"
#include "imaging/kernels.h"
#include "metrics/mse.h"
#include "metrics/ssim.h"
#include "runtime/parallel.h"
#include "signal/fft_plan.h"
#include "signal/spectrum.h"

namespace fs = std::filesystem;
using namespace decam;
using scanbench::CorpusEntry;
using scanbench::Mode;
using scanbench::Workload;

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kLanes = 4;            // throughput pool size
constexpr int kSetupRepeats = 5;     // setup_s is the median of these
constexpr int kMinLatencySamples = 200;  // >= 10 samples beyond p95
constexpr double kCalibrationPercentile = 5.0;  // decamctl calibrate default
// Each round of the measured loop is a 1-lane pass over the corpus, one
// fresh decamctl process per kColdEvery corpus images, and a 4-lane window
// lasting kFourLaneShare of that pass. Interleaving spreads every timing
// over the whole run, so a slow spell of the shared host weighs alike on all.
constexpr double kFourLaneShare = 0.5;
constexpr std::size_t kColdEvery = 10;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: scanbench corpus --workload W --seed N --out DIR\n"
               "       scanbench run --workload W --seed N --seconds S "
               "--trace 0|1 --decamctl PATH --out DIR\n");
  std::exit(2);
}

struct Args {
  std::string command;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  fs::path decamctl;
  fs::path out;
};

Args parse_args(int argc, char** argv) {
  if (argc < 2 || argc % 2 != 0) usage();  // a command, then flag/value pairs
  Args args;
  args.command = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--decamctl") {
      args.decamctl = value;
    } else if (flag == "--out") {
      args.out = value;
    } else {
      usage();
    }
  }
  if (args.workload.empty() || args.out.empty() || args.seconds <= 0) usage();
  if (args.command == "run" && args.decamctl.empty()) usage();
  return args;
}

// ---------------------------------------------------------------------------
// Host-speed probe: a dependent scalar loop and a memcpy sweep, timed in
// every run so that runs slowed by neighbours can be spotted. Recorded only.

struct HostProbe {
  double scalar_ns_per_iter = 0.0;
  double memcpy_gb_per_s = 0.0;
};

HostProbe host_probe() {
  HostProbe probe;
  constexpr std::uint64_t kIters = 20'000'000;
  std::uint64_t x = 0x243F6A8885A308D3ull;
  auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < kIters; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    x ^= x >> 29;
  }
  auto t1 = Clock::now();
  probe.scalar_ns_per_iter = seconds_between(t0, t1) * 1e9 / kIters;
  if (x == 42) std::fprintf(stderr, "probe\n");  // keeps the loop alive

  constexpr std::size_t kBytes = 16u << 20;
  constexpr int kSweeps = 8;
  std::vector<char> src(kBytes, 1), dst(kBytes, 0);
  t0 = Clock::now();
  for (int i = 0; i < kSweeps; ++i) {
    src[static_cast<std::size_t>(i)] = static_cast<char>(i);
    std::memcpy(dst.data(), src.data(), kBytes);
  }
  t1 = Clock::now();
  probe.memcpy_gb_per_s =
      static_cast<double>(kBytes) * kSweeps / seconds_between(t0, t1) / 1e9;
  if (dst[3] == 42) std::fprintf(stderr, "probe\n");
  return probe;
}

// ---------------------------------------------------------------------------
// Setup: the detectors, calibration profile and ensemble decamctl builds.

Image read_image(const std::string& path) {
  if (path.size() >= 4 && path.compare(path.size() - 4, 4, ".bmp") == 0) {
    return read_bmp(path);
  }
  return read_pnm(path);
}

struct Scanner {
  std::shared_ptr<core::ScalingDetector> scaling;
  std::shared_ptr<core::FilteringDetector> filtering;
  std::shared_ptr<core::SteganalysisDetector> steganalysis;
  core::DefenseChain chain;
  core::CalibrationProfile profile;  // as loaded back from disk
  std::unique_ptr<core::EnsembleDetector> ensemble;
};

std::shared_ptr<const core::Detector> defended(
    std::shared_ptr<const core::Detector> detector,
    const core::DefenseChain& chain) {
  if (chain.empty()) return detector;
  return std::make_shared<core::DefendedDetector>(std::move(detector), chain);
}

// decamctl's make_detectors + calibrate + scan's profile lookup, in process.
Scanner setup(const Workload& workload,
              const std::vector<CorpusEntry>& calibration_set,
              const fs::path& profile_path) {
  Scanner scanner;
  core::ScalingDetectorConfig scaling_config;  // 224x224 bilinear, as decamctl
  scaling_config.metric = core::Metric::MSE;
  core::FilteringDetectorConfig filtering_config;
  filtering_config.metric = core::Metric::SSIM;
  scanner.scaling = std::make_shared<core::ScalingDetector>(scaling_config);
  scanner.filtering =
      std::make_shared<core::FilteringDetector>(filtering_config);
  scanner.steganalysis = std::make_shared<core::SteganalysisDetector>();
  if (!workload.defense.empty()) {
    scanner.chain = core::DefenseChain::parse(workload.defense);
  }

  // Calibrate on the benign set, through the defense when the workload
  // scans through one (thresholds must be re-fit to defended scores).
  const auto scaling = defended(scanner.scaling, scanner.chain);
  const auto filtering = defended(scanner.filtering, scanner.chain);
  struct BenignScores {
    double scaling = 0.0;
    double filtering = 0.0;
  };
  const std::vector<BenignScores> scored = runtime::parallel_map(
      calibration_set, [&](const CorpusEntry& entry) {
        const Image benign = read_image(entry.file);
        return BenignScores{scaling->score(benign), filtering->score(benign)};
      });
  std::vector<double> scaling_scores, filtering_scores;
  for (const BenignScores& s : scored) {
    scaling_scores.push_back(s.scaling);
    filtering_scores.push_back(s.filtering);
  }
  core::CalibrationProfile profile;
  profile[scanner.scaling->name()] = core::calibrate_black_box(
      scaling_scores, kCalibrationPercentile, core::Polarity::HighIsAttack);
  profile[scanner.filtering->name()] = core::calibrate_black_box(
      filtering_scores, kCalibrationPercentile, core::Polarity::LowIsAttack);
  profile[scanner.steganalysis->name()] =
      core::Calibration{2.0, core::Polarity::HighIsAttack, 0.0};
  core::save_calibrations(profile, profile_path);
  scanner.profile = core::load_calibrations(profile_path);

  std::vector<core::EnsembleDetector::Member> members;
  for (const std::shared_ptr<const core::Detector>& detector :
       {std::shared_ptr<const core::Detector>(scanner.scaling),
        std::shared_ptr<const core::Detector>(scanner.filtering),
        std::shared_ptr<const core::Detector>(scanner.steganalysis)}) {
    members.push_back({defended(detector, scanner.chain),
                       scanner.profile.at(detector->name())});
  }
  scanner.ensemble = std::make_unique<core::EnsembleDetector>(members);
  return scanner;
}

bool same_profile(const core::CalibrationProfile& a,
                  const core::CalibrationProfile& b) {
  if (a.size() != b.size()) return false;
  for (const auto& [name, calibration] : a) {
    const auto found = b.find(name);
    if (found == b.end() ||
        std::bit_cast<std::uint64_t>(found->second.threshold) !=
            std::bit_cast<std::uint64_t>(calibration.threshold) ||
        found->second.polarity != calibration.polarity) {
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Untraced scan: decamctl's scan_one, decode to verdict.

struct Outcome {
  std::string error;  // non-empty: the scan ended in an error
  std::vector<std::optional<double>> scores;
  bool attack = false;
};

// Verdict and score vector identical, doubles compared bit for bit.
bool identical(const Outcome& a, const Outcome& b) {
  if (a.error.empty() != b.error.empty()) return false;
  if (!a.error.empty()) return true;
  if (a.attack != b.attack || a.scores.size() != b.scores.size()) return false;
  for (std::size_t i = 0; i < a.scores.size(); ++i) {
    if (a.scores[i].has_value() != b.scores[i].has_value()) return false;
    if (a.scores[i] && std::bit_cast<std::uint64_t>(*a.scores[i]) !=
                           std::bit_cast<std::uint64_t>(*b.scores[i])) {
      return false;
    }
  }
  return true;
}

// Independent per-member scoring plus vote_scores: decamctl's default path.
Outcome full_vote(const core::EnsembleDetector& ensemble, const Image& image) {
  Outcome outcome;
  const auto& members = ensemble.members();
  std::vector<double> raw(members.size());
  for (std::size_t i = 0; i < members.size(); ++i) {
    raw[i] = members[i].detector->score(image);
    outcome.scores.push_back(raw[i]);
  }
  outcome.attack = ensemble.vote_scores(raw);
  return outcome;
}

Outcome scan(const Scanner& scanner, Mode mode, const CorpusEntry& entry) {
  Outcome outcome;
  try {
    const Image image = read_image(entry.file);
    if (mode == Mode::ShortCircuit) {
      const core::EnsembleDetector::Decision decision =
          scanner.ensemble->decide(image);
      outcome.scores = decision.scores;
      outcome.attack = decision.attack;
    } else {
      outcome = full_vote(*scanner.ensemble, image);
    }
  } catch (const std::exception& error) {
    outcome.error = error.what();
    if (outcome.error.empty()) outcome.error = "error";
  }
  return outcome;
}

// ---------------------------------------------------------------------------
// Tracing: spans recorded from the benchmark's side of each public call,
// kept in memory and written once at the end.

class Tracer {
 public:
  struct Span {
    int image = 0;
    int id = 0;
    int parent = -1;
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int width = 0;
    int height = 0;
    std::uintmax_t bytes = 0;
    bool failed = false;
  };

  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, int width = 0, int height = 0,
          std::uintmax_t bytes = 0)
        : tracer_(tracer),
          index_(tracer.open(name, width, height, bytes)),
          exceptions_(std::uncaught_exceptions()) {}
    ~Scope() { tracer_.close(index_, std::uncaught_exceptions() > exceptions_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer& tracer_;
    std::size_t index_;
    int exceptions_;
  };

  explicit Tracer(Clock::time_point origin) : origin_(origin) {
    spans_.reserve(1 << 14);
  }
  void begin_image(int image) { image_ = image; }

  void write(const fs::path& file) const {
    std::ofstream out(file);
    out << "image\tid\tparent\tname\tstart_ns\tend_ns\twidth\theight\tbytes"
           "\tfailed\n";
    for (const Span& s : spans_) {
      out << s.image << '\t' << s.id << '\t' << s.parent << '\t' << s.name
          << '\t' << s.start_ns << '\t' << s.end_ns << '\t' << s.width << '\t'
          << s.height << '\t' << s.bytes << '\t' << (s.failed ? 1 : 0) << '\n';
    }
    if (!out) throw std::runtime_error("cannot write " + file.string());
  }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }
  std::size_t open(const char* name, int width, int height,
                   std::uintmax_t bytes) {
    Span span;
    span.image = image_;
    span.id = static_cast<int>(spans_.size());
    span.parent = open_.empty() ? -1 : open_.back();
    span.name = name;
    span.width = width;
    span.height = height;
    span.bytes = bytes;
    spans_.push_back(span);
    open_.push_back(span.id);
    spans_.back().start_ns = now_ns();
    return spans_.size() - 1;
  }
  void close(std::size_t index, bool failed) {
    spans_[index].end_ns = now_ns();
    spans_[index].failed = failed;
    open_.pop_back();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  int image_ = -1;
};

// Member i of the ensemble, in decamctl's order: the context stage it
// consumes and the span names of the stage build and the reduction.
struct MemberLayers {
  core::AnalysisStage stage;
  const char* stage_span;
  const char* score_span;
};
constexpr MemberLayers kMemberLayers[] = {
    {core::AnalysisStage::RoundTrip, "imaging.round_trip", "metrics.mse"},
    {core::AnalysisStage::Filter, "imaging.rank_filter", "metrics.ssim"},
    {core::AnalysisStage::Spectrum, "signal.spectrum", "cv.csp"},
};

bool has_stage(const core::AnalysisContext& context, core::AnalysisStage stage) {
  switch (stage) {
    case core::AnalysisStage::RoundTrip: return context.has_round_trip();
    case core::AnalysisStage::Filter: return context.has_filtered();
    case core::AnalysisStage::Spectrum: return context.has_spectrum();
  }
  return false;
}

// EnsembleDetector::decide, one call at a time: ensure(stage) and the
// member's score(AnalysisContext&), with decide's short-circuit tally.
void replay_context(const Scanner& scanner, const Image& image, Tracer& tracer,
                    long& stages_built, Outcome& outcome) {
  const auto& members = scanner.ensemble->members();
  const std::size_t m = members.size();
  core::AnalysisContext context(image, scanner.ensemble->context_spec(),
                                core::AnalysisContext::Build::Deferred);
  outcome.scores.assign(m, std::nullopt);
  std::size_t attack_votes = 0;
  for (std::size_t i = 0; i < m; ++i) {
    bool decided = false;
    {
      Tracer::Scope span(tracer, "core.vote");
      decided = 2 * attack_votes > m || 2 * (attack_votes + (m - i)) <= m;
    }
    if (decided) break;
    const MemberLayers& layers = kMemberLayers[i];
    {
      Tracer::Scope span(tracer, layers.stage_span, image.width(),
                         image.height());
      const bool built = has_stage(context, layers.stage);
      context.ensure(layers.stage);
      // The one count spans cannot give: ensure() may find it built.
      stages_built += !built && has_stage(context, layers.stage);
    }
    double score = 0.0;
    {
      Tracer::Scope span(tracer, layers.score_span, image.width(),
                         image.height());
      score = members[i].detector->score(context);
    }
    Tracer::Scope span(tracer, "core.vote");
    outcome.scores[i] = score;
    attack_votes += core::is_attack(score, members[i].calibration) ? 1 : 0;
  }
  outcome.attack = 2 * attack_votes > m;
}

// Independent scoring, one library call per span: what Detector::score(Image)
// and DefendedDetector::score(Image) do inside, in the same order.
void replay_independent(const Scanner& scanner, const Image& image,
                        Tracer& tracer, long& stages_built, Outcome& outcome) {
  const int w = image.width();
  const int h = image.height();
  std::vector<double> raw(std::size(kMemberLayers));
  for (std::size_t i = 0; i < raw.size(); ++i) {
    Image defended_view;
    const Image* view = &image;
    if (!scanner.chain.empty()) {
      Tracer::Scope span(tracer, "core.defense", w, h);
      defended_view = scanner.chain.apply(image);
      view = &defended_view;
    }
    const MemberLayers& layers = kMemberLayers[i];
    if (i == 0) {
      const core::ScalingDetectorConfig& config = scanner.scaling->config();
      if (view->width() <= config.down_width ||
          view->height() <= config.down_height) {
        throw std::invalid_argument(
            "input must be larger than the CNN geometry");
      }
      Image round;
      {
        Tracer::Scope span(tracer, layers.stage_span, w, h);
        round = scanner.scaling->round_trip(*view);
        ++stages_built;
      }
      Tracer::Scope span(tracer, layers.score_span, w, h);
      raw[i] = mse(*view, round);
    } else if (i == 1) {
      Image filtered;
      {
        Tracer::Scope span(tracer, layers.stage_span, w, h);
        filtered = scanner.filtering->filtered(*view);
        ++stages_built;
      }
      Tracer::Scope span(tracer, layers.score_span, w, h);
      raw[i] = ssim(*view, filtered);
    } else {
      Image spectrum;
      {
        Tracer::Scope span(tracer, layers.stage_span, w, h);
        spectrum = centered_log_spectrum(
            *view, core::AnalysisContext::spectrum_workspace());
        ++stages_built;
      }
      Tracer::Scope span(tracer, layers.score_span, w, h);
      raw[i] = scanner.steganalysis->count_csp_in(spectrum);
    }
    outcome.scores.push_back(raw[i]);
  }
  Tracer::Scope span(tracer, "core.vote");
  outcome.attack = scanner.ensemble->vote_scores(raw);
}

Outcome scan_traced(const Scanner& scanner, Mode mode, const CorpusEntry& entry,
                    int image_id, Tracer& tracer, long& stages_built) {
  tracer.begin_image(image_id);
  Outcome outcome;
  Tracer::Scope root(tracer, "scan", entry.width, entry.height);
  try {
    Image image;
    {
      Tracer::Scope span(tracer, "imaging.decode", entry.width, entry.height,
                         entry.bytes);
      image = read_image(entry.file);
    }
    if (mode == Mode::ShortCircuit) {
      replay_context(scanner, image, tracer, stages_built, outcome);
    } else {
      replay_independent(scanner, image, tracer, stages_built, outcome);
    }
  } catch (const std::exception& error) {
    outcome.error = error.what();
    if (outcome.error.empty()) outcome.error = "error";
  }
  return outcome;
}

// ---------------------------------------------------------------------------
// Result file (raw samples; run.py derives every metric).

std::string json_quote(const std::string& text) {
  std::string out = "\"";
  for (const char ch : text) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

template <typename T>
std::string json_array(const std::vector<T>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i) out += ",";
    out += json_number(static_cast<double>(values[i]));
  }
  return out + "]";
}

std::string outcome_json(const Outcome& outcome) {
  std::string out = "{\"error\":" + json_quote(outcome.error) +
                    ",\"verdict\":\"" +
                    (!outcome.error.empty() ? "error"
                     : outcome.attack      ? "attack"
                                           : "benign") +
                    "\",\"scores\":[";
  for (std::size_t i = 0; i < outcome.scores.size(); ++i) {
    if (i) out += ",";
    out += outcome.scores[i] ? json_number(*outcome.scores[i]) : "null";
  }
  return out + "]}";
}

std::string cache_json(std::uint64_t hits_before, std::uint64_t misses_before,
                       std::uint64_t hits_after, std::uint64_t misses_after) {
  return "{\"hits\":" + std::to_string(hits_after - hits_before) +
         ",\"misses\":" + std::to_string(misses_after - misses_before) + "}";
}

struct CacheSnapshot {
  KernelCacheStats kernel = kernel_cache_stats();
  FftPlanCacheStats fft = fft_plan_cache_stats();
  FftPlanCacheStats bluestein = bluestein_plan_cache_stats();
};

// The `decamctl scan` flags that select the workload's path.
std::vector<std::string> decamctl_flags(const Workload& workload) {
  switch (workload.mode) {
    case Mode::ShortCircuit: return {"--short-circuit"};
    case Mode::FullVote: return {};
    case Mode::Defended: return {"--defense", workload.defense};
  }
  return {};
}

std::string json_strings(const std::vector<std::string>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out += (i ? "," : "") + json_quote(values[i]);
  }
  return out + "]";
}

// One fresh `decamctl scan --json` process on one corpus file, timed from
// spawn to exit. Its stdout goes to `stdout_path` for run.py to compare with
// the in-process outcome; stderr is appended to `stderr_path`.
struct ColdScan {
  int image = 0;
  double ms = 0.0;
  int exit_code = 0;
};

ColdScan cold_scan(const fs::path& decamctl, const std::vector<std::string>& flags,
                   const fs::path& profile, const CorpusEntry& entry, int image,
                   const fs::path& stdout_path, const fs::path& stderr_path) {
  std::vector<std::string> words = {decamctl.string(), "scan", "--json",
                                    "--profile", profile.string()};
  words.insert(words.end(), flags.begin(), flags.end());
  words.push_back(entry.file);
  std::vector<char*> argv;
  for (std::string& word : words) argv.push_back(word.data());
  argv.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 1, stdout_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_addopen(&actions, 2, stderr_path.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  pid_t pid = 0;
  const auto t0 = Clock::now();
  const int spawned = posix_spawn(&pid, argv[0], &actions, nullptr,
                                  argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (spawned != 0) {
    throw std::runtime_error("cannot start decamctl: " +
                             std::string(std::strerror(spawned)));
  }
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) throw std::runtime_error("waitpid failed");
  }
  ColdScan cold;
  cold.image = image;
  cold.ms = seconds_between(t0, Clock::now()) * 1e3;
  cold.exit_code = WIFEXITED(status) ? WEXITSTATUS(status)
                                     : 128 + WTERMSIG(status);
  return cold;
}

struct rusage self_usage() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return usage;
}

int cmd_corpus(const Args& args) {
  runtime::set_thread_count(kLanes);
  const scanbench::Corpus corpus = scanbench::write_corpus(
      scanbench::find_workload(args.workload), args.seed, args.out);
  scanbench::write_manifest(corpus, args.out / "corpus.tsv");
  return 0;
}

int cmd_run(const Args& args) {
  const Workload& workload = scanbench::find_workload(args.workload);
  runtime::set_thread_count(kLanes);
  const HostProbe probe = host_probe();

  const scanbench::Corpus corpus =
      scanbench::read_manifest(args.out / "corpus.tsv");
  const std::vector<CorpusEntry>& entries = corpus.scan;
  const std::size_t n = entries.size();
  const fs::path profile_path = args.out / "profile.txt";

  long setup_mismatches = 0;
  std::vector<double> setup_s;
  std::optional<Scanner> scanner;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const auto t0 = Clock::now();
    Scanner built = setup(workload, corpus.calibration, profile_path);
    setup_s.push_back(seconds_between(t0, Clock::now()));
    if (scanner && !same_profile(scanner->profile, built.profile)) {
      ++setup_mismatches;
    }
    scanner = std::move(built);
  }
  const Mode mode = workload.mode;

  // Warm-up (untimed): one image per geometry through every member, so
  // the kernel tables and FFT plans exist before anything is timed.
  std::vector<std::string> warmed;
  for (const CorpusEntry& entry : entries) {
    if (std::find(warmed.begin(), warmed.end(), entry.category) != warmed.end()) {
      continue;
    }
    warmed.push_back(entry.category);
    try {
      (void)full_vote(*scanner->ensemble, read_image(entry.file));
    } catch (const std::exception&) {
      // the thumbnails' known failure; the timed passes record it
    }
  }

  // The measured loop: rounds until --seconds are spent and p95 has enough
  // samples behind it. The first 1-lane pass is the reference every later
  // pass, lane count, decamctl process and the traced pass must reproduce.
  const std::vector<std::string> flags = decamctl_flags(workload);
  const fs::path cold_dir = args.out / "cold";
  fs::create_directories(cold_dir);
  const std::size_t cold_per_round = (n + kColdEvery - 1) / kColdEvery;
  std::vector<Outcome> reference(n);
  long repeat_mismatches = 0;
  std::vector<int> lat1_image;
  std::vector<double> lat1_ms;
  std::vector<int> lat1_error;
  double wall1 = 0.0;
  long faults1 = 0;
  std::vector<ColdScan> cold;
  std::vector<double> windows4;
  std::vector<int> lat4_image, lat4_error, lat4_window;
  std::vector<double> lat4_start, lat4_end, lat4_ms;
  std::atomic<long> lane_mismatches{0};
  std::size_t next4 = 0;  // corpus cursor of the 4-lane loop, across rounds
  int rounds = 0;
  const auto loop_start = Clock::now();
  for (;;) {
    // 1 lane, closed loop: one whole corpus pass.
    const long faults_before = self_usage().ru_minflt;
    const auto pass_start = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      const auto t0 = Clock::now();
      Outcome outcome = scan(*scanner, mode, entries[i]);
      lat1_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
      lat1_image.push_back(static_cast<int>(i));
      lat1_error.push_back(outcome.error.empty() ? 0 : 1);
      if (rounds == 0) {
        reference[i] = std::move(outcome);
      } else if (!identical(outcome, reference[i])) {
        ++repeat_mismatches;
      }
    }
    const double pass_s = seconds_between(pass_start, Clock::now());
    wall1 += pass_s;
    faults1 += self_usage().ru_minflt - faults_before;

    // Fresh decamctl processes, cycling through the (shuffled) corpus.
    for (std::size_t c = 0; c < cold_per_round; ++c) {
      const std::size_t i = cold.size() % n;
      cold.push_back(cold_scan(args.decamctl, flags, profile_path, entries[i],
                               static_cast<int>(i),
                               cold_dir / (std::to_string(cold.size()) + ".json"),
                               cold_dir / "stderr.txt"));
    }

    // 4 lanes, closed loop over a fixed window: each lane takes the next
    // image of the cycled corpus until the window closes. run.py counts the
    // scans finished inside it, so no straggler tail is timed.
    const double window = kFourLaneShare * pass_s;
    const std::size_t slots = n * 400;
    std::vector<int> image4(slots, -1), error4(slots, 0);
    std::vector<double> start4_s(slots, 0.0), end4_s(slots, 0.0);
    const auto start4 = Clock::now();
    const auto deadline =
        start4 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(window));
    runtime::parallel_for(std::size_t{0}, slots, [&](std::size_t k) {
      const auto t0 = Clock::now();
      if (t0 >= deadline) return;
      const std::size_t i = (next4 + k) % n;
      const Outcome outcome = scan(*scanner, mode, entries[i]);
      end4_s[k] = seconds_between(start4, Clock::now());
      start4_s[k] = seconds_between(start4, t0);
      image4[k] = static_cast<int>(i);
      error4[k] = outcome.error.empty() ? 0 : 1;
      if (!identical(outcome, reference[i])) ++lane_mismatches;
    });
    for (std::size_t k = 0; k < slots; ++k) {
      if (image4[k] < 0) continue;
      lat4_image.push_back(image4[k]);
      lat4_error.push_back(error4[k]);
      lat4_window.push_back(rounds);
      lat4_start.push_back(start4_s[k]);
      lat4_end.push_back(end4_s[k]);
      lat4_ms.push_back((end4_s[k] - start4_s[k]) * 1e3);
      ++next4;
    }
    windows4.push_back(window);

    ++rounds;
    const double elapsed = seconds_between(loop_start, Clock::now());
    const long ok = std::count(lat1_error.begin(), lat1_error.end(), 0);
    if (elapsed >= args.seconds && ok >= kMinLatencySamples) break;
    if (elapsed >= 2 * args.seconds + 20) break;  // run.py flags the short sample
  }

  // The short circuit must not change a verdict: compare against the full
  // vote on every image, errors included (untimed, on the pool).
  long short_vs_full = 0;
  if (mode == Mode::ShortCircuit) {
    std::vector<int> differs(n, 0);
    runtime::parallel_for(std::size_t{0}, n, [&](std::size_t i) {
      Outcome full;
      try {
        full = full_vote(*scanner->ensemble, read_image(entries[i].file));
      } catch (const std::exception& error) {
        full.error = error.what();
      }
      differs[i] = full.error.empty() != reference[i].error.empty() ||
                   (full.error.empty() && full.attack != reference[i].attack);
    });
    short_vs_full = std::count(differs.begin(), differs.end(), 1);
  }

  // Traced pass (--trace 1), 1 lane: the scan corpus, then the calibration
  // scoring.
  const CacheSnapshot before;
  CacheSnapshot after = before;
  Tracer tracer(Clock::now());
  long stages_built = 0;
  long traced_mismatches = 0;
  if (args.trace) {
    for (std::size_t i = 0; i < n; ++i) {
      const Outcome outcome = scan_traced(*scanner, mode, entries[i],
                                          static_cast<int>(i), tracer, stages_built);
      if (!identical(outcome, reference[i])) ++traced_mismatches;
    }
    after = CacheSnapshot();
    const auto scaling = defended(scanner->scaling, scanner->chain);
    const auto filtering = defended(scanner->filtering, scanner->chain);
    for (std::size_t i = 0; i < corpus.calibration.size(); ++i) {
      const CorpusEntry& entry = corpus.calibration[i];
      tracer.begin_image(static_cast<int>(n + i));
      Tracer::Scope span(tracer, "core.calibrate", entry.width, entry.height,
                         entry.bytes);
      const Image benign = read_image(entry.file);
      (void)scaling->score(benign);
      (void)filtering->score(benign);
    }
    tracer.write(args.out / "spans.tsv");
  }
  const HostProbe probe_end = host_probe();
  std::vector<int> cold_image, cold_exit;
  std::vector<double> cold_ms;
  for (const ColdScan& c : cold) {
    cold_image.push_back(c.image);
    cold_ms.push_back(c.ms);
    cold_exit.push_back(c.exit_code);
  }

  std::ofstream out(args.out / "result.json");
  out << "{\n\"workload\":" << json_quote(workload.name)
      << ",\n\"seed\":" << args.seed << ",\n\"seconds\":"
      << json_number(args.seconds) << ",\n\"decamctl_flags\":" << json_strings(flags)
      << ",\n\"lanes\":" << kLanes << ",\n\"profile\":"
      << json_quote(profile_path.string()) << ",\n\"host_probe\":{"
      << "\"scalar_ns_per_iter\":" << json_number(probe.scalar_ns_per_iter)
      << ",\"memcpy_gb_per_s\":" << json_number(probe.memcpy_gb_per_s)
      << ",\"scalar_ns_per_iter_end\":"
      << json_number(probe_end.scalar_ns_per_iter)
      << ",\"memcpy_gb_per_s_end\":"
      << json_number(probe_end.memcpy_gb_per_s) << "},\n\"setup_s\":" << json_array(setup_s) << ",\n\"corpus\":[\n";
  for (std::size_t i = 0; i < n; ++i) {
    const CorpusEntry& e = entries[i];
    out << "{\"file\":" << json_quote(e.file)
        << ",\"category\":" << json_quote(e.category) << ",\"label\":\""
        << scanbench::to_string(e.label) << "\",\"width\":" << e.width
        << ",\"height\":" << e.height << ",\"channels\":" << e.channels
        << ",\"bytes\":" << e.bytes
        << ",\"outcome\":" << outcome_json(reference[i]) << "}"
        << (i + 1 < n ? ",\n" : "\n");
  }
  out << "],\n\"calibration_images\":" << corpus.calibration.size()
      << ",\n\"lat1\":{\"image\":" << json_array(lat1_image)
      << ",\"error\":" << json_array(lat1_error)
      << ",\"ms\":" << json_array(lat1_ms) << ",\"passes\":" << rounds
      << ",\"wall_s\":" << json_number(wall1)
      << ",\"minor_faults\":" << faults1
      << "},\n\"lat4\":{\"image\":" << json_array(lat4_image)
      << ",\"error\":" << json_array(lat4_error)
      << ",\"window\":" << json_array(lat4_window)
      << ",\"start_s\":" << json_array(lat4_start)
      << ",\"end_s\":" << json_array(lat4_end)
      << ",\"ms\":" << json_array(lat4_ms)
      << ",\"windows_s\":" << json_array(windows4)
      << "},\n\"cold\":{\"image\":" << json_array(cold_image)
      << ",\"ms\":" << json_array(cold_ms)
      << ",\"exit\":" << json_array(cold_exit)
      << "},\n\"traced\":{\"images\":" << (args.trace ? n : 0)
      << ",\"stages_built\":" << stages_built
      << "},\n\"cache\":{\"kernel\":"
      << cache_json(before.kernel.hits, before.kernel.misses,
                    after.kernel.hits, after.kernel.misses)
      << ",\"fft_plan\":"
      << cache_json(before.fft.hits, before.fft.misses, after.fft.hits,
                    after.fft.misses)
      << ",\"bluestein_plan\":"
      << cache_json(before.bluestein.hits, before.bluestein.misses,
                    after.bluestein.hits, after.bluestein.misses)
      << "},\n\"checks\":{\"setup_repeat\":" << setup_mismatches
      << ",\"repeat_passes\":" << repeat_mismatches
      << ",\"lanes_1_vs_4\":" << lane_mismatches.load()
      << ",\"short_vs_full\":" << short_vs_full
      << ",\"traced_vs_untraced\":" << traced_mismatches
      << "},\n\"peak_rss_mb\":"
      << json_number(self_usage().ru_maxrss / 1024.0)  // KiB on Linux
      << "\n}\n";
  out.flush();
  if (!out) throw std::runtime_error("cannot write result.json");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    if (args.command == "corpus") return cmd_corpus(args);
    if (args.command == "run") return cmd_run(args);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "scanbench: %s\n", error.what());
    return 1;
  }
  usage();
}
