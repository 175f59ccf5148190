#include "core/pipeline.h"

#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "attack/scale_attack.h"
#include "data/synth.h"
#include "metrics/mse.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "runtime/parallel.h"

namespace decam::core {
namespace {

// FNV-1a over the config's textual identity.
std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (unsigned char ch : text) {
    hash ^= ch;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::string row_header() {
  return "scaling_mse\tscaling_ssim\tscaling_psnr\tfiltering_mse\t"
         "filtering_ssim\tfiltering_psnr\tcsp\thistogram";
}

void write_rows(std::ostream& out, const std::string& section,
                const std::vector<ScoreRow>& rows) {
  out << "[" << section << "] " << rows.size() << "\n";
  for (const ScoreRow& r : rows) {
    out << r.scaling_mse << '\t' << r.scaling_ssim << '\t' << r.scaling_psnr
        << '\t' << r.filtering_mse << '\t' << r.filtering_ssim << '\t'
        << r.filtering_psnr << '\t' << r.csp << '\t' << r.histogram << '\n';
  }
}

bool read_rows(std::istream& in, const std::string& section,
               std::vector<ScoreRow>& rows) {
  std::string line;
  if (!std::getline(in, line)) return false;
  std::istringstream header(line);
  std::string tag;
  std::size_t count = 0;
  header >> tag >> count;
  if (tag != "[" + section + "]") return false;
  rows.resize(count);
  for (ScoreRow& r : rows) {
    if (!std::getline(in, line)) return false;
    std::istringstream fields(line);
    if (!(fields >> r.scaling_mse >> r.scaling_ssim >> r.scaling_psnr >>
          r.filtering_mse >> r.filtering_ssim >> r.filtering_psnr >> r.csp >>
          r.histogram)) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::string ExperimentConfig::cache_key() const {
  std::ostringstream key;
  key << "v8|" << n_train << '|' << n_eval << '|' << target_width << 'x'
      << target_height << '|' << min_side << '-' << max_side << '|'
      << to_string(white_box_algo) << '|' << attack_eps << '|' << seed;
  return key.str();
}

std::vector<double> ExperimentData::column(const std::vector<ScoreRow>& rows,
                                           double ScoreRow::* member) {
  std::vector<double> values;
  values.reserve(rows.size());
  for (const ScoreRow& row : rows) values.push_back(row.*member);
  return values;
}

namespace {

ScalingDetectorConfig battery_scaling(const ExperimentConfig& config,
                                      Metric metric) {
  return {config.target_width, config.target_height, config.white_box_algo,
          config.white_box_algo, metric};
}

FilteringDetectorConfig battery_filtering(Metric metric) {
  return {2, RankOp::Min, metric};  // the paper's 2x2 minimum filter
}

}  // namespace

Battery::Battery(const ExperimentConfig& config)
    : scaling_mse_(battery_scaling(config, Metric::MSE)),
      scaling_ssim_(battery_scaling(config, Metric::SSIM)),
      filtering_mse_(battery_filtering(Metric::MSE)),
      filtering_ssim_(battery_filtering(Metric::SSIM)),
      histogram_({config.target_width, config.target_height,
                  config.white_box_algo, 32}) {}

AnalysisContextSpec Battery::context_spec() const {
  AnalysisContextSpec spec;  // the SSIM twins read the same stages
  scaling_mse_.prime(spec);
  filtering_mse_.prime(spec);
  steganalysis_.prime(spec);
  histogram_.prime(spec);
  return spec;
}

ScoreRow Battery::score(const Image& input) const {
  AnalysisContext context(input, context_spec(),
                          AnalysisContext::Build::Deferred);
  return score(context);
}

ScoreRow Battery::score(AnalysisContext& context) const {
  static auto& images_scored =
      obs::MetricsRegistry::instance().counter("battery/images_scored");
  ScoreRow row;
  row.scaling_mse = scaling_mse_.score(context);
  row.scaling_ssim = scaling_ssim_.score(context);
  row.scaling_psnr = psnr_from_mse(row.scaling_mse);
  row.filtering_mse = filtering_mse_.score(context);
  row.filtering_ssim = filtering_ssim_.score(context);
  row.filtering_psnr = psnr_from_mse(row.filtering_mse);
  row.csp = steganalysis_.score(context);
  row.histogram = histogram_.score(context);
  images_scored.add();
  return row;
}

std::filesystem::path default_cache_dir() {
  if (const char* env = std::getenv("DECAM_CACHE_DIR");
      env != nullptr && *env != '\0') {
    return env;
  }
  return std::filesystem::current_path() / "decam_cache";
}

void save_experiment(const ExperimentData& data,
                     const std::filesystem::path& file) {
  std::ofstream out(file);
  if (!out) throw IoError(file.string() + ": cannot open for writing");
  out.precision(17);  // doubles must survive the text round trip exactly
  out << "decam-experiment\n" << data.config.cache_key() << "\n"
      << "# " << row_header() << "\n";
  write_rows(out, "train_benign", data.train_benign);
  write_rows(out, "train_attack", data.train_attack);
  write_rows(out, "eval_benign", data.eval_benign);
  write_rows(out, "eval_attack_white", data.eval_attack_white);
  write_rows(out, "eval_attack_black", data.eval_attack_black);
  out << "[attack_quality] " << data.attack_quality.size() << "\n";
  for (const AttackQualityRow& r : data.attack_quality) {
    out << r.downscale_linf << '\t' << r.source_ssim << '\n';
  }
  if (!out) throw IoError(file.string() + ": short write");
}

std::optional<ExperimentData> load_experiment(
    const ExperimentConfig& config, const std::filesystem::path& file) {
  std::ifstream in(file);
  if (!in) return std::nullopt;
  std::string line;
  if (!std::getline(in, line) || line != "decam-experiment") return std::nullopt;
  if (!std::getline(in, line) || line != config.cache_key()) return std::nullopt;
  if (!std::getline(in, line)) return std::nullopt;  // header comment
  ExperimentData data;
  data.config = config;
  if (!read_rows(in, "train_benign", data.train_benign)) return std::nullopt;
  if (!read_rows(in, "train_attack", data.train_attack)) return std::nullopt;
  if (!read_rows(in, "eval_benign", data.eval_benign)) return std::nullopt;
  if (!read_rows(in, "eval_attack_white", data.eval_attack_white)) {
    return std::nullopt;
  }
  if (!read_rows(in, "eval_attack_black", data.eval_attack_black)) {
    return std::nullopt;
  }
  if (!std::getline(in, line)) return std::nullopt;
  {
    std::istringstream header(line);
    std::string tag;
    std::size_t count = 0;
    header >> tag >> count;
    if (tag != "[attack_quality]") return std::nullopt;
    data.attack_quality.resize(count);
    for (AttackQualityRow& r : data.attack_quality) {
      if (!std::getline(in, line)) return std::nullopt;
      std::istringstream fields(line);
      if (!(fields >> r.downscale_linf >> r.source_ssim)) return std::nullopt;
    }
  }
  return data;
}

namespace {

// The black-box attacker pool. Any functioning attack must target the
// deployed pipeline's scaler (the defender knows its own pipeline), so the
// defender's uncertainty in the black-box setting is about the CRAFTING
// process: how tight the attacker's quadratic program is, and whether the
// attacker replaces the whole view or only a REGION of it (a localized
// attack leaves most of the downscaled view benign, weakening every global
// detection score — the hard case for the defender).
struct BlackBoxVariant {
  double eps;
  int max_sweeps;
  bool localized;
};
constexpr BlackBoxVariant kBlackBoxPool[] = {{1.0, 240, false},
                                             {2.0, 120, false},
                                             {4.0, 60, false},
                                             {2.0, 120, true}};

// Localized attack target: the source's own (benign) downscale with one
// random quadrant replaced by attacker content.
Image localized_target(const Image& scene, const Image& full_target,
                       ScaleAlgo algo, data::Rng& rng) {
  Image target =
      resize(scene, full_target.width(), full_target.height(), algo);
  target.clamp();
  const int qw = full_target.width() / 2;
  const int qh = full_target.height() / 2;
  const int qx = rng.next_bool() ? 0 : full_target.width() - qw;
  const int qy = rng.next_bool() ? 0 : full_target.height() - qh;
  for (int c = 0; c < target.channels(); ++c) {
    for (int y = 0; y < qh; ++y) {
      for (int x = 0; x < qw; ++x) {
        target.at(qx + x, qy + y, c) = full_target.at(qx + x, qy + y, c);
      }
    }
  }
  return target;
}

// Progress lines go through obs::log so every message carries a monotonic
// elapsed-ms timestamp (ISSUE: replaces the raw fprintf/"\r" spinner).
void progress(bool verbose, const char* format, auto... args) {
  if (verbose) obs::log(format, args...);
}

}  // namespace

ExperimentData run_experiment(const ExperimentConfig& config,
                              const std::filesystem::path& cache_dir,
                              bool verbose) {
  DECAM_REQUIRE(config.n_train > 0 && config.n_eval > 0,
                "dataset sizes must be positive");
  std::filesystem::path cache_file;
  if (!cache_dir.empty()) {
    std::filesystem::create_directories(cache_dir);
    char name[64];
    std::snprintf(name, sizeof(name), "experiment_%016" PRIx64 ".tsv",
                  fnv1a(config.cache_key()));
    cache_file = cache_dir / name;
    std::optional<ExperimentData> cached;
    {
      DECAM_SPAN("pipeline/cache_load");
      cached = load_experiment(config, cache_file);
    }
    if (cached) {
      obs::MetricsRegistry::instance().counter("pipeline/cache_hits").add();
      progress(verbose, "[pipeline] loaded cache %s",
               cache_file.string().c_str());
      return *cached;
    }
    obs::MetricsRegistry::instance().counter("pipeline/cache_misses").add();
  }

  ExperimentData data;
  data.config = config;
  const Battery battery(config);

  data::SceneParams params_a = data::scene_params(data::Regime::A);
  data::SceneParams params_b = data::scene_params(data::Regime::B);
  params_a.min_side = params_b.min_side = config.min_side;
  params_a.max_side = params_b.max_side = config.max_side;

  attack::AttackOptions white_opts;
  white_opts.algo = config.white_box_algo;
  white_opts.eps = config.attack_eps;

  auto craft_and_score =
      [&](const data::SceneParams& scene_params, std::uint64_t seed_salt,
          int count, const char* label, std::vector<ScoreRow>& benign_rows,
          std::vector<ScoreRow>* white_rows, std::vector<ScoreRow>* black_rows,
          std::vector<AttackQualityRow>* quality_rows) {
        // Determinism contract (DESIGN.md §8): Rng::fork() is
        // Rng(next_u64()), so drawing the per-index seeds serially up front
        // and re-seeding inside the parallel body reproduces the serial
        // fork sequence exactly. Results land in index-ordered slots, so
        // the row vectors — and the cache TSV written from them — are
        // byte-identical at any thread count.
        data::Rng scene_rng(config.seed ^ seed_salt);
        data::Rng target_rng(config.seed ^ seed_salt ^ 0x7A26E7ull);
        const auto n = static_cast<std::size_t>(count);
        std::vector<std::uint64_t> scene_seeds(n);
        std::vector<std::uint64_t> target_seeds(n);
        for (std::size_t i = 0; i < n; ++i) {
          scene_seeds[i] = scene_rng.next_u64();
          target_seeds[i] = target_rng.next_u64();
        }
        benign_rows.resize(n);
        if (white_rows != nullptr) white_rows->resize(n);
        if (black_rows != nullptr) black_rows->resize(n);
        if (quality_rows != nullptr) quality_rows->resize(n);
        std::atomic<int> completed{0};
        runtime::parallel_for(std::size_t{0}, n, [&](std::size_t i) {
          data::Rng scene_child(scene_seeds[i]);
          data::Rng target_child(target_seeds[i]);
          const Image scene = generate_scene(scene_params, scene_child);
          const Image target = data::generate_target(
              config.target_width, config.target_height, target_child);
          benign_rows[i] = battery.score(scene);
          if (white_rows != nullptr) {
            const attack::AttackResult white =
                attack::craft_attack(scene, target, white_opts);
            (*white_rows)[i] = battery.score(white.image);
            if (quality_rows != nullptr) {
              (*quality_rows)[i] = {white.report.downscale_linf,
                                    white.report.source_ssim};
            }
          }
          if (black_rows != nullptr) {
            const BlackBoxVariant& variant =
                kBlackBoxPool[i % std::size(kBlackBoxPool)];
            attack::AttackOptions black_opts = white_opts;
            black_opts.eps = variant.eps;
            black_opts.max_sweeps = variant.max_sweeps;
            data::Rng quadrant_rng = target_child.fork();
            const Image black_target =
                variant.localized
                    ? localized_target(scene, target, black_opts.algo,
                                       quadrant_rng)
                    : target;
            const attack::AttackResult black =
                attack::craft_attack(scene, black_target, black_opts);
            (*black_rows)[i] = battery.score(black.image);
          }
          const int done =
              completed.fetch_add(1, std::memory_order_relaxed) + 1;
          if (done % 20 == 0 || done == count) {
            progress(verbose, "[pipeline] %s %d/%d", label, done, count);
          }
        });
      };

  craft_and_score(params_a, 0x57A1Bull, config.n_train, "calibration set",
                  data.train_benign, &data.train_attack, nullptr, nullptr);
  craft_and_score(params_b, 0xE7A1Bull, config.n_eval, "evaluation set",
                  data.eval_benign, &data.eval_attack_white,
                  &data.eval_attack_black, &data.attack_quality);

  if (!cache_file.empty()) {
    DECAM_SPAN("pipeline/cache_save");
    save_experiment(data, cache_file);
    progress(verbose, "[pipeline] cached to %s",
             cache_file.string().c_str());
  }
  return data;
}

}  // namespace decam::core
