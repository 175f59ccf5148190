// repro: every table and figure of the paper's evaluation from one binary
// (DESIGN.md §4).
//
//   repro <name> [--n N] [--seed S] [--quick] [--no-cache] [--threads N]
//                [--manifest F] [--no-manifest]
//
// Each name loads the same cached experiment (bench::load_data: the first
// run generates it, later runs read the score cache) and prints one table or
// figure from its ScoreRow columns, then the paper's own numbers for
// comparison. The scaling and filtering methods share their tables and
// figures: one handler each, fed the method's columns from the command
// table.
#include <array>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/evaluation.h"
#include "core/roc.h"
#include "report/histogram_ascii.h"
#include "report/table.h"

using namespace decam;
using namespace decam::core;

namespace {

using Column = double ScoreRow::*;

constexpr auto& column = ExperimentData::column;

// A detection method's MSE and SSIM columns. `operand` is the image the
// input is compared with in the figure captions: MSE(I, S) for the scaled
// round trip, MSE(I, F) for the filtered image.
struct Method {
  const char* name = "";
  Column mse = nullptr;
  Column ssim = nullptr;
  const char* operand = "";
};

constexpr Method kScaling{"scaling", &ScoreRow::scaling_mse,
                          &ScoreRow::scaling_ssim, "S"};
constexpr Method kFiltering{"filtering", &ScoreRow::filtering_mse,
                            &ScoreRow::filtering_ssim, "F"};

// MSE rises under attack and prints with fewer decimals; SSIM falls.
struct Metric {
  const char* name;
  Column column;
  Polarity polarity;
  bool is_mse() const { return polarity == Polarity::HighIsAttack; }
};

std::array<Metric, 2> metrics(const Method& method) {
  return {{{"MSE", method.mse, Polarity::HighIsAttack},
           {"SSIM", method.ssim, Polarity::LowIsAttack}}};
}

// `cells` followed by the detection rates every paper table reports.
std::vector<std::string> with_rates(std::vector<std::string> cells,
                                    const DetectionStats& stats) {
  for (double rate : {stats.accuracy(), stats.precision(), stats.recall(),
                      stats.far(), stats.frr()}) {
    cells.push_back(report::format_percent(rate));
  }
  return cells;
}

// Tables 2 and 4: thresholds from the two-class search on the calibration
// set, evaluated on unseen white-box attacks.
void white_box_table(const ExperimentData& data, const Method& method) {
  report::Table table(
      {"Metric", "Threshold", "Acc.", "Prec.", "Rec.", "FAR", "FRR"});
  for (const Metric& m : metrics(method)) {
    const Calibration calibration =
        calibrate_white_box(column(data.train_benign, m.column),
                            column(data.train_attack, m.column))
            .calibration;
    const DetectionStats stats =
        evaluate(column(data.eval_benign, m.column),
                 column(data.eval_attack_white, m.column), calibration);
    table.add_row(with_rates(
        {m.name, report::format_double(calibration.threshold,
                                       m.is_mse() ? 2 : 4)},
        stats));
  }
  std::printf("%s\n", table.render().c_str());
}

// Tables 3 and 5: thresholds at the 1/2/3% percentiles of the benign
// calibration scores alone, evaluated on attacks of unknown strength, with
// the benign mean/std columns of the paper's tables.
void black_box_table(const ExperimentData& data, const Method& method) {
  report::Table table({"Metric", "Percentile", "Acc.", "Prec.", "Rec.",
                       "FAR", "FRR", "Mean", "STD"});
  for (const Metric& m : metrics(method)) {
    const auto benign = column(data.train_benign, m.column);
    const ScoreStats train = score_stats(benign);
    const int decimals = m.is_mse() ? 1 : 3;
    for (double percentile : {1.0, 2.0, 3.0}) {
      const DetectionStats stats =
          evaluate(column(data.eval_benign, m.column),
                   column(data.eval_attack_black, m.column),
                   calibrate_black_box(benign, percentile, m.polarity));
      const bool first = percentile == 1.0;
      std::vector<std::string> cells = with_rates(
          {first ? m.name : "", report::format_percent(percentile / 100.0, 0)},
          stats);
      cells.push_back(first ? report::format_double(train.mean, decimals) : "");
      cells.push_back(first ? report::format_double(train.stddev, decimals)
                            : "");
      table.add_row(std::move(cells));
    }
  }
  std::printf("%s\n", table.render().c_str());
}

// Figures 8 and 10: benign vs attack calibration scores with the white-box
// threshold marked.
void white_box_dist(const ExperimentData& data, const Method& method) {
  for (const Metric& m : metrics(method)) {
    const auto benign = column(data.train_benign, m.column);
    const auto attack = column(data.train_attack, m.column);
    const double threshold =
        calibrate_white_box(benign, attack).calibration.threshold;
    report::HistogramOptions options;
    options.bins = 26;
    options.log_x = m.is_mse();  // benign ~O(10), attack ~O(10^3..10^4)
    options.threshold = threshold;
    std::printf("%s(I, %s) distribution  [threshold %.*f]\n%s\n", m.name,
                method.operand, m.is_mse() ? 2 : 4, threshold,
                report::render_histogram(benign, attack, options).c_str());
  }
}

// Figures 9 and 11: benign scores alone with the 1% percentile boundary
// marked and the 1/2/3% boundaries listed — the black-box calibration view.
void benign_dist(const ExperimentData& data, const Method& method) {
  for (const Metric& m : metrics(method)) {
    const auto benign = column(data.train_benign, m.column);
    const ScoreStats stats = score_stats(benign);
    const int decimals = m.is_mse() ? 2 : 4;
    // The attack tail lies above the benign MSE scores, below the SSIM ones.
    const auto boundary = [&](double tail) {
      return percentile_of(benign, m.is_mse() ? 100.0 - tail : tail);
    };
    report::HistogramOptions options;
    options.bins = 24;
    options.threshold = boundary(1.0);
    std::printf("benign %s(I, %s): mean %.*f std %.*f\n%s\n", m.name,
                method.operand, decimals, stats.mean, decimals, stats.stddev,
                report::render_histogram(benign, {}, options).c_str());
    std::printf(
        "percentile boundaries: 1%% -> %.*f, 2%% -> %.*f, 3%% -> %.*f\n\n",
        decimals, boundary(1.0), decimals, boundary(2.0), decimals,
        boundary(3.0));
  }
}

// Table 6: the fixed CSP >= 2 threshold on every split, after showing that
// the white-box search lands on (or next to) the same value.
void steganalysis_table(const ExperimentData& data, const Method&) {
  const Calibration searched =
      calibrate_white_box(column(data.train_benign, &ScoreRow::csp),
                          column(data.train_attack, &ScoreRow::csp))
          .calibration;
  std::printf("White-box search suggests threshold %.1f (polarity: %s).\n\n",
              searched.threshold,
              searched.polarity == Polarity::HighIsAttack ? "high-is-attack"
                                                          : "low-is-attack");
  const Calibration fixed{2.0, Polarity::HighIsAttack, 0.0};
  struct Split {
    const char* label;
    const std::vector<ScoreRow>& benign;
    const std::vector<ScoreRow>& attack;
  };
  const Split splits[] = {
      {"calibration set", data.train_benign, data.train_attack},
      {"unseen, white-box attacks", data.eval_benign, data.eval_attack_white},
      {"unseen, black-box attacks", data.eval_benign, data.eval_attack_black}};
  report::Table table(
      {"Setting", "Threshold", "Acc.", "Prec.", "Rec.", "FAR", "FRR"});
  for (const Split& split : splits) {
    table.add_row(with_rates(
        {split.label, "CSP >= 2"},
        evaluate(column(split.benign, &ScoreRow::csp),
                 column(split.attack, &ScoreRow::csp), fixed)));
  }
  std::printf("%s\n", table.render().c_str());
}

// Table 8: majority vote of scaling/MSE, filtering/SSIM and steganalysis/CSP
// with white-box and with 1% black-box thresholds.
void ensemble_table(const ExperimentData& data, const Method&) {
  const auto white_box = [&](Column c) {
    return calibrate_white_box(column(data.train_benign, c),
                               column(data.train_attack, c))
        .calibration;
  };
  const auto black_box = [&](Column c, Polarity polarity) {
    return calibrate_black_box(column(data.train_benign, c), 1.0, polarity);
  };
  const Calibration steg{2.0, Polarity::HighIsAttack, 0.0};
  const auto vote = [&](const Calibration& scaling,
                        const Calibration& filtering,
                        const std::vector<ScoreRow>& attack_rows) {
    const auto flag = [&](const ScoreRow& row) {
      const int votes = is_attack(row.scaling_mse, scaling) +
                        is_attack(row.filtering_ssim, filtering) +
                        is_attack(row.csp, steg);
      return votes >= 2;
    };
    std::vector<bool> benign_flags;
    std::vector<bool> attack_flags;
    for (const ScoreRow& row : data.eval_benign) {
      benign_flags.push_back(flag(row));
    }
    for (const ScoreRow& row : attack_rows) attack_flags.push_back(flag(row));
    return evaluate_flags(benign_flags, attack_flags);
  };
  report::Table table({"Setting", "Acc.", "Prec.", "Rec.", "FAR", "FRR"});
  table.add_row(with_rates(
      {"White-box ensemble"},
      vote(white_box(&ScoreRow::scaling_mse),
           white_box(&ScoreRow::filtering_ssim), data.eval_attack_white)));
  table.add_row(with_rates(
      {"Black-box ensemble"},
      vote(black_box(&ScoreRow::scaling_mse, Polarity::HighIsAttack),
           black_box(&ScoreRow::filtering_ssim, Polarity::LowIsAttack),
           data.eval_attack_black)));
  std::printf("%s\n", table.render().c_str());
}

// Figure 12: how many centered spectrum points benign and attack images
// show — almost all benign images 1, almost all attacks 2 or more.
void csp_dist(const ExperimentData& data, const Method&) {
  auto tally = [](const std::vector<ScoreRow>& rows) {
    std::map<int, int> counts;
    for (const ScoreRow& row : rows) ++counts[static_cast<int>(row.csp)];
    return counts;
  };
  const auto benign = tally(data.train_benign);
  const auto attack = tally(data.train_attack);
  report::Table table({"CSP count", "benign images", "attack images"});
  int max_csp = 1;
  for (const auto& [k, v] : benign) max_csp = std::max(max_csp, k);
  for (const auto& [k, v] : attack) max_csp = std::max(max_csp, k);
  for (int k = 0; k <= max_csp; ++k) {
    const int b = benign.count(k) ? benign.at(k) : 0;
    const int a = attack.count(k) ? attack.at(k) : 0;
    if (b == 0 && a == 0) continue;
    table.add_row({std::to_string(k), std::to_string(b), std::to_string(a)});
  }
  std::printf("%s\n", table.render().c_str());
  int attack_multi = 0;
  for (const auto& [k, v] : attack) {
    if (k >= 2) attack_multi += v;
  }
  std::printf(
      "%.1f%% of benign images have exactly 1 CSP; %.1f%% of attack images "
      "have >= 2 CSP.\n",
      100.0 * (benign.count(1) ? benign.at(1) : 0) / data.train_benign.size(),
      100.0 * attack_multi / data.train_attack.size());
}

// Threshold-selection figure: training accuracy against every candidate
// threshold of the white-box search, down-sampled to ~40 probes, with the
// chosen one marked.
void threshold_search(const ExperimentData& data, const Method& method) {
  for (const Metric& m : metrics(method)) {
    const WhiteBoxResult wb =
        calibrate_white_box(column(data.train_benign, m.column),
                            column(data.train_attack, m.column));
    std::printf("%s/%s: best threshold %.4f, training accuracy %.1f%%\n",
                method.name, m.name, wb.calibration.threshold,
                100.0 * wb.calibration.train_accuracy);
    const std::size_t stride = std::max<std::size_t>(1, wb.trace.size() / 40);
    for (std::size_t i = 0; i < wb.trace.size(); i += stride) {
      const ThresholdProbe& probe = wb.trace[i];
      const int bar = static_cast<int>(probe.accuracy * 50.0);
      std::printf("%12.4g | %s %5.1f%%%s\n", probe.threshold,
                  std::string(static_cast<std::size_t>(bar), '#').c_str(),
                  100.0 * probe.accuracy,
                  probe.threshold == wb.calibration.threshold ? "  <-- best"
                                                              : "");
    }
    std::printf("\n");
  }
}

// Appendix Figures 15/16: PSNR histograms of both methods, and the best
// training accuracy PSNR reaches next to the recommended metrics.
void psnr_overlap(const ExperimentData& data, const Method&) {
  for (const auto& [method, psnr] :
       {std::pair{"scaling", &ScoreRow::scaling_psnr},
        std::pair{"filtering", &ScoreRow::filtering_psnr}}) {
    report::HistogramOptions options;
    options.bins = 26;
    std::printf("PSNR histogram, %s method:\n%s\n", method,
                report::render_histogram(column(data.train_benign, psnr),
                                         column(data.train_attack, psnr),
                                         options)
                    .c_str());
  }
  struct Row {
    const char* method;
    const char* metric;
    Column column;
  };
  const Row rows[] = {{"scaling", "MSE", &ScoreRow::scaling_mse},
                      {"scaling", "PSNR", &ScoreRow::scaling_psnr},
                      {"filtering", "SSIM", &ScoreRow::filtering_ssim},
                      {"filtering", "PSNR", &ScoreRow::filtering_psnr}};
  report::Table table({"Method", "Metric", "Best training accuracy"});
  for (const Row& row : rows) {
    const double accuracy =
        calibrate_white_box(column(data.train_benign, row.column),
                            column(data.train_attack, row.column))
            .calibration.train_accuracy;
    table.add_row({row.method, row.metric, report::format_percent(accuracy)});
  }
  std::printf("%s\n", table.render().c_str());
}

// Extension: threshold-free ROC AUC of every detector/metric on all three
// splits — the method ordering holds across all thresholds, not just the
// chosen ones.
void roc_table(const ExperimentData& data, const Method&) {
  struct Row {
    const char* label;
    Column column;
    Polarity polarity;
  };
  const Row rows[] = {
      {"scaling/MSE", &ScoreRow::scaling_mse, Polarity::HighIsAttack},
      {"scaling/SSIM", &ScoreRow::scaling_ssim, Polarity::LowIsAttack},
      {"scaling/PSNR", &ScoreRow::scaling_psnr, Polarity::LowIsAttack},
      {"filtering/MSE", &ScoreRow::filtering_mse, Polarity::HighIsAttack},
      {"filtering/SSIM", &ScoreRow::filtering_ssim, Polarity::LowIsAttack},
      {"filtering/PSNR", &ScoreRow::filtering_psnr, Polarity::LowIsAttack},
      {"steganalysis/CSP", &ScoreRow::csp, Polarity::HighIsAttack},
      {"histogram (Xiao)", &ScoreRow::histogram, Polarity::LowIsAttack},
  };
  report::Table table({"Detector/metric", "AUC (calibration set)",
                       "AUC (unseen, white-box)", "AUC (unseen, black-box)"});
  for (const Row& row : rows) {
    const auto auc = [&](const std::vector<ScoreRow>& benign,
                         const std::vector<ScoreRow>& attack) {
      return report::format_double(
          roc_curve(column(benign, row.column), column(attack, row.column),
                    row.polarity)
              .auc,
          4);
    };
    table.add_row({row.label, auc(data.train_benign, data.train_attack),
                   auc(data.eval_benign, data.eval_attack_white),
                   auc(data.eval_benign, data.eval_attack_black)});
  }
  std::printf("%s\n", table.render().c_str());
}

// One entry per paper artefact, in the shape of a CLI command table: the
// name on the command line, the banner title, the handler and its data.
struct Command {
  const char* name;
  const char* title;
  void (*run)(const ExperimentData&, const Method&);
  Method method;     // score columns, for the handlers shared by both methods
  const char* note;  // the paper's numbers, printed under the output
};

const Command kCommands[] = {
    {"table2", "Table 2: scaling detection, white-box", white_box_table,
     kScaling,
     "Paper reports (1000+1000 images, real datasets): MSE 99.9% acc, 0.0% "
     "FAR, 0.1% FRR; SSIM 99.0% acc, 0.3% FAR, 0.1% FRR."},
    {"table3", "Table 3: scaling detection, black-box", black_box_table,
     kScaling,
     "Paper reports: MSE/SSIM at 1% percentile reach 99.5% acc with 0.0% FAR "
     "and FRR ~= the percentile (1-3%); benign MSE mean 218.6 std 217.6 on "
     "NeurIPS-2017 (absolute values are dataset-specific)."},
    {"table4", "Table 4: filtering detection, white-box", white_box_table,
     kFiltering,
     "Paper reports: MSE 98.6% acc (FAR 2.5%, FRR 0.8%); SSIM 99.3% acc "
     "(FAR 1.3%, FRR 0.2%)."},
    {"table5", "Table 5: filtering detection, black-box", black_box_table,
     kFiltering,
     "Paper reports: best config SSIM at 1% percentile, 99.2% acc (FAR 0.6%, "
     "FRR 1.0%); benign filtering MSE mean 1952.3 std 1543.3 on NeurIPS-2017 "
     "(absolute values are dataset-specific)."},
    {"table6", "Table 6: steganalysis detection (CSP)", steganalysis_table,
     {},
     "Paper reports: 98.9% acc with FAR 0.3% and FRR 1.7%, identical in the "
     "white-box and black-box settings because the threshold is fixed at 2."},
    {"table8", "Table 8: Decamouflage ensemble (majority vote)",
     ensemble_table, {},
     "Paper reports: white-box 99.9% acc (FAR 0.2%, FRR 0.0%); black-box "
     "99.8% acc (FAR 0.2%, FRR 0.1%)."},
    {"fig8", "Figure 8: scaling-detection score distributions (white-box)",
     white_box_dist, kScaling,
     "Paper shape: benign and attack modes are disjoint for both metrics; the "
     "paper's thresholds on its datasets were MSE 1714.96 and SSIM 0.61."},
    {"fig9", "Figure 9: benign scaling-score distributions (black-box)",
     benign_dist, kScaling,
     "Paper shape: near-normal benign distributions (their NeurIPS-2017 MSE "
     "mean 218.6, std 217.6; SSIM mean 0.91, std 0.59)."},
    {"fig10", "Figure 10: filtering-detection score distributions (white-box)",
     white_box_dist, kFiltering,
     "Paper shape: separable with thresholds MSE 5682.79 and SSIM 0.38 on its "
     "datasets; MSE shows slight class overlap, SSIM separates cleanly."},
    {"fig11", "Figure 11: benign filtering-score distributions (black-box)",
     benign_dist, kFiltering,
     "Paper shape: near-normal benign distributions (their filtering MSE mean "
     "1952.32, std 1543.27; SSIM mean 0.74, std 0.11)."},
    {"fig12", "Figure 12: CSP count distributions", csp_dist, {},
     "Paper shape: 99.3% of originals have 1 CSP, 98.2% of attacks have more "
     "than 1."},
    {"fig14",
     "Figure 14 (threshold selection): accuracy vs candidate threshold",
     threshold_search, kScaling,
     "Paper shape: training accuracy forms a plateau at ~100% between the "
     "benign and attack score supports; the search picks a midpoint on the "
     "plateau."},
    {"fig15", "Figures 15/16 (appendix): PSNR as a detection metric",
     psnr_overlap, {},
     "Paper shape: PSNR's benign and attack histograms overlap heavily, so the "
     "paper does not recommend PSNR for Decamouflage. Note: PSNR is a "
     "monotone transform of MSE per image pair, so its best achievable "
     "accuracy equals MSE's on the same scores; the paper's observed overlap "
     "reflects threshold instability (the decision boundary falls in a dense "
     "region), which is what the histograms show."},
    {"roc", "Extension: ROC/AUC across detectors and metrics", roc_table, {},
     "Shape: the six Decamouflage method/metric combinations sit at or near "
     "AUC 1.0 on every split; the baselines are the weakest rows."},
};

}  // namespace

int main(int argc, char** argv) {
  const Command* command = nullptr;
  for (const Command& c : kCommands) {
    if (argc > 1 && std::strcmp(argv[1], c.name) == 0) command = &c;
  }
  if (command == nullptr) {
    std::fprintf(stderr, "usage: %s <name> %s\nnames:", argv[0],
                 bench::kFlagUsage);
    for (const Command& c : kCommands) std::fprintf(stderr, " %s", c.name);
    std::fprintf(stderr, "\n");
    return 2;
  }
  const bench::BenchArgs args = bench::parse_args(argc, argv, command->name);
  bench::print_banner(command->title, args);
  command->run(bench::load_data(args), command->method);
  std::printf("%s\n", command->note);
  return 0;
}
