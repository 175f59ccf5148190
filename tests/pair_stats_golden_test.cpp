// Golden pair_stats() values at the production geometries, pinned bit for
// bit.
//
// battery_golden pins the fused pass on 72–96 px scenes only; the scan
// path runs it on 299² gray and 448², 640×480 and 1024² RGB images, where
// the ring rows are wide and the SIMD kernels run thousands of full vector
// groups per row. The values below were captured from the per-tap
// stat-major implementation (one daxpy sweep per tap and stat) before the
// register-blocked kernels replaced it; the fused pass promises the same
// bits because every accumulator keeps its floating-point addition order.
// The edge shapes cover widths on every side of the 4-wide vector groups
// and heights shorter than the 11-row ring, where the clamped vertical taps
// read the same ring row several times.
//
// On a mismatch each failure prints the whole computed row, ready to paste
// when a change is meant to move these values.
#include <gtest/gtest.h>

#include <algorithm>
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include "core/preprocess_defense.h"
#include "data/rng.h"
#include "data/synth.h"
#include "imaging/filter.h"
#include "imaging/scale.h"
#include "imaging/transform.h"
#include "metrics/fused.h"

namespace decam {
namespace {

struct Golden {
  const char* name;
  double mse;
  double ssim;
  double psnr;
};

const Golden kProductionGolden[] = {
    {"g299/filtered",
     0.96512343262379618, 0.99635512947684557,
     48.284975007061597},
    {"g299/round_trip",
     0.07227624734950848, 0.99903669812162155,
     59.540847653701263},
    {"c448/filtered",
     7.0116888552295915, 0.98949349947571819,
     39.672577249029402},
    {"c448/round_trip",
     1.7405267670041038, 0.99538995880187431,
     45.723996543204031},
    {"c640x480/filtered",
     2.0868598090277777, 0.99562900871347937,
     44.935870858372624},
    {"c640x480/round_trip",
     0.48786311548929906, 0.99757748596684792,
     51.247823760103934},
    {"c1024/filtered",
     0.78060976664225257, 0.99709981707098549,
     49.206463801892674},
    {"c1024/round_trip",
     0.55174076972473218, 0.99677787882435165,
     50.713452844463532},
    {"c448/squeeze4+jpeg75/round_trip",
     0.29744389537503357, 0.9971415129116713,
     53.396753008096255},
};

const Golden kEdgeGolden[] = {
    {"1x1x1",
     18.696228597313166, 0.99972351437490581,
     35.413263513668831},
    {"3x13x1",
     404.58002072796359, 0.94612139340264489,
     22.060759285572932},
    {"7x5x3",
     648.15623716688287, 0.94386053452080676,
     20.014006562922869},
    {"20x17x1",
     566.53351092852404, 0.94517851080041571,
     20.5985475702877},
    {"21x17x3",
     625.95152101746385, 0.94174939274699299,
     20.165396617946829},
    {"22x17x1",
     602.62297067821078, 0.94267634706456549,
     20.330346788530782},
    {"23x17x3",
     546.00396301083163, 0.94824128327716295,
     20.758845659516535},
    {"1x12x1",
     822.07082262507413, 0.9022537503579996,
     18.981711265999923},
    {"640x3x1",
     561.62797645696844, 0.943007709203463,
     20.636316276324433},
    {"29x1x1",
     682.39577274401631, 0.91323570864531123,
     19.790440330361601},
    {"29x2x3",
     518.25915635205411, 0.94481967184002758,
     20.985333771294247},
    {"29x3x1",
     627.69970424420183, 0.94330762129254464,
     20.153284368454322},
    {"29x4x3",
     515.15416385874073, 0.94637554255274203,
     21.011431464012198},
    {"29x5x1",
     575.5020243548837, 0.93771752784859375,
     20.530335052485654},
    {"29x6x3",
     538.79102321629409, 0.94776196471943364,
     20.816600095261411},
    {"29x7x1",
     535.09282774142844, 0.95192250041659721,
     20.846512310358641},
    {"29x8x3",
     590.31783902746679, 0.93866008819339219,
     20.419944533469874},
    {"29x9x1",
     543.71238768487524, 0.94521560053268527,
     20.777111329942155},
    {"29x10x3",
     530.59784486918954, 0.94720157593222876,
     20.883148791931781},
};

struct Pair {
  std::string name;
  Image a;
  Image b;
};

// A synthetic scene at an exact geometry: a square scene of the larger
// side, cropped (the scan benchmark's corpus draws its categories this way).
Image scene(int width, int height, bool color, std::uint64_t seed) {
  data::SceneParams params = data::scene_params(data::Regime::A);
  params.min_side = params.max_side = std::max(width, height);
  params.color = color;
  data::Rng rng(seed);
  const Image square = data::generate_scene(params, rng);
  if (square.width() == width && square.height() == height) return square;
  return crop(square, 0, 0, width, height);
}

// Each scene against the two images the detectors compare it with: its 2×2
// minimum-filtered image and its 224² bilinear round trip. Then one
// squeeze4+jpeg75 defended scene against its round trip — the defended
// pixels are not integers.
std::vector<Pair> production_pairs() {
  struct Geometry {
    const char* name;
    int width;
    int height;
    bool color;
  };
  const Geometry geometries[] = {{"g299", 299, 299, false},
                                 {"c448", 448, 448, true},
                                 {"c640x480", 640, 480, true},
                                 {"c1024", 1024, 1024, true}};
  std::vector<Pair> pairs;
  std::uint64_t seed = 1800;
  for (const Geometry& g : geometries) {
    const Image a = scene(g.width, g.height, g.color, seed++);
    const std::string name = g.name;
    pairs.push_back({name + "/filtered", a, rank_filter(a, 2, RankOp::Min)});
    pairs.push_back(
        {name + "/round_trip", a,
         scale_round_trip(a, 224, 224, ScaleAlgo::Bilinear,
                          ScaleAlgo::Bilinear)});
  }
  const Image defended = core::DefenseChain::parse("squeeze4+jpeg75")
                             .apply(scene(448, 448, true, seed));
  pairs.push_back({"c448/squeeze4+jpeg75/round_trip", defended,
                   scale_round_trip(defended, 224, 224, ScaleAlgo::Bilinear,
                                    ScaleAlgo::Bilinear)});
  return pairs;
}

// Random non-integral pixels and a noisy copy of them.
Pair noise_pair(int width, int height, int channels, std::uint64_t seed) {
  data::Rng rng(seed);
  Image a(width, height, channels);
  Image b(width, height, channels);
  for (int c = 0; c < channels; ++c) {
    auto pa = a.plane(c);
    auto pb = b.plane(c);
    for (std::size_t i = 0; i < pa.size(); ++i) {
      pa[i] = static_cast<float>(rng.next_range(0.0, 255.0));
      pb[i] = static_cast<float>(
          std::clamp(pa[i] + 25.0 * rng.next_gaussian(), 0.0, 255.0));
    }
  }
  std::ostringstream name;
  name << width << 'x' << height << 'x' << channels;
  return {name.str(), a, b};
}

std::vector<Pair> edge_pairs() {
  struct Shape {
    int width;
    int height;
    int channels;
  };
  std::vector<Shape> shapes = {{1, 1, 1},   {3, 13, 1},  {7, 5, 3},
                               {20, 17, 1}, {21, 17, 3}, {22, 17, 1},
                               {23, 17, 3}, {1, 12, 1},  {640, 3, 1}};
  for (int h = 1; h <= 10; ++h) shapes.push_back({29, h, h % 2 ? 1 : 3});
  std::vector<Pair> pairs;
  std::uint64_t seed = 90;
  for (const Shape& s : shapes) {
    pairs.push_back(noise_pair(s.width, s.height, s.channels, seed++));
  }
  return pairs;
}

std::string golden_row(const std::string& name, const PairStats& got) {
  std::ostringstream row;
  row << std::setprecision(17) << "{\"" << name << "\", " << got.mse << ", "
      << got.ssim << ", " << got.psnr << "},";
  return row.str();
}

void expect_golden(const std::vector<Pair>& pairs, const Golden* golden,
                   std::size_t count) {
  EXPECT_EQ(pairs.size(), count);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const Pair& pair = pairs[i];
    const PairStats got = pair_stats(pair.a, pair.b);
    const std::string row = golden_row(pair.name, got);
    if (i >= count) {
      ADD_FAILURE() << "no golden row for " << row;
      continue;
    }
    EXPECT_EQ(pair.name, golden[i].name) << row;
    EXPECT_EQ(got.mse, golden[i].mse) << row;
    EXPECT_EQ(got.ssim, golden[i].ssim) << row;
    EXPECT_EQ(got.psnr, golden[i].psnr) << row;
    // The thread's workspace has been sized by every earlier pair; a fresh
    // one must give the same bits.
    PairStatsWorkspace fresh;
    const PairStats again = pair_stats(pair.a, pair.b, fresh);
    EXPECT_EQ(again.mse, got.mse) << pair.name;
    EXPECT_EQ(again.ssim, got.ssim) << pair.name;
    EXPECT_EQ(again.psnr, got.psnr) << pair.name;
  }
}

TEST(PairStatsGolden, ProductionGeometriesBitIdentical) {
  expect_golden(production_pairs(), kProductionGolden,
                std::size(kProductionGolden));
}

TEST(PairStatsGolden, EdgeShapesBitIdentical) {
  expect_golden(edge_pairs(), kEdgeGolden, std::size(kEdgeGolden));
}

}  // namespace
}  // namespace decam
