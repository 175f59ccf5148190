// Golden pins for the spectral engine, captured before the mixed-radix
// plans existed.
//
// Power-of-two lengths run the in-place bit-reversal radix-4/2 kernels and
// every length with a prime factor above 7 runs Bluestein over a
// power-of-two convolution. Neither path may change a bit when the planner
// learns new radices, so their outputs are pinned as FNV-1a hashes of the
// raw IEEE bit patterns (an exact pin: one flipped mantissa bit changes the
// hash). 7-smooth lengths such as 224, 448 and 640 moved from Bluestein to
// mixed-radix plans and are held to the naive-DFT budget in
// fft_parity_test.cpp instead — but the steganalysis verdicts they feed are
// pinned here too: the CSP count of benign and attacked scenes at the
// production geometries must not move.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "attack/scale_attack.h"
#include "core/steganalysis_detector.h"
#include "data/rng.h"
#include "data/synth.h"
#include "imaging/scale.h"
#include "signal/fft.h"
#include "signal/spectrum.h"

namespace decam {
namespace {

struct Fnv1a {
  std::uint64_t state = 0xcbf29ce484222325ULL;
  void add(std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      state ^= (word >> (8 * i)) & 0xffU;
      state *= 0x100000001b3ULL;
    }
  }
};

std::uint64_t hash_complex(const std::vector<Complex>& v) {
  Fnv1a h;
  for (const Complex& c : v) {
    h.add(std::bit_cast<std::uint64_t>(c.real()));
    h.add(std::bit_cast<std::uint64_t>(c.imag()));
  }
  return h.state;
}

std::uint64_t hash_image(const Image& img) {
  Fnv1a h;
  for (int c = 0; c < img.channels(); ++c) {
    for (const float v : img.plane(c)) h.add(std::bit_cast<std::uint32_t>(v));
  }
  return h.state;
}

std::vector<Complex> random_signal(std::size_t n, std::uint64_t seed) {
  data::Rng rng(seed);
  std::vector<Complex> signal(n);
  for (auto& v : signal) {
    v = Complex(rng.next_range(-1.0, 1.0), rng.next_range(-1.0, 1.0));
  }
  return signal;
}

Image random_image(int w, int h, int channels, std::uint64_t seed) {
  data::Rng rng(seed);
  Image img(w, h, channels);
  for (int c = 0; c < channels; ++c) {
    for (float& v : img.plane(c)) {
      v = static_cast<float>(rng.next_range(0.0, 255.0));
    }
  }
  return img;
}

struct LengthGolden {
  std::size_t n;
  std::uint64_t forward;
  std::uint64_t inverse;
};

// Forward and inverse transforms of random_signal(n, n + 1).
const LengthGolden kLengthGolden[] = {
    // power of two: in-place radix-4 (+ one radix-2 stage for odd log2 n)
    {256, 0xcfa7c0765dba7e5fULL, 0x3b444fbb9bfcd941ULL},
    {512, 0x59501316fa35c6b3ULL, 0x6378bb5f8818caceULL},
    {1024, 0x9aeafeb6a3305557ULL, 0xa59d0f0bf26e7291ULL},
    // Bluestein: primes 97, 227, 449 (convolution lengths 256, 512, 1024)
    {97, 0x3cb7b3d3b8d64901ULL, 0x11fd72db698c287aULL},
    {227, 0x36c39e71419ccf03ULL, 0xdeddd5db203255eeULL},
    {449, 0xe358364381cef148ULL, 0x32da3f790bbc5304ULL},
};

TEST(FftGolden, PowerOfTwoAndBluesteinTransformsBitIdentical) {
  for (const LengthGolden& golden : kLengthGolden) {
    const auto signal = random_signal(golden.n, golden.n + 1);
    auto forward = signal;
    fft(forward, false);
    auto inverse = signal;
    fft(inverse, true);
    EXPECT_EQ(hash_complex(forward), golden.forward)
        << "n=" << golden.n << std::hex << " forward 0x"
        << hash_complex(forward);
    EXPECT_EQ(hash_complex(inverse), golden.inverse)
        << "n=" << golden.n << std::hex << " inverse 0x"
        << hash_complex(inverse);
  }
}

TEST(FftGolden, CenteredLogSpectrumBitIdentical) {
  // 512^2 RGB: power-of-two rows and columns. 299^2 gray: 299 = 13 * 23,
  // Bluestein both ways (the Inception input side).
  const Image rgb512 = random_image(512, 512, 3, 512);
  const Image gray299 = random_image(299, 299, 1, 299);
  const std::uint64_t h512 = hash_image(centered_log_spectrum(rgb512));
  const std::uint64_t h299 = hash_image(centered_log_spectrum(gray299));
  EXPECT_EQ(h512, 0xffa862b47c965f35ULL)
      << std::hex << "512^2 rgb 0x" << h512;
  EXPECT_EQ(h299, 0x475007ade78bd14bULL)
      << std::hex << "299^2 gray 0x" << h299;
}

struct CspGolden {
  int width;
  int height;
  int benign;
  int attack;
};

// Seeded Regime-A scene at each production geometry (resized from a square
// draw when the geometry is not square) and a bilinear attack hiding a
// quarter-size target in it.
const CspGolden kCspGolden[] = {
    {224, 224, 1, 9},
    {448, 448, 1, 9},
    {640, 480, 1, 9},
};

TEST(FftGolden, SteganalysisCspCountsUnchanged) {
  const core::SteganalysisDetector detector;
  for (const CspGolden& golden : kCspGolden) {
    data::SceneParams params = data::scene_params(data::Regime::A);
    params.min_side = params.max_side = golden.width;
    data::Rng scene_rng(static_cast<std::uint64_t>(golden.width) * 7 +
                        golden.height);
    Image scene = data::generate_scene(params, scene_rng);
    if (golden.height != golden.width) {
      scene = resize(scene, golden.width, golden.height, ScaleAlgo::Bilinear);
    }
    data::Rng target_rng(static_cast<std::uint64_t>(golden.height) * 13 + 1);
    const Image target = data::generate_target(golden.width / 4,
                                               golden.height / 4, target_rng);
    attack::AttackOptions options;
    options.algo = ScaleAlgo::Bilinear;
    options.eps = 2.0;
    const Image crafted = attack::craft_attack(scene, target, options).image;
    EXPECT_EQ(detector.count_csp(scene), golden.benign)
        << golden.width << "x" << golden.height << " benign";
    EXPECT_EQ(detector.count_csp(crafted), golden.attack)
        << golden.width << "x" << golden.height << " attack";
  }
}

}  // namespace
}  // namespace decam
