// The runtime SIMD dispatch shim (common/simd.h): ISA naming and
// selection, table swapping, the simd/dispatch gauge, and — on hosts that
// carry a native table — bit-exact parity of every SimdOps entry against
// the normative scalar loops, including the vector-width tails.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/simd.h"
#include "common/simd_kernels.h"
#include "data/rng.h"
#include "imaging/filter.h"
#include "obs/metrics.h"

namespace decam {
namespace {

using simd::Isa;
using simd::SimdOps;

// Restores whatever table was active on entry, so these tests cannot leak a
// forced ISA into the rest of the binary.
struct IsaGuard {
  Isa previous = simd::active_isa();
  ~IsaGuard() { simd::set_active_isa(previous); }
};

TEST(SimdDispatch, IsaNames) {
  EXPECT_STREQ(simd::to_string(Isa::Scalar), "scalar");
  EXPECT_STREQ(simd::to_string(Isa::Avx2), "avx2");
  EXPECT_STREQ(simd::to_string(Isa::Neon), "neon");
}

TEST(SimdDispatch, ActiveTableNameMatchesIsa) {
  EXPECT_STREQ(simd::ops().name, simd::to_string(simd::active_isa()));
}

TEST(SimdDispatch, SetActiveIsaRoundTrips) {
  IsaGuard guard;
  const Isa before = simd::set_active_isa(Isa::Scalar);
  EXPECT_EQ(before, guard.previous);
  EXPECT_EQ(simd::active_isa(), Isa::Scalar);
  EXPECT_STREQ(simd::ops().name, "scalar");
  EXPECT_EQ(simd::set_active_isa(before), Isa::Scalar);
}

TEST(SimdDispatch, UnavailableIsaFallsBackToScalar) {
  IsaGuard guard;
  for (const Isa isa : {Isa::Avx2, Isa::Neon}) {
    simd::set_active_isa(isa);
    const Isa got = simd::active_isa();
    EXPECT_TRUE(got == isa || got == Isa::Scalar)
        << "requested " << simd::to_string(isa) << ", got "
        << simd::to_string(got);
  }
}

TEST(SimdDispatch, GaugeTracksActiveIsa) {
  IsaGuard guard;
  obs::Gauge& gauge = obs::MetricsRegistry::instance().gauge("simd/dispatch");
  simd::set_active_isa(Isa::Scalar);
  EXPECT_EQ(gauge.value(), 0.0);
  simd::set_active_isa(guard.previous);
  EXPECT_EQ(gauge.value(),
            static_cast<double>(static_cast<int>(simd::active_isa())));
}

// --- native-vs-scalar parity of each table entry -------------------------

// Sizes straddling the AVX2 (8 floats / 4 doubles / 16 uint16) and NEON
// (4 / 2 / 8) vector widths, plus scalar-tail-only and empty cases.
const int kSizes[] = {0, 1, 3, 4, 7, 8, 9, 15, 16, 17, 31, 33, 100};

std::vector<float> random_floats(int n, std::uint64_t seed, double lo = -2.0,
                                 double hi = 260.0) {
  data::Rng rng(seed);
  std::vector<float> out(static_cast<std::size_t>(n));
  for (float& v : out) v = static_cast<float>(rng.next_range(lo, hi));
  return out;
}

std::vector<double> random_doubles(int n, std::uint64_t seed) {
  data::Rng rng(seed);
  std::vector<double> out(static_cast<std::size_t>(n));
  for (double& v : out) v = rng.next_range(-1000.0, 1000.0);
  return out;
}

std::vector<std::uint16_t> random_u16(int n, std::uint64_t seed) {
  data::Rng rng(seed);
  std::vector<std::uint16_t> out(static_cast<std::size_t>(n));
  for (std::uint16_t& v : out) {
    v = static_cast<std::uint16_t>(rng.next_range(0.0, 65536.0));
  }
  return out;
}

class SimdParity : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!simd::native_available()) {
      GTEST_SKIP() << "no native SIMD table on this host";
    }
    // The tables are process-lifetime statics, so holding pointers to both
    // (regardless of which is active) is fine. The startup table may itself
    // be scalar (DECAM_SIMD=scalar); the native one is resolved explicitly.
    IsaGuard guard;
    simd::set_active_isa(Isa::Scalar);
    scalar_ = &simd::ops();
    for (const Isa isa : {Isa::Avx2, Isa::Neon}) {
      simd::set_active_isa(isa);
      if (simd::active_isa() == isa) {
        native_ = &simd::ops();
        native_isa_ = isa;
        break;
      }
    }
    ASSERT_NE(native_, nullptr);
    ASSERT_STRNE(native_->name, "scalar");
  }

  const SimdOps* scalar_ = nullptr;
  const SimdOps* native_ = nullptr;
  Isa native_isa_ = Isa::Scalar;
};

template <typename T>
void expect_bits_equal(const std::vector<T>& got, const std::vector<T>& want,
                       const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  ASSERT_EQ(0, std::memcmp(got.data(), want.data(), got.size() * sizeof(T)))
      << what;
}

TEST_F(SimdParity, HistOps) {
  for (const int n : kSizes) {
    const auto add = random_u16(n, 10u + n);
    const auto sub = random_u16(n, 20u + n);
    auto a = random_u16(n, 30u + n);
    auto b = a;
    scalar_->hist_merge_u16(a.data(), add.data(), sub.data(), n);
    native_->hist_merge_u16(b.data(), add.data(), sub.data(), n);
    expect_bits_equal(a, b, "hist_merge_u16 n=" + std::to_string(n));
    scalar_->hist_add_u16(a.data(), add.data(), n);
    native_->hist_add_u16(b.data(), add.data(), n);
    expect_bits_equal(a, b, "hist_add_u16 n=" + std::to_string(n));
  }
}

TEST_F(SimdParity, HistRank16) {
  data::Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    std::uint16_t bins[16];
    std::uint32_t total = 0;
    for (std::uint16_t& b : bins) {
      b = static_cast<std::uint16_t>(
          rng.next_range(0.0, trial % 3 == 0 ? 3.0 : 65536.0));
      total += b;
    }
    const std::uint32_t ranks[] = {0u, total / 2, total ? total - 1 : 0u,
                                   total, total + 5u};
    for (const std::uint32_t rank : ranks) {
      std::uint32_t below_s = 0, below_n = 0;
      const int idx_s = scalar_->hist_rank16_u16(bins, rank, &below_s);
      const int idx_n = native_->hist_rank16_u16(bins, rank, &below_n);
      EXPECT_EQ(idx_s, idx_n) << "trial " << trial << " rank " << rank;
      EXPECT_EQ(below_s, below_n) << "trial " << trial << " rank " << rank;
      // Contract check against a naive scan.
      std::uint32_t cum = 0;
      int want = 16;
      std::uint32_t want_below = total;
      for (int i = 0; i < 16; ++i) {
        if (cum + bins[i] > rank) {
          want = i;
          want_below = cum;
          break;
        }
        cum += bins[i];
      }
      EXPECT_EQ(idx_s, want) << "trial " << trial << " rank " << rank;
      EXPECT_EQ(below_s, want_below) << "trial " << trial << " rank " << rank;
    }
  }
}

TEST_F(SimdParity, WeightedRowOps) {
  const double w = 0.62345817;
  for (const int n : kSizes) {
    const auto in = random_floats(n, 40u + n);
    std::vector<float> fa(static_cast<std::size_t>(n)),
        fb(static_cast<std::size_t>(n));
    scalar_->weighted_assign_f32(fa.data(), in.data(), w, n);
    native_->weighted_assign_f32(fb.data(), in.data(), w, n);
    expect_bits_equal(fa, fb, "weighted_assign_f32 n=" + std::to_string(n));

    std::vector<double> da(static_cast<std::size_t>(n)),
        db(static_cast<std::size_t>(n));
    scalar_->weighted_init_f64(da.data(), in.data(), w, n);
    native_->weighted_init_f64(db.data(), in.data(), w, n);
    expect_bits_equal(da, db, "weighted_init_f64 n=" + std::to_string(n));

    scalar_->weighted_add_f64(da.data(), in.data(), 1.7 * w, n);
    native_->weighted_add_f64(db.data(), in.data(), 1.7 * w, n);
    expect_bits_equal(da, db, "weighted_add_f64 n=" + std::to_string(n));

    scalar_->weighted_finish_f32(fa.data(), da.data(), in.data(), w, n);
    native_->weighted_finish_f32(fb.data(), db.data(), in.data(), w, n);
    expect_bits_equal(fa, fb, "weighted_finish_f32 n=" + std::to_string(n));
  }
}

TEST_F(SimdParity, ConvolveAndReduceOps) {
  for (const int n : kSizes) {
    const auto in = random_floats(n, 50u + n);
    const auto in2 = random_floats(n, 60u + n);
    auto da = random_doubles(n, 70u + n);
    auto db = da;
    scalar_->tap_accumulate_f32(da.data(), in.data(), 0.125f, n);
    native_->tap_accumulate_f32(db.data(), in.data(), 0.125f, n);
    expect_bits_equal(da, db, "tap_accumulate_f32 n=" + std::to_string(n));

    std::vector<float> fa(static_cast<std::size_t>(n)),
        fb(static_cast<std::size_t>(n));
    scalar_->narrow_f64_f32(fa.data(), da.data(), n);
    native_->narrow_f64_f32(fb.data(), db.data(), n);
    expect_bits_equal(fa, fb, "narrow_f64_f32 n=" + std::to_string(n));

    const auto x = random_doubles(n, 80u + n);
    scalar_->daxpy_f64(da.data(), x.data(), 0.333, n);
    native_->daxpy_f64(db.data(), x.data(), 0.333, n);
    expect_bits_equal(da, db, "daxpy_f64 n=" + std::to_string(n));

    std::vector<double> sa(static_cast<std::size_t>(n)),
        sb(static_cast<std::size_t>(n));
    scalar_->sqdiff_f64(sa.data(), in.data(), in2.data(), n);
    native_->sqdiff_f64(sb.data(), in.data(), in2.data(), n);
    expect_bits_equal(sa, sb, "sqdiff_f64 n=" + std::to_string(n));
  }
}

TEST_F(SimdParity, PairStatsTaps) {
  const std::vector<double> win = {0.05, 0.09, 0.12, 0.15, 0.18,
                                   0.15, 0.12, 0.09, 0.05};
  const int taps = static_cast<int>(win.size());
  for (const int n : kSizes) {
    const auto a = random_floats(n + taps - 1, 90u + n, 0.0, 255.0);
    const auto b = random_floats(n + taps - 1, 91u + n, 0.0, 255.0);
    std::vector<double> pa(static_cast<std::size_t>(5 * n), 0.0);
    std::vector<double> pb(static_cast<std::size_t>(5 * n), 0.0);
    const auto run = [&](const SimdOps* ops, std::vector<double>& p) {
      double* base = p.data();
      ops->pair_stats_taps(base, base + n, base + 2 * n, base + 3 * n,
                           base + 4 * n, a.data(), b.data(), win.data(), taps,
                           n);
    };
    run(scalar_, pa);
    run(native_, pb);
    expect_bits_equal(pa, pb, "pair_stats_taps n=" + std::to_string(n));
  }
}

// The forward half of the jpeg_block contract, written out naively: the
// DCT coefficients f the quantiser divides.
std::vector<double> forward_dct(const std::vector<float>& src) {
  const double* c = simd::detail::dct8_basis();
  std::vector<double> s(64), t(64), f(64);
  for (int i = 0; i < 64; ++i) s[i] = static_cast<double>(src[i]) - 128.0;
  for (int y = 0; y < 8; ++y) {
    for (int k = 0; k < 8; ++k) {
      double acc = 0.0;
      for (int n = 0; n < 8; ++n) acc += s[y * 8 + n] * c[k * 8 + n];
      t[y * 8 + k] = acc;
    }
  }
  for (int x = 0; x < 8; ++x) {
    for (int k = 0; k < 8; ++k) {
      double acc = 0.0;
      for (int n = 0; n < 8; ++n) acc += t[n * 8 + x] * c[k * 8 + n];
      f[k * 8 + x] = acc;
    }
  }
  return f;
}

// A quantiser step q > 0 with f / q == +-(m + 0.5) exactly, so the block's
// rounding has to break a tie; 0 when no nearby step lands on it.
double tie_step(double f, int m) {
  const double half = m + 0.5;
  double q = std::fabs(f) / half;
  for (int tries = 0; tries < 64; ++tries) {
    const double quotient = std::fabs(f / q);
    if (quotient == half) return q;
    q = std::nextafter(q, quotient > half ? 1e300 : 0.0);
  }
  return 0.0;
}

TEST_F(SimdParity, JpegBlock) {
  data::Rng rng(2718);
  const auto run = [&](const std::vector<float>& src, int src_stride,
                       const std::vector<double>& quant,
                       const std::string& what) {
    // Strided destinations with a sentinel: only the 8x8 window may change.
    const int dst_stride = 11;
    std::vector<float> a(static_cast<std::size_t>(8 * dst_stride), -7.0f);
    std::vector<float> b = a;
    scalar_->jpeg_block(src.data(), src_stride, a.data(), dst_stride,
                        quant.data());
    native_->jpeg_block(src.data(), src_stride, b.data(), dst_stride,
                        quant.data());
    for (int y = 0; y < 8; ++y) {
      for (int x = 8; x < dst_stride; ++x) {
        ASSERT_EQ(a[static_cast<std::size_t>(y * dst_stride + x)], -7.0f)
            << what;
      }
    }
    expect_bits_equal(a, b, what);
  };

  int ties_up = 0, ties_down = 0;
  for (int trial = 0; trial < 60; ++trial) {
    std::vector<float> src(64);
    for (float& v : src) {
      v = static_cast<float>(trial % 2 == 0
                                 ? std::floor(rng.next_range(0.0, 256.0))
                                 : rng.next_range(-40.0, 300.0));
    }
    std::vector<double> quant(64);
    for (double& q : quant) q = std::floor(rng.next_range(1.0, 256.0));
    run(src, 8, quant, "random block " + std::to_string(trial));

    // The same block with every coefficient's quotient on a tie.
    const std::vector<double> f = forward_dct(src);
    for (int i = 0; i < 64; ++i) {
      const double q = tie_step(f[i], i % 4);
      if (q == 0.0) continue;
      quant[i] = q;
      (f[i] > 0.0 ? ties_up : ties_down) += 1;
    }
    run(src, 8, quant, "tie block " + std::to_string(trial));
  }
  EXPECT_GT(ties_up, 100) << "too few +(m + 0.5) quotients exercised";
  EXPECT_GT(ties_down, 100) << "too few -(m + 0.5) quotients exercised";

  // Strided source (the interior-block call), saturation on both sides,
  // and non-finite samples.
  std::vector<float> wide(static_cast<std::size_t>(8 * 13));
  for (float& v : wide) v = static_cast<float>(rng.next_range(-500.0, 800.0));
  const std::vector<double> coarse(64, 1.0);
  run(wide, 13, coarse, "strided, saturating");
  for (const float special : {std::numeric_limits<float>::quiet_NaN(),
                              std::numeric_limits<float>::infinity(),
                              -std::numeric_limits<float>::infinity()}) {
    std::vector<float> src(64, 100.0f);
    src[19] = special;
    run(src, 8, coarse, "non-finite " + std::to_string(special));
  }
}

TEST_F(SimdParity, MedianIdenticalUnderForcedIsa) {
  data::Rng rng(314);
  Image img(33, 21, 2);
  for (int c = 0; c < 2; ++c) {
    for (float& v : img.plane(c)) {
      v = static_cast<float>(static_cast<int>(rng.next_range(0.0, 256.0)));
    }
  }
  ASSERT_EQ(classify_median_path(img), MedianPath::Grid8);
  IsaGuard guard;
  for (const int k : {2, 3, 9}) {
    simd::set_active_isa(native_isa_);
    const Image native = rank_filter(img, k, RankOp::Median);
    simd::set_active_isa(Isa::Scalar);
    const Image scalar = rank_filter(img, k, RankOp::Median);
    for (int c = 0; c < 2; ++c) {
      for (int y = 0; y < img.height(); ++y) {
        for (int x = 0; x < img.width(); ++x) {
          ASSERT_EQ(native.at(x, y, c), scalar.at(x, y, c))
              << "k=" << k << " (" << x << ", " << y << ", " << c << ")";
        }
      }
    }
  }
}

TEST(MedianPathCounters, RecordRouting) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::instance();
  obs::Counter& grid8 = registry.counter("rank_median/grid8");
  obs::Counter& exact = registry.counter("rank_median/exact");
  Image img(8, 8, 1);
  for (float& v : img.plane(0)) v = 3.0f;
  const std::uint64_t grid8_before = grid8.value();
  (void)rank_filter(img, 3, RankOp::Median);
  EXPECT_EQ(grid8.value(), grid8_before + 1);
  img.plane(0)[0] = 0.7f;
  const std::uint64_t exact_before = exact.value();
  (void)rank_filter(img, 3, RankOp::Median);
  EXPECT_EQ(exact.value(), exact_before + 1);
}

}  // namespace
}  // namespace decam
