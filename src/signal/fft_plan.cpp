#include "signal/fft_plan.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <list>
#include <map>
#include <mutex>
#include <numbers>

#include "common/error.h"
#include "obs/memstats.h"
#include "obs/metrics.h"

namespace decam {
namespace {

bool is_pow2(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

// The lengths an FftPlan covers: every prime factor is 2, 3, 5 or 7.
bool is_fft_plan_length(std::size_t n) {
  if (n == 0) return false;
  for (const std::size_t p : {2u, 3u, 5u, 7u}) {
    while (n % p == 0) n /= p;
  }
  return n == 1;
}

// ----------------------------------------------------------- plan build --

// exp(sign * 2*pi*i * num / den), from the exact index ratio.
Complex unit_root(double sign, std::size_t num, std::size_t den) {
  const double a = sign * 2.0 * std::numbers::pi * static_cast<double>(num) /
                   static_cast<double>(den);
  return {std::cos(a), std::sin(a)};
}

void build_pow2_stages(FftPlan& plan) {
  const std::size_t n = plan.n;
  const int log2n = std::countr_zero(n);
  plan.bitrev.resize(n);
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    plan.bitrev[i] = static_cast<std::uint32_t>(j);
  }

  // Radix-4 stages combine length-L sub-transforms into 4L. When log2(n) is
  // odd a twiddle-free radix-2 stage runs first (DIT) or last (DIF), so the
  // radix-4 ladder starts at L = 2 instead of 1.
  if (log2n & 1) plan.stages.push_back({2, 1, 0});
  const double sign = plan.inverse ? 1.0 : -1.0;
  std::size_t L = (log2n & 1) ? 2 : 1;
  for (; L * 4 <= n; L *= 4) {
    plan.stages.push_back({4, static_cast<std::uint32_t>(L),
                           static_cast<std::uint32_t>(plan.twiddles.size())});
    const double base =
        sign * 2.0 * std::numbers::pi / static_cast<double>(4 * L);
    for (std::size_t k = 0; k < L; ++k) {
      const double a = base * static_cast<double>(k);
      plan.twiddles.emplace_back(std::cos(a), std::sin(a));
      plan.twiddles.emplace_back(std::cos(2 * a), std::sin(2 * a));
      plan.twiddles.emplace_back(std::cos(3 * a), std::sin(3 * a));
    }
  }
}

// Stockham stages for a 7-smooth, non-power-of-two n. The largest odd
// radix goes first, where Ns = 1 spares its R - 1 twiddle products per
// butterfly.
void build_stockham_stages(FftPlan& plan) {
  std::vector<std::uint32_t> radices;
  std::size_t rest = plan.n;
  for (const std::uint32_t p : {7u, 5u, 3u}) {
    for (; rest % p == 0; rest /= p) radices.push_back(p);
  }
  for (; rest % 4 == 0; rest /= 4) radices.push_back(4);
  if (rest == 2) radices.push_back(2);

  const double sign = plan.inverse ? 1.0 : -1.0;
  std::size_t ns = 1;
  for (const std::uint32_t radix : radices) {
    plan.stages.push_back({radix, static_cast<std::uint32_t>(ns),
                           static_cast<std::uint32_t>(plan.twiddles.size())});
    if (radix & 1) {
      for (std::size_t q = 0; q < radix; ++q) {
        plan.twiddles.push_back(unit_root(sign, q, radix));
      }
    }
    if (ns > 1) {
      for (std::size_t k = 0; k < ns; ++k) {
        for (std::size_t r = 1; r < radix; ++r) {
          plan.twiddles.push_back(unit_root(sign, r * k, radix * ns));
        }
      }
    }
    ns *= radix;
  }
}

FftPlan make_fft_plan(std::size_t n, bool inverse) {
  DECAM_REQUIRE(is_fft_plan_length(n),
                "FftPlan for a length with a prime factor above 7");
  FftPlan plan;
  plan.n = n;
  plan.inverse = inverse;
  if (is_pow2(n)) {
    build_pow2_stages(plan);
  } else {
    build_stockham_stages(plan);
  }
  return plan;
}

// DIT radix-2 stage over adjacent pairs (twiddle-free: W^0 only).
inline void radix2_pairs(Complex* a, std::size_t n) {
  for (std::size_t i = 0; i < n; i += 2) {
    const Complex u = a[i];
    const Complex v = a[i + 1];
    a[i] = u + v;
    a[i + 1] = u - v;
  }
}

// Shared radix-4 butterfly core. Sub-blocks within a 4L group sit in
// bit-reversed residue order (0, 2, 1, 3): block 1 holds residue 2, block 2
// holds residue 1 — in DIT that reorders the *reads*, in DIF the *writes*.
// `j` below is W^L = exp(sign*i*pi/2) = (0, sign).
//
// The arithmetic is spelled out on explicit doubles: std::complex
// operator* compiles to a NaN-recovery branch around __muldc3 (Annex G
// semantics), which blocks vectorisation and costs a call on every
// butterfly. Plain real/imag products have no such path.

void dit_stages(const FftPlan& plan, Complex* a) {
  const std::size_t n = plan.n;
  const double s = plan.inverse ? 1.0 : -1.0;
  for (const FftStage& stage : plan.stages) {
    if (stage.radix == 2) {
      radix2_pairs(a, n);
      continue;
    }
    const std::size_t L = stage.span;
    const Complex* stage_tw = plan.twiddles.data() + stage.twiddle_offset;
    for (std::size_t i = 0; i < n; i += 4 * L) {
      Complex* p0 = a + i;
      Complex* p1 = a + i + L;
      Complex* p2 = a + i + 2 * L;
      Complex* p3 = a + i + 3 * L;
      const Complex* w = stage_tw;
      for (std::size_t k = 0; k < L; ++k, w += 3) {
        const double t0r = p0[k].real(), t0i = p0[k].imag();
        // residue 1 lives in block 2, residue 2 in block 1
        const double x1r = p2[k].real(), x1i = p2[k].imag();
        const double x2r = p1[k].real(), x2i = p1[k].imag();
        const double x3r = p3[k].real(), x3i = p3[k].imag();
        const double t1r = x1r * w[0].real() - x1i * w[0].imag();
        const double t1i = x1r * w[0].imag() + x1i * w[0].real();
        const double t2r = x2r * w[1].real() - x2i * w[1].imag();
        const double t2i = x2r * w[1].imag() + x2i * w[1].real();
        const double t3r = x3r * w[2].real() - x3i * w[2].imag();
        const double t3i = x3r * w[2].imag() + x3i * w[2].real();
        const double u0r = t0r + t2r, u0i = t0i + t2i;
        const double u1r = t0r - t2r, u1i = t0i - t2i;
        const double u2r = t1r + t3r, u2i = t1i + t3i;
        const double u3r = t1r - t3r, u3i = t1i - t3i;
        const double ju3r = -s * u3i, ju3i = s * u3r;
        p0[k] = Complex(u0r + u2r, u0i + u2i);
        p1[k] = Complex(u1r + ju3r, u1i + ju3i);
        p2[k] = Complex(u0r - u2r, u0i - u2i);
        p3[k] = Complex(u1r - ju3r, u1i - ju3i);
      }
    }
  }
}

void dif_stages(const FftPlan& plan, Complex* a) {
  const std::size_t n = plan.n;
  const double s = plan.inverse ? 1.0 : -1.0;
  for (auto it = plan.stages.rbegin(); it != plan.stages.rend(); ++it) {
    if (it->radix == 2) {
      radix2_pairs(a, n);
      continue;
    }
    const std::size_t L = it->span;
    const Complex* stage_tw = plan.twiddles.data() + it->twiddle_offset;
    for (std::size_t i = 0; i < n; i += 4 * L) {
      Complex* p0 = a + i;
      Complex* p1 = a + i + L;
      Complex* p2 = a + i + 2 * L;
      Complex* p3 = a + i + 3 * L;
      const Complex* w = stage_tw;
      for (std::size_t k = 0; k < L; ++k, w += 3) {
        const double a0r = p0[k].real(), a0i = p0[k].imag();
        const double a1r = p1[k].real(), a1i = p1[k].imag();
        const double a2r = p2[k].real(), a2i = p2[k].imag();
        const double a3r = p3[k].real(), a3i = p3[k].imag();
        const double u0r = a0r + a2r, u0i = a0i + a2i;
        const double u1r = a0r - a2r, u1i = a0i - a2i;
        const double u2r = a1r + a3r, u2i = a1i + a3i;
        const double u3r = a1r - a3r, u3i = a1i - a3i;
        const double ju3r = -s * u3i, ju3i = s * u3r;
        const double c2r = u0r - u2r, c2i = u0i - u2i;
        const double c1r = u1r + ju3r, c1i = u1i + ju3i;
        const double c3r = u1r - ju3r, c3i = u1i - ju3i;
        p0[k] = Complex(u0r + u2r, u0i + u2i);  // residue 0 -> block 0
        p1[k] = Complex(c2r * w[1].real() - c2i * w[1].imag(),
                        c2r * w[1].imag() + c2i * w[1].real());
        p2[k] = Complex(c1r * w[0].real() - c1i * w[0].imag(),
                        c1r * w[0].imag() + c1i * w[0].real());
        p3[k] = Complex(c3r * w[2].real() - c3i * w[2].imag(),
                        c3r * w[2].imag() + c3i * w[2].real());
      }
    }
  }
}

// ------------------------------------------------------------ Stockham --

// Butterflies of the autosort stages, in place on x[0..R) (real parts xr,
// imaginary parts xi), explicit doubles for the __muldc3 reason above.
// `s` is the transform sign; (cr[q], ci[q]) is the stage's root
// exp(s*2*pi*i*q/R).

inline void butterfly2(double* xr, double* xi) {
  const double ur = xr[0] - xr[1], ui = xi[0] - xi[1];
  xr[0] += xr[1];
  xi[0] += xi[1];
  xr[1] = ur;
  xi[1] = ui;
}

inline void butterfly4(double* xr, double* xi, double s) {
  const double u0r = xr[0] + xr[2], u0i = xi[0] + xi[2];
  const double u1r = xr[0] - xr[2], u1i = xi[0] - xi[2];
  const double u2r = xr[1] + xr[3], u2i = xi[1] + xi[3];
  const double u3r = xr[1] - xr[3], u3i = xi[1] - xi[3];
  // j * u3 with j = W_4 = exp(s*i*pi/2) = (0, s)
  const double ju3r = -s * u3i, ju3i = s * u3r;
  xr[0] = u0r + u2r;
  xi[0] = u0i + u2i;
  xr[1] = u1r + ju3r;
  xi[1] = u1i + ju3i;
  xr[2] = u0r - u2r;
  xi[2] = u0i - u2i;
  xr[3] = u1r - ju3r;
  xi[3] = u1i - ju3i;
}

// Odd prime R: inputs pair up as a_j = x_j + x_{R-j}, b_j = x_j - x_{R-j},
// and outputs k, R-k share the real combination sum_j Re(W^jk) a_j, with
// the sum_j Im(W^jk) b_j term rotated by +i or -i:
//   y_k     = x_0 + sum_j (Re(W^jk) a_j + i Im(W^jk) b_j)
//   y_{R-k} = x_0 + sum_j (Re(W^jk) a_j - i Im(W^jk) b_j)
template <int R>
inline void butterfly_odd(double* xr, double* xi, const double* cr,
                          const double* ci) {
  constexpr int kHalf = R / 2;
  double ar[kHalf + 1] = {}, ai[kHalf + 1] = {};
  double br[kHalf + 1] = {}, bi[kHalf + 1] = {};
  double y0r = xr[0], y0i = xi[0];
  for (int j = 1; j <= kHalf; ++j) {
    ar[j] = xr[j] + xr[R - j];
    ai[j] = xi[j] + xi[R - j];
    br[j] = xr[j] - xr[R - j];
    bi[j] = xi[j] - xi[R - j];
    y0r += ar[j];
    y0i += ai[j];
  }
  for (int k = 1; k <= kHalf; ++k) {
    double pr = xr[0], pi = xi[0], qr = 0.0, qi = 0.0;
    for (int j = 1; j <= kHalf; ++j) {
      const int q = (j * k) % R;
      pr += cr[q] * ar[j];
      pi += cr[q] * ai[j];
      qr += ci[q] * br[j];
      qi += ci[q] * bi[j];
    }
    // i * (qr + i qi) = (-qi, qr)
    xr[k] = pr - qi;
    xi[k] = pi + qr;
    xr[R - k] = pr + qi;
    xi[R - k] = pi - qr;
  }
  xr[0] = y0r;
  xi[0] = y0i;
}

// One radix-R pass, src -> dst (n points, Ns = ns): butterfly j = b*Ns + k
// reads src[j + r*n/R] (twiddled by W^(r*k)) and writes dst[b*Ns*R + k +
// r*Ns]. Both sides are contiguous in k.
template <int R, bool kTwiddle>
void stockham_pass(const Complex* src, Complex* dst, std::size_t n,
                   std::size_t ns, const Complex* table, double s) {
  double cr[R] = {}, ci[R] = {};  // roots, read only by odd radices
  if constexpr (R & 1) {
    for (int q = 0; q < R; ++q) {
      cr[q] = table[q].real();
      ci[q] = table[q].imag();
    }
    table += R;
  }
  const std::size_t stride = n / R;
  for (std::size_t j0 = 0; j0 < stride; j0 += ns) {
    const Complex* in = src + j0;
    Complex* out = dst + j0 * R;
    const Complex* w = table;
    for (std::size_t k = 0; k < ns; ++k) {
      double xr[R], xi[R];
      xr[0] = in[k].real();
      xi[0] = in[k].imag();
      for (int r = 1; r < R; ++r) {
        const double vr = in[k + r * stride].real();
        const double vi = in[k + r * stride].imag();
        if constexpr (kTwiddle) {
          const double wr = w[r - 1].real(), wi = w[r - 1].imag();
          xr[r] = vr * wr - vi * wi;
          xi[r] = vr * wi + vi * wr;
        } else {
          xr[r] = vr;
          xi[r] = vi;
        }
      }
      if constexpr (kTwiddle) w += R - 1;
      if constexpr (R == 2) {
        butterfly2(xr, xi);
      } else if constexpr (R == 4) {
        butterfly4(xr, xi, s);
      } else {
        butterfly_odd<R>(xr, xi, cr, ci);
      }
      for (int r = 0; r < R; ++r) out[k + r * ns] = Complex(xr[r], xi[r]);
    }
  }
}

template <int R>
void stockham_stage(const Complex* src, Complex* dst, std::size_t n,
                    std::size_t ns, const Complex* table, double s) {
  if (ns == 1) {
    stockham_pass<R, false>(src, dst, n, 1, table, s);
  } else {
    stockham_pass<R, true>(src, dst, n, ns, table, s);
  }
}

void stockham_exec(const FftPlan& plan, Complex* data) {
  const std::size_t n = plan.n;
  // Grow-only per-thread ping-pong buffer, as for Bluestein's scratch.
  thread_local std::vector<Complex> scratch;
  if (scratch.size() < n) scratch.resize(n);
  Complex* src = data;
  Complex* dst = scratch.data();
  const double s = plan.inverse ? 1.0 : -1.0;
  for (const FftStage& stage : plan.stages) {
    const Complex* table = plan.twiddles.data() + stage.twiddle_offset;
    switch (stage.radix) {
      case 2: stockham_stage<2>(src, dst, n, stage.span, table, s); break;
      case 3: stockham_stage<3>(src, dst, n, stage.span, table, s); break;
      case 4: stockham_stage<4>(src, dst, n, stage.span, table, s); break;
      case 5: stockham_stage<5>(src, dst, n, stage.span, table, s); break;
      default: stockham_stage<7>(src, dst, n, stage.span, table, s); break;
    }
    std::swap(src, dst);
  }
  // An odd stage count leaves the result in scratch; the copy back folds in
  // the inverse's 1/n.
  const double scale = plan.inverse ? 1.0 / static_cast<double>(n) : 1.0;
  if (src != data) {
    for (std::size_t i = 0; i < n; ++i) {
      data[i] = Complex(scale * src[i].real(), scale * src[i].imag());
    }
  } else if (plan.inverse) {
    for (std::size_t i = 0; i < n; ++i) data[i] *= scale;
  }
}

// ----------------------------------------------------------------- cache --

// Heap held by a cached plan, for the resident-bytes gauges. A Bluestein
// plan's convolution sub-plans are shared_ptrs into the FftPlan cache and
// are counted there, not here — summing both gauges never double counts.
std::uint64_t plan_bytes(const FftPlan& plan) {
  return plan.bitrev.capacity() * sizeof(std::uint32_t) +
         plan.twiddles.capacity() * sizeof(Complex) +
         plan.stages.capacity() * sizeof(FftStage);
}

std::uint64_t plan_bytes(const BluesteinPlan& plan) {
  return plan.chirp.capacity() * sizeof(Complex) +
         plan.kernel.capacity() * sizeof(Complex);
}

// Bounded thread-safe LRU, the same shape as imaging's KernelTableCache:
// lookups under a mutex, plan construction outside it (two threads racing on
// one key build identical plans; the second insert just reuses the first),
// shared_ptr handout so eviction never invalidates a plan in flight.
template <typename Plan>
class PlanLruCache {
 public:
  static constexpr std::size_t kCapacity = 64;

  template <typename Build>
  std::shared_ptr<const Plan> get(std::size_t n, bool inverse,
                                  const Build& build,
                                  obs::Counter& hit_counter,
                                  obs::Counter& miss_counter,
                                  obs::Counter& eviction_counter) {
    const std::uint64_t key = (static_cast<std::uint64_t>(n) << 1) |
                              static_cast<std::uint64_t>(inverse);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      const auto it = map_.find(key);
      if (it != map_.end()) {
        lru_.splice(lru_.begin(), lru_, it->second.lru_it);
        ++hits_;
        hit_counter.add();
        return it->second.plan;
      }
      ++misses_;
      miss_counter.add();
    }
    auto plan = std::make_shared<const Plan>(build(n, inverse));
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = map_.find(key);
    if (it != map_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      return it->second.plan;
    }
    lru_.push_front(key);
    map_.emplace(key, Entry{plan, lru_.begin()});
    resident_bytes_ += plan_bytes(*plan);
    if (map_.size() > kCapacity) {
      // Least-recently-used only — never the hot row/column plans a 2-D
      // transform is holding (and shared_ptr keeps even an evicted plan
      // alive until its last user finishes).
      const auto victim = map_.find(lru_.back());
      resident_bytes_ -= plan_bytes(*victim->second.plan);
      map_.erase(victim);
      lru_.pop_back();
      ++evictions_;
      eviction_counter.add();
    }
    return plan;
  }

  FftPlanCacheStats stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return {hits_, misses_, evictions_, map_.size(), kCapacity,
            resident_bytes_};
  }

  void clear() {
    std::lock_guard<std::mutex> lock(mutex_);
    map_.clear();
    lru_.clear();
    hits_ = misses_ = evictions_ = 0;
    resident_bytes_ = 0;
  }

 private:
  struct Entry {
    std::shared_ptr<const Plan> plan;
    std::list<std::uint64_t>::iterator lru_it;
  };

  mutable std::mutex mutex_;
  std::map<std::uint64_t, Entry> map_;
  std::list<std::uint64_t> lru_;  // front = most recently used
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t resident_bytes_ = 0;
};

PlanLruCache<FftPlan>& fft_plan_cache() {
  static PlanLruCache<FftPlan> cache;
  static const bool source_registered = [] {
    obs::register_memory_source(
        "fft_plan_cache", [] { return cache.stats().resident_bytes; });
    return true;
  }();
  (void)source_registered;
  return cache;
}

PlanLruCache<BluesteinPlan>& bluestein_cache() {
  static PlanLruCache<BluesteinPlan> cache;
  static const bool source_registered = [] {
    obs::register_memory_source(
        "bluestein_plan_cache",
        [] { return cache.stats().resident_bytes; });
    return true;
  }();
  (void)source_registered;
  return cache;
}

BluesteinPlan make_bluestein_plan(std::size_t n, bool inverse) {
  DECAM_REQUIRE(n >= 2, "bluestein plan needs n >= 2");
  BluesteinPlan plan;
  plan.n = n;
  plan.inverse = inverse;
  const double sign = inverse ? 1.0 : -1.0;
  plan.chirp.resize(n);
  for (std::size_t k = 0; k < n; ++k) {
    // k^2 mod 2n avoids catastrophic precision loss for large k.
    const std::size_t k2 = (k * k) % (2 * n);
    const double angle = sign * std::numbers::pi * static_cast<double>(k2) /
                         static_cast<double>(n);
    plan.chirp[k] = Complex(std::cos(angle), std::sin(angle));
  }
  plan.m = std::bit_ceil(2 * n - 1);
  plan.conv_forward = get_fft_plan(plan.m, false);
  plan.conv_inverse = get_fft_plan(plan.m, true);
  plan.kernel.assign(plan.m, Complex(0, 0));
  plan.kernel[0] = std::conj(plan.chirp[0]);
  for (std::size_t k = 1; k < n; ++k) {
    plan.kernel[k] = plan.kernel[plan.m - k] = std::conj(plan.chirp[k]);
  }
  // Stored DIF-transformed (bit-reversed order) with the convolution's 1/m
  // folded in: per call, both inner transforms skip permutation and no
  // normalisation pass is needed.
  fft_exec_dif_noperm(*plan.conv_forward, plan.kernel.data());
  const double inv_m = 1.0 / static_cast<double>(plan.m);
  for (Complex& v : plan.kernel) v *= inv_m;
  return plan;
}

}  // namespace

std::shared_ptr<const FftPlan> get_fft_plan(std::size_t n, bool inverse) {
  static auto& registry = obs::MetricsRegistry::instance();
  static auto& hits = registry.counter("fft_plan_cache/hits");
  static auto& misses = registry.counter("fft_plan_cache/misses");
  static auto& evictions = registry.counter("fft_plan_cache/evictions");
  return fft_plan_cache().get(n, inverse, make_fft_plan, hits, misses,
                              evictions);
}

std::shared_ptr<const BluesteinPlan> get_bluestein_plan(std::size_t n,
                                                        bool inverse) {
  static auto& registry = obs::MetricsRegistry::instance();
  static auto& hits = registry.counter("bluestein_plan_cache/hits");
  static auto& misses = registry.counter("bluestein_plan_cache/misses");
  static auto& evictions = registry.counter("bluestein_plan_cache/evictions");
  return bluestein_cache().get(n, inverse, make_bluestein_plan, hits, misses,
                               evictions);
}

FftPlanCacheStats fft_plan_cache_stats() { return fft_plan_cache().stats(); }

FftPlanCacheStats bluestein_plan_cache_stats() {
  return bluestein_cache().stats();
}

void clear_fft_plan_caches() {
  fft_plan_cache().clear();
  bluestein_cache().clear();
}

void fft_exec(const FftPlan& plan, Complex* data) {
  const std::size_t n = plan.n;
  if (n <= 1) return;
  if (plan.bitrev.empty()) {
    stockham_exec(plan, data);
    return;
  }
  for (std::size_t i = 1; i < n; ++i) {
    const std::uint32_t j = plan.bitrev[i];
    if (i < j) std::swap(data[i], data[j]);
  }
  dit_stages(plan, data);
  if (plan.inverse) {
    const double inv_n = 1.0 / static_cast<double>(n);
    for (std::size_t i = 0; i < n; ++i) data[i] *= inv_n;
  }
}

void fft_exec_dif_noperm(const FftPlan& plan, Complex* data) {
  DECAM_REQUIRE(is_pow2(plan.n), "permutation-free FFT of a non-power-of-two");
  if (plan.n <= 1) return;
  dif_stages(plan, data);
}

void fft_exec_dit_noperm(const FftPlan& plan, Complex* data) {
  DECAM_REQUIRE(is_pow2(plan.n), "permutation-free FFT of a non-power-of-two");
  if (plan.n <= 1) return;
  dit_stages(plan, data);
}

void bluestein_exec(const BluesteinPlan& plan, Complex* data) {
  const std::size_t n = plan.n;
  const std::size_t m = plan.m;
  // Grow-only per-thread scratch: one live convolution per thread, reused
  // across every call (the old implementation allocated m complexes per
  // transform — per image row/column).
  thread_local std::vector<Complex> scratch;
  if (scratch.size() < m) scratch.resize(m);
  Complex* x = scratch.data();
  const Complex* chirp = plan.chirp.data();
  // Explicit real/imag products for the same __muldc3 reason as the
  // butterfly kernels above.
  for (std::size_t k = 0; k < n; ++k) {
    const double ar = data[k].real(), ai = data[k].imag();
    const double cr = chirp[k].real(), ci = chirp[k].imag();
    x[k] = Complex(ar * cr - ai * ci, ar * ci + ai * cr);
  }
  std::fill(x + n, x + m, Complex(0, 0));
  fft_exec_dif_noperm(*plan.conv_forward, x);
  const Complex* kernel = plan.kernel.data();
  for (std::size_t k = 0; k < m; ++k) {
    const double ar = x[k].real(), ai = x[k].imag();
    const double kr = kernel[k].real(), ki = kernel[k].imag();
    x[k] = Complex(ar * kr - ai * ki, ar * ki + ai * kr);
  }
  fft_exec_dit_noperm(*plan.conv_inverse, x);
  const double scale =
      plan.inverse ? 1.0 / static_cast<double>(n) : 1.0;
  for (std::size_t k = 0; k < n; ++k) {
    const double ar = x[k].real(), ai = x[k].imag();
    const double cr = chirp[k].real(), ci = chirp[k].imag();
    data[k] = Complex(scale * (ar * cr - ai * ci),
                      scale * (ar * ci + ai * cr));
  }
}

PlannedFft::PlannedFft(std::size_t n, bool inverse) : n_(n) {
  DECAM_REQUIRE(n >= 1, "fft of empty signal");
  if (n == 1) return;
  if (is_fft_plan_length(n)) {
    plan_ = get_fft_plan(n, inverse);
  } else {
    bluestein_ = get_bluestein_plan(n, inverse);
  }
}

void PlannedFft::operator()(Complex* data) const {
  if (plan_) {
    fft_exec(*plan_, data);
  } else if (bluestein_) {
    bluestein_exec(*bluestein_, data);
  }
}

}  // namespace decam
