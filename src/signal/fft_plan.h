// FFT execution plans — the precomputed, cacheable half of the spectral
// engine (DESIGN.md §10).
//
// A transform of length n always does the same twiddle arithmetic and the
// same data shuffle; only the samples change. Plans hoist everything
// sample-independent out of the hot loop: the permutation, the per-stage
// twiddle tables, and (for Bluestein lengths) the chirp sequence plus the
// pre-transformed convolution kernel. Lengths dispatch on their prime
// factors:
//
//   * powers of two — in-place bit-reversal + radix-4/radix-2 stages;
//   * other 7-smooth lengths (every prime factor in {2, 3, 5, 7}: 224, 300,
//     448, 480, 640, ...) — a Stockham autosort over radix-7/5/3/4/2
//     stages, ping-ponging with per-thread scratch;
//   * anything with a prime factor above 7 (227, 299 = 13 * 23, ...) —
//     Bluestein's chirp-z convolution over a power-of-two length.
//
// A 2-D transform of an H x W image reuses two plans H + W times, and a
// dataset sweep reuses them thousands of times, so plans live in a bounded
// thread-safe LRU cache (same shape as the resize kernel-table cache in
// imaging/kernels.cpp) and are handed out as shared_ptr — eviction can never
// invalidate a plan mid-transform.
#pragma once

#include <complex>
#include <cstdint>
#include <memory>
#include <vector>

namespace decam {

using Complex = std::complex<double>;

/// One butterfly stage of an FftPlan.
struct FftStage {
  std::uint32_t radix = 0;  // 2, 3, 4, 5 or 7
  /// Power-of-two plans: the quarter length L a radix-4 stage combines into
  /// 4L (unused by the twiddle-free radix-2 stage). Stockham plans: Ns, the
  /// product of the radices of every earlier stage.
  std::uint32_t span = 0;
  std::uint32_t twiddle_offset = 0;  // start of this stage's table
};

/// Plan for one 7-smooth length + direction.
///
/// Power-of-two n: the bit-reversal permutation and an iterative mixed
/// radix-4/radix-2 decomposition (one twiddle-free radix-2 stage first when
/// log2(n) is odd, radix-4 for the rest — ~25% fewer complex multiplies than
/// all-radix-2, and table lookups replace the serial `w *= wlen`
/// recurrence). Each radix-4 stage's table holds triples (W^k, W^2k, W^3k)
/// for k in [0, L), W = exp(sign*2*pi*i/4L).
///
/// Any other 7-smooth n: `bitrev` is empty and the stages are a Stockham
/// autosort (radix 7s, then 5s, 3s, 4s and a last radix 2), natural order
/// in and out. A stage of radix R, whose earlier stages combine Ns =
/// `span` points, reads stride n/R and writes stride Ns; its table holds, for odd R, the R roots
/// exp(sign*2*pi*i*q/R) its butterfly combines with, then — unless Ns is 1
/// (the twiddle-free first stage) — W^(r*k) for k in [0, Ns), r in [1, R),
/// W = exp(sign*2*pi*i/(R*Ns)). Every entry is cos/sin of an exact index.
struct FftPlan {
  std::size_t n = 0;
  bool inverse = false;
  /// Power-of-two plans only: element i swaps with bitrev[i] (applied once,
  /// guarded by i < bitrev[i]).
  std::vector<std::uint32_t> bitrev;
  /// Concatenated per-stage tables (layout per plan kind above).
  std::vector<Complex> twiddles;
  /// Ascending: the in-place DIT kernel and the Stockham pass walk it
  /// forward, the in-place DIF kernel backward.
  std::vector<FftStage> stages;
};

/// Plan for one length with a prime factor above 7 + direction via
/// Bluestein's chirp-z algorithm. The convolution kernel is stored already
/// DIF-transformed — in bit-reversed order, scaled by 1/m — so the per-call
/// convolution is DIF-forward, pointwise multiply, DIT-inverse: both inner
/// transforms skip the permutation entirely.
struct BluesteinPlan {
  std::size_t n = 0;
  bool inverse = false;
  std::size_t m = 0;                 // padded convolution length (power of 2)
  std::vector<Complex> chirp;        // exp(sign*i*pi*k^2/n)
  std::vector<Complex> kernel;       // DIF-FFT of padded conj chirp, / m
  std::shared_ptr<const FftPlan> conv_forward;  // length-m plans, pinned so
  std::shared_ptr<const FftPlan> conv_inverse;  // cache eviction can't bite
};

/// Cached plan lookup (thread-safe; builds on miss outside the lock).
/// get_fft_plan requires every prime factor of n to be 2, 3, 5 or 7.
std::shared_ptr<const FftPlan> get_fft_plan(std::size_t n, bool inverse);
std::shared_ptr<const BluesteinPlan> get_bluestein_plan(std::size_t n,
                                                        bool inverse);

struct FftPlanCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::size_t size = 0;
  std::size_t capacity = 0;
  std::uint64_t resident_bytes = 0;  // heap held by the cached plans; a
                                     // Bluestein plan's convolution sub-plans
                                     // count in the FftPlan cache only
};

/// Separate stats for the two plan kinds (a Bluestein miss also costs one
/// or two power-of-two FftPlan lookups for its convolution plans).
FftPlanCacheStats fft_plan_cache_stats();
FftPlanCacheStats bluestein_plan_cache_stats();
void clear_fft_plan_caches();

/// In-place execution, natural order in and out (+ 1/n normalisation when
/// the plan is inverse): bit-reversal permutation + DIT stages for a power
/// of two, Stockham passes through per-thread scratch otherwise.
void fft_exec(const FftPlan& plan, Complex* data);

/// Permutation-free halves for convolution pipelines over power-of-two
/// plans: DIF takes natural order to bit-reversed, DIT takes bit-reversed
/// back to natural. Neither normalises — fold 1/m into the kernel instead.
void fft_exec_dif_noperm(const FftPlan& plan, Complex* data);
void fft_exec_dit_noperm(const FftPlan& plan, Complex* data);

/// In-place Bluestein execution over `data[0..n)`, using per-thread scratch
/// sized once per m (no per-call allocation after warm-up).
void bluestein_exec(const BluesteinPlan& plan, Complex* data);

/// One planned 1-D transform: resolves the plan (FftPlan for 7-smooth
/// lengths, Bluestein otherwise) once at construction so row/column loops
/// pay the cache lookup once, not per line. Execution is in-place over `n`
/// contiguous elements.
class PlannedFft {
 public:
  PlannedFft(std::size_t n, bool inverse);
  std::size_t size() const { return n_; }
  void operator()(Complex* data) const;

 private:
  std::size_t n_;
  std::shared_ptr<const FftPlan> plan_;
  std::shared_ptr<const BluesteinPlan> bluestein_;
};

}  // namespace decam
