// Retained reference implementations of the imaging kernels, kept verbatim
// in spirit from the pre-optimization library (naive per-pixel window
// rebuilds, at_clamped addressing, column-strided vertical resize). The
// production code in src/imaging/ replaced these with O(1)-per-pixel
// algorithms; kernel_parity_test.cpp holds the fast paths to these
// definitions — exact for rank filters, within a documented last-ulp
// tolerance for the blurs and resize.
//
// The JPEG simulator and the bit-depth squeeze are kept the same way: the
// per-block dct2d / quantise / idct2d loops behind at_clamped loads, and the
// copy -> clamp() -> two-round squeeze, exactly as the library first shipped
// them. kernel_parity_test.cpp holds the SimdOps block transform and the
// table-driven squeeze to these byte for byte.
//
// These are deliberately slow and obvious. Do not "optimize" them: their
// only job is to be trivially auditable.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <numbers>
#include <stdexcept>
#include <vector>

#include "imaging/filter.h"
#include "imaging/jpeg_sim.h"
#include "imaging/kernels.h"
#include "imaging/scale.h"

namespace decam::testref {

// k x k rank filter, window anchored top-left covering
// {x..x+k-1} x {y..y+k-1}, clamped-border reads, per-pixel window rebuild.
// Matches the original rank_filter including the Median convention
// (nth_element at window.size() / 2, i.e. the upper median for even k*k).
inline Image rank_filter(const Image& img, int k, RankOp op) {
  Image out(img.width(), img.height(), img.channels());
  std::vector<float> window;
  window.reserve(static_cast<std::size_t>(k) * k);
  for (int c = 0; c < img.channels(); ++c) {
    for (int y = 0; y < img.height(); ++y) {
      for (int x = 0; x < img.width(); ++x) {
        window.clear();
        for (int dy = 0; dy < k; ++dy) {
          for (int dx = 0; dx < k; ++dx) {
            window.push_back(img.at_clamped(x + dx, y + dy, c));
          }
        }
        float value = 0.0f;
        switch (op) {
          case RankOp::Min:
            value = *std::min_element(window.begin(), window.end());
            break;
          case RankOp::Max:
            value = *std::max_element(window.begin(), window.end());
            break;
          case RankOp::Median: {
            auto mid = window.begin() + window.size() / 2;
            std::nth_element(window.begin(), mid, window.end());
            value = *mid;
            break;
          }
        }
        out.at(x, y, c) = value;
      }
    }
  }
  return out;
}

// Horizontal then vertical pass with a normalised odd-length 1-D kernel,
// per-pixel at_clamped reads, double accumulation in ascending tap order,
// one final cast — the accumulator contract documented in imaging/filter.h.
inline Image separable_convolve(const Image& img,
                                const std::vector<float>& kernel) {
  const int radius = static_cast<int>(kernel.size() / 2);
  Image mid(img.width(), img.height(), img.channels());
  for (int c = 0; c < img.channels(); ++c) {
    for (int y = 0; y < img.height(); ++y) {
      for (int x = 0; x < img.width(); ++x) {
        double acc = 0.0;
        for (int i = -radius; i <= radius; ++i) {
          acc += kernel[static_cast<std::size_t>(i + radius)] *
                 img.at_clamped(x + i, y, c);
        }
        mid.at(x, y, c) = static_cast<float>(acc);
      }
    }
  }
  Image out(img.width(), img.height(), img.channels());
  for (int c = 0; c < img.channels(); ++c) {
    for (int y = 0; y < img.height(); ++y) {
      for (int x = 0; x < img.width(); ++x) {
        double acc = 0.0;
        for (int i = -radius; i <= radius; ++i) {
          acc += kernel[static_cast<std::size_t>(i + radius)] *
                 mid.at_clamped(x, y + i, c);
        }
        out.at(x, y, c) = static_cast<float>(acc);
      }
    }
  }
  return out;
}

inline Image box_blur(const Image& img, int k) {
  std::vector<float> kernel(static_cast<std::size_t>(k), 1.0f / k);
  return separable_convolve(img, kernel);
}

inline Image gaussian_blur(const Image& img, double sigma) {
  const int radius = static_cast<int>(std::ceil(3.0 * sigma));
  std::vector<float> kernel(static_cast<std::size_t>(2 * radius + 1));
  double sum = 0.0;
  for (int i = -radius; i <= radius; ++i) {
    const double w = std::exp(-(i * i) / (2.0 * sigma * sigma));
    kernel[static_cast<std::size_t>(i + radius)] = static_cast<float>(w);
    sum += w;
  }
  for (float& w : kernel) w = static_cast<float>(w / sum);
  return separable_convolve(img, kernel);
}

// Separable resize in the original formulation: horizontal pass per row,
// then a column-strided vertical pass applying the same tap tables the
// production resize uses. Per output sample: double accumulation over taps
// in ascending source order, one final cast.
inline Image resize(const Image& src, int out_width, int out_height,
                    ScaleAlgo algo) {
  const KernelTable horiz = make_kernel_table(src.width(), out_width, algo);
  const KernelTable vert = make_kernel_table(src.height(), out_height, algo);
  Image mid(out_width, src.height(), src.channels());
  for (int c = 0; c < src.channels(); ++c) {
    for (int y = 0; y < src.height(); ++y) {
      for (int x = 0; x < out_width; ++x) {
        double acc = 0.0;
        for (const Tap& tap : horiz.row(x)) {
          acc += static_cast<double>(tap.weight) * src.at(tap.index, y, c);
        }
        mid.at(x, y, c) = static_cast<float>(acc);
      }
    }
  }
  Image out(out_width, out_height, src.channels());
  for (int c = 0; c < src.channels(); ++c) {
    for (int y = 0; y < out_height; ++y) {
      for (int x = 0; x < out_width; ++x) {
        double acc = 0.0;
        for (const Tap& tap : vert.row(y)) {
          acc += static_cast<double>(tap.weight) * mid.at(x, tap.index, c);
        }
        out.at(x, y, c) = static_cast<float>(acc);
      }
    }
  }
  return out;
}

namespace jpeg_detail {

// Separable 8-point DCT-II basis, precomputed once.
struct DctBasis {
  double cosines[8][8];  // cosines[k][n] = c(k) * cos((2n+1)k pi / 16)
  DctBasis() {
    for (int k = 0; k < 8; ++k) {
      const double scale = k == 0 ? std::sqrt(1.0 / 8.0) : std::sqrt(2.0 / 8.0);
      for (int n = 0; n < 8; ++n) {
        cosines[k][n] = scale * std::cos((2.0 * n + 1.0) * k *
                                         std::numbers::pi / 16.0);
      }
    }
  }
};

inline const DctBasis& basis() {
  static const DctBasis instance;
  return instance;
}

// block is 8x8 row-major; forward DCT in place via temp.
inline void dct2d(double block[64]) {
  const DctBasis& b = basis();
  double temp[64];
  for (int y = 0; y < 8; ++y) {          // rows
    for (int k = 0; k < 8; ++k) {
      double acc = 0.0;
      for (int n = 0; n < 8; ++n) acc += block[y * 8 + n] * b.cosines[k][n];
      temp[y * 8 + k] = acc;
    }
  }
  for (int x = 0; x < 8; ++x) {          // columns
    for (int k = 0; k < 8; ++k) {
      double acc = 0.0;
      for (int n = 0; n < 8; ++n) acc += temp[n * 8 + x] * b.cosines[k][n];
      block[k * 8 + x] = acc;
    }
  }
}

inline void idct2d(double block[64]) {
  const DctBasis& b = basis();
  double temp[64];
  for (int x = 0; x < 8; ++x) {          // columns
    for (int n = 0; n < 8; ++n) {
      double acc = 0.0;
      for (int k = 0; k < 8; ++k) acc += block[k * 8 + x] * b.cosines[k][n];
      temp[n * 8 + x] = acc;
    }
  }
  for (int y = 0; y < 8; ++y) {          // rows
    for (int n = 0; n < 8; ++n) {
      double acc = 0.0;
      for (int k = 0; k < 8; ++k) acc += temp[y * 8 + k] * b.cosines[k][n];
      block[y * 8 + n] = acc;
    }
  }
}

}  // namespace jpeg_detail

inline Image jpeg_roundtrip(const Image& img, int quality) {
  const std::array<int, 64> quant = jpeg_quant_table(quality);
  Image out(img.width(), img.height(), img.channels());
  double block[64];
  for (int c = 0; c < img.channels(); ++c) {
    for (int by = 0; by < img.height(); by += 8) {
      for (int bx = 0; bx < img.width(); bx += 8) {
        // Load (edge blocks replicate border pixels, like a padded encode).
        for (int y = 0; y < 8; ++y) {
          for (int x = 0; x < 8; ++x) {
            block[y * 8 + x] =
                static_cast<double>(img.at_clamped(bx + x, by + y, c)) - 128.0;
          }
        }
        jpeg_detail::dct2d(block);
        for (int i = 0; i < 64; ++i) {
          const double q = quant[static_cast<std::size_t>(i)];
          block[i] = std::round(block[i] / q) * q;
        }
        jpeg_detail::idct2d(block);
        for (int y = 0; y < 8 && by + y < img.height(); ++y) {
          for (int x = 0; x < 8 && bx + x < img.width(); ++x) {
            out.at(bx + x, by + y, c) = static_cast<float>(
                std::clamp(block[y * 8 + x] + 128.0, 0.0, 255.0));
          }
        }
      }
    }
  }
  return out;
}

inline Image bit_depth_squeeze(const Image& input, int bits) {
  if (bits < 1 || bits > 8) {
    throw std::invalid_argument("bit_depth_squeeze: bits must be in [1, 8]");
  }
  const int levels = (1 << bits) - 1;  // highest level index
  const double step = 255.0 / levels;
  Image out = input;
  out.clamp();
  for (int c = 0; c < out.channels(); ++c) {
    for (float& v : out.plane(c)) {
      const double level = std::round(static_cast<double>(v) / step);
      v = static_cast<float>(std::round(level * step));
    }
  }
  return out;
}

}  // namespace decam::testref
