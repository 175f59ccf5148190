#include "imaging/jpeg_sim.h"

#include <algorithm>

#include "common/simd.h"

namespace decam {
namespace {

// ITU-T T.81 Annex K.1 luminance quantisation table.
constexpr int kBaseTable[64] = {
    16, 11, 10, 16, 24,  40,  51,  61,   //
    12, 12, 14, 19, 26,  58,  60,  55,   //
    14, 13, 16, 24, 40,  57,  69,  56,   //
    14, 17, 22, 29, 51,  87,  80,  62,   //
    18, 22, 37, 56, 68,  109, 103, 77,   //
    24, 35, 55, 64, 81,  104, 113, 92,   //
    49, 64, 78, 87, 103, 121, 120, 101,  //
    72, 92, 95, 98, 112, 100, 103, 99};

}  // namespace

std::array<int, 64> jpeg_quant_table(int quality) {
  DECAM_REQUIRE(quality >= 1 && quality <= 100, "quality must be in [1,100]");
  // libjpeg's quality scaling.
  const int scale = quality < 50 ? 5000 / quality : 200 - 2 * quality;
  std::array<int, 64> table;
  for (int i = 0; i < 64; ++i) {
    const int q = (kBaseTable[i] * scale + 50) / 100;
    table[static_cast<std::size_t>(i)] = std::clamp(q, 1, 255);
  }
  return table;
}

Image jpeg_roundtrip(const Image& img, int quality) {
  DECAM_REQUIRE(!img.empty(), "jpeg_roundtrip of empty image");
  const std::array<int, 64> table = jpeg_quant_table(quality);
  double quant[64];
  std::copy(table.begin(), table.end(), quant);
  const auto block_op = simd::ops().jpeg_block;
  const int w = img.width();
  const int h = img.height();
  Image out(w, h, img.channels());
  float in_block[64], out_block[64];
  for (int c = 0; c < img.channels(); ++c) {
    const float* src = img.plane(c).data();
    float* dst = out.plane(c).data();
    for (int by = 0; by < h; by += 8) {
      for (int bx = 0; bx < w; bx += 8) {
        const std::size_t origin = static_cast<std::size_t>(by) * w + bx;
        if (bx + 8 <= w && by + 8 <= h) {
          block_op(src + origin, w, dst + origin, w, quant);
          continue;
        }
        // Edge blocks replicate border pixels, like a padded encode.
        for (int y = 0; y < 8; ++y) {
          const int sy = std::min(by + y, h - 1);
          for (int x = 0; x < 8; ++x) {
            in_block[y * 8 + x] =
                src[static_cast<std::size_t>(sy) * w + std::min(bx + x, w - 1)];
          }
        }
        block_op(in_block, 8, out_block, 8, quant);
        for (int y = 0; y < 8 && by + y < h; ++y) {
          for (int x = 0; x < 8 && bx + x < w; ++x) {
            dst[origin + static_cast<std::size_t>(y) * w + x] =
                out_block[y * 8 + x];
          }
        }
      }
    }
  }
  return out;
}

}  // namespace decam
