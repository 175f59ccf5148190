// Structural Similarity Index (Wang, Bovik, Sheikh, Simoncelli 2004) —
// the paper's second similarity score (Eq. 6): the standard mean-SSIM map,
// local statistics under an 11x11 Gaussian window (sigma 1.5) averaged over
// the image. This is what scikit-image / MATLAB compute and what the
// paper's thresholds (e.g. 0.61) refer to.
//
// Color images are scored per channel and averaged, matching the common
// multichannel=True convention.
#pragma once

#include "imaging/image.h"

namespace decam {

/// Mean local SSIM in [-1, 1]; 1 iff the images are identical.
double ssim(const Image& a, const Image& b);

}  // namespace decam
