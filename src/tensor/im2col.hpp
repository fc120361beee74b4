// im2col / col2im — the standard lowering of 2-D convolution to GEMM.
//
// For one image [C, H, W] and a KxK kernel with stride/padding, im2col
// produces a matrix [C*K*K, out_h*out_w] whose columns are the unrolled
// receptive fields; convolution is then weights[OC, C*K*K] * that matrix.
// col2im is the exact adjoint, used by the convolution backward pass.
#pragma once

#include <cstddef>

namespace appeal::ops {

/// Geometry of a conv lowering. Square kernels/strides/padding only — the
/// model zoo in this repo uses none of the rectangular variants.
struct conv_geometry {
  std::size_t channels = 0;
  std::size_t height = 0;
  std::size_t width = 0;
  std::size_t kernel = 1;
  std::size_t stride = 1;
  std::size_t padding = 0;

  std::size_t out_height() const {
    return (height + 2 * padding - kernel) / stride + 1;
  }
  std::size_t out_width() const {
    return (width + 2 * padding - kernel) / stride + 1;
  }
  std::size_t patch_size() const { return channels * kernel * kernel; }
  std::size_t column_count() const { return out_height() * out_width(); }

  /// True when the kernel (with padding) fits inside the image.
  bool valid() const {
    return channels > 0 && kernel > 0 && stride > 0 &&
           height + 2 * padding >= kernel && width + 2 * padding >= kernel;
  }
};

/// Unrolls `image` ([C, H, W] contiguous) into `columns`
/// ([patch_size, column_count] contiguous). Padding reads as zero.
void im2col(const conv_geometry& g, const float* image, float* columns);

/// Strided variant: writes patch row r at columns + r * row_stride
/// (row_stride >= column_count). This lets a batch of N images unroll
/// side by side into one [patch_size, N * column_count] matrix — sample s
/// passes `columns + s * column_count` with row_stride = N * column_count
/// — so a convolution over the whole batch lowers to a single GEMM.
/// Padding reads as `pad`. Instantiated for float (pad 0) and for the u8
/// codes of a quantized image, whose padding is the code of 0.0 — the
/// activation zero point.
template <typename T>
void im2col_strided(const conv_geometry& g, const T* image, T* columns,
                    std::size_t row_stride, T pad = T{});

/// Adjoint of im2col: accumulates `columns` back into `image_grad`
/// ([C, H, W]); the caller must zero `image_grad` first if it wants a pure
/// scatter rather than an accumulation.
void col2im(const conv_geometry& g, const float* columns, float* image_grad);

}  // namespace appeal::ops
