#include "tensor/im2col.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "util/error.hpp"

namespace appeal::ops {

void im2col(const conv_geometry& g, const float* image, float* columns) {
  im2col_strided(g, image, columns, g.column_count());
}

template <typename T>
void im2col_strided(const conv_geometry& g, const T* image, T* columns,
                    std::size_t row_stride, T pad) {
  APPEAL_CHECK(g.valid(), "invalid conv geometry");
  const std::size_t out_h = g.out_height();
  const std::size_t out_w = g.out_width();
  APPEAL_CHECK(row_stride >= out_h * out_w,
               "im2col_strided: row_stride below column_count");
  const std::size_t s = g.stride;
  const std::size_t p = g.padding;

  // Output index range [lo, hi) whose source index o * s + k - p lies in
  // [0, extent) — the same for every row of a kernel offset k, so the
  // bounds test runs once per range instead of once per pixel.
  const auto in_range = [s, p](std::size_t k, std::size_t extent,
                               std::size_t out) {
    const std::size_t lo = k >= p ? 0 : std::min(out, (p - k + s - 1) / s);
    const std::size_t hi =
        extent + p > k ? std::min(out, (extent + p - k - 1) / s + 1) : 0;
    return std::pair{lo, std::max(lo, hi)};
  };

  std::size_t patch_row = 0;
  for (std::size_t c = 0; c < g.channels; ++c) {
    const T* plane = image + c * g.height * g.width;
    for (std::size_t ky = 0; ky < g.kernel; ++ky) {
      const auto [oy_lo, oy_hi] = in_range(ky, g.height, out_h);
      for (std::size_t kx = 0; kx < g.kernel; ++kx, ++patch_row) {
        const auto [ox_lo, ox_hi] = in_range(kx, g.width, out_w);
        T* out_row = columns + patch_row * row_stride;
        std::fill(out_row, out_row + oy_lo * out_w, pad);
        std::fill(out_row + oy_hi * out_w, out_row + out_h * out_w, pad);
        if (s == 1 && out_w == g.width && oy_hi > oy_lo && ox_hi > ox_lo) {
          // Stride 1, same width: every in-range output sits a constant
          // offset from its source pixel, so one block copy from the first
          // in-range output to the last fills them all. The few outputs in
          // the horizontal padding picked up pixels of the neighbouring
          // row; reset them column by column (a per-row fill would cost a
          // library call per row for one or two elements).
          const std::size_t first = oy_lo * out_w + ox_lo;
          const std::size_t last = (oy_hi - 1) * out_w + ox_hi;
          const T* src =
              plane + (oy_lo + ky - p) * g.width + (ox_lo + kx - p);
          std::copy(src, src + (last - first), out_row + first);
          const auto reset_column = [&](std::size_t ox) {
            for (std::size_t oy = oy_lo; oy < oy_hi; ++oy) {
              out_row[oy * out_w + ox] = pad;
            }
          };
          for (std::size_t ox = 0; ox < ox_lo; ++ox) reset_column(ox);
          for (std::size_t ox = ox_hi; ox < out_w; ++ox) reset_column(ox);
          continue;
        }
        for (std::size_t oy = oy_lo; oy < oy_hi; ++oy) {
          const T* src = plane + (oy * s + ky - p) * g.width;
          T* out = out_row + oy * out_w;
          std::fill(out, out + ox_lo, pad);
          for (std::size_t ox = ox_lo; ox < ox_hi; ++ox) {
            out[ox] = src[ox * s + kx - p];
          }
          std::fill(out + ox_hi, out + out_w, pad);
        }
      }
    }
  }
}

template void im2col_strided<float>(const conv_geometry&, const float*,
                                    float*, std::size_t, float);
template void im2col_strided<std::uint8_t>(const conv_geometry&,
                                           const std::uint8_t*,
                                           std::uint8_t*, std::size_t,
                                           std::uint8_t);

void col2im(const conv_geometry& g, const float* columns, float* image_grad) {
  APPEAL_CHECK(g.valid(), "invalid conv geometry");
  const std::size_t out_h = g.out_height();
  const std::size_t out_w = g.out_width();
  const std::size_t cols = out_h * out_w;

  std::size_t patch_row = 0;
  for (std::size_t c = 0; c < g.channels; ++c) {
    float* plane = image_grad + c * g.height * g.width;
    for (std::size_t ky = 0; ky < g.kernel; ++ky) {
      for (std::size_t kx = 0; kx < g.kernel; ++kx, ++patch_row) {
        const float* in_row = columns + patch_row * cols;
        for (std::size_t oy = 0; oy < out_h; ++oy) {
          const std::ptrdiff_t iy =
              static_cast<std::ptrdiff_t>(oy * g.stride + ky) -
              static_cast<std::ptrdiff_t>(g.padding);
          if (iy < 0 || iy >= static_cast<std::ptrdiff_t>(g.height)) continue;
          float* dst = plane + static_cast<std::size_t>(iy) * g.width;
          const float* in = in_row + oy * out_w;
          for (std::size_t ox = 0; ox < out_w; ++ox) {
            const std::ptrdiff_t ix =
                static_cast<std::ptrdiff_t>(ox * g.stride + kx) -
                static_cast<std::ptrdiff_t>(g.padding);
            if (ix < 0 || ix >= static_cast<std::ptrdiff_t>(g.width)) continue;
            dst[static_cast<std::size_t>(ix)] += in[ox];
          }
        }
      }
    }
  }
}

}  // namespace appeal::ops
