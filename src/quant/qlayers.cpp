#include "quant/qlayers.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "nn/inference_workspace.hpp"
#include "tensor/gemm_s8.hpp"
#include "util/error.hpp"

namespace appeal::quant {

namespace {

/// Quantizes a row-major [rows x cols] weight matrix to per-row symmetric
/// s8 grids and packs the codes for the GEMM. Fills the combined epilogue
/// vectors; returns the whole-tensor RMS distortion (the autotuner's
/// sensitivity signal).
double quantize_weight_rows(const float* w, std::size_t rows,
                            std::size_t cols, int bits,
                            const nn::quant_params& act,
                            ops::packed_s8& packed,
                            std::vector<float>& scale,
                            std::vector<std::int32_t>& row_offset) {
  std::vector<std::int8_t> codes(rows * cols);
  scale.resize(rows);
  row_offset.resize(rows);
  double total_sq = 0.0;
  for (std::size_t r = 0; r < rows; ++r) {
    const float* wrow = w + r * cols;
    const nn::quant_params p = nn::choose_quant_params(
        std::span<const float>(wrow, cols), bits, /*symmetric=*/true);
    const float inv = 1.0F / p.scale;
    std::int32_t row_sum = 0;
    for (std::size_t i = 0; i < cols; ++i) {
      const auto q = static_cast<std::int32_t>(std::lround(wrow[i] * inv));
      const std::int32_t clamped = std::clamp(q, p.q_min(), p.q_max());
      codes[r * cols + i] = static_cast<std::int8_t>(clamped);
      row_sum += clamped;
      const double err = static_cast<double>(wrow[i]) -
                         static_cast<double>(p.scale) * clamped;
      total_sq += err * err;
    }
    scale[r] = p.scale * act.scale;
    row_offset[r] = -act.zero_point * row_sum;
  }
  packed = ops::packed_s8(codes.data(), rows, cols);
  return std::sqrt(total_sq / static_cast<double>(rows * cols));
}

/// u8 scratch carved out of the float workspace: the arena only pools
/// float storage, so byte buffers borrow ceil(n/4) floats and reinterpret.
std::uint8_t* as_bytes(nn::inference_workspace::buffer& buf) {
  return reinterpret_cast<std::uint8_t*>(buf.data());
}

constexpr std::size_t bytes_as_floats(std::size_t n) { return (n + 3) / 4; }

}  // namespace

qconv2d::qconv2d(nn::conv2d& source, const qlayer_params& params)
    : in_channels_(source.in_channels()),
      out_channels_(source.out_channels()),
      kernel_(source.kernel()),
      stride_(source.stride()),
      padding_(source.padding()),
      bits_(params.weight_bits),
      act_(params.act),
      act_lo_(source.fused_act_lo()),
      act_hi_(source.fused_act_hi()) {
  APPEAL_CHECK(source.groups() == 1,
               "qconv2d: only dense (groups == 1) convolutions quantize; "
               "depthwise/grouped layers stay float");
  const float zero = 0.0F;
  ops::quantize_u8(&zero, 1, act_.scale, act_.zero_point, &pad_code_);
  const std::size_t patch = in_channels_ * kernel_ * kernel_;
  weight_rmse_ =
      quantize_weight_rows(source.weight().value.data(), out_channels_, patch,
                           bits_, act_, weights_, scale_, row_offset_);
  if (source.has_bias()) {
    const float* b = source.bias().value.data();
    bias_.assign(b, b + out_channels_);
  }
}

tensor qconv2d::forward(const tensor& input, bool training) {
  APPEAL_CHECK(!training, "qconv2d is inference-only");
  APPEAL_CHECK(input.dims().rank() == 4 && input.channels() == in_channels_,
               "qconv2d forward: expected NCHW with " +
                   std::to_string(in_channels_) + " channels, got " +
                   input.dims().to_string());
  ops::conv_geometry g;
  g.channels = in_channels_;
  g.height = input.height();
  g.width = input.width();
  g.kernel = kernel_;
  g.stride = stride_;
  g.padding = padding_;
  APPEAL_CHECK(g.valid(), "qconv2d forward: kernel larger than padded input");

  const std::size_t n = input.batch();
  const std::size_t cols = g.column_count();
  const std::size_t patch = g.patch_size();
  const std::size_t batch_cols = n * cols;
  const std::size_t in_plane = input.height() * input.width();

  nn::inference_workspace& ws = nn::inference_workspace::local();
  tensor out = ws.acquire(shape{n, out_channels_, g.out_height(),
                                g.out_width()});

  ops::qgemm_epilogue epi;
  epi.scale = scale_.data();
  epi.bias = bias_.empty() ? nullptr : bias_.data();
  epi.row_offset = row_offset_.data();
  epi.act_lo = act_lo_;
  epi.act_hi = act_hi_;

  // The u8 codes of the whole batch, lowered side by side into one
  // [patch x batch_cols] panel.
  nn::inference_workspace::buffer qbuf =
      ws.borrow(bytes_as_floats(patch * batch_cols));
  std::uint8_t* panel = as_bytes(qbuf);
  if (kernel_ == 1 && stride_ == 1 && padding_ == 0) {
    // A 1x1, stride-1, unpadded conv lowers each sample to itself: its
    // [c x hw] planes are its column range of the panel, and at batch 1
    // the whole panel. Quantize straight into place; quantization is
    // elementwise, so these are the codes quantize-then-lower writes.
    if (n == 1) {
      ops::quantize_u8(input.data(), in_channels_ * in_plane, act_.scale,
                       act_.zero_point, panel);
    } else {
      for (std::size_t s = 0; s < n; ++s) {
        for (std::size_t c = 0; c < in_channels_; ++c) {
          ops::quantize_u8(input.data() + (s * in_channels_ + c) * in_plane,
                           in_plane, act_.scale, act_.zero_point,
                           panel + c * batch_cols + s * cols);
        }
      }
    }
  } else {
    // Quantize the input once, then lower the codes, padding with the
    // code of 0.0.
    nn::inference_workspace::buffer qin =
        ws.borrow(bytes_as_floats(n * in_channels_ * in_plane));
    ops::quantize_u8(input.data(), n * in_channels_ * in_plane, act_.scale,
                     act_.zero_point, as_bytes(qin));
    for (std::size_t s = 0; s < n; ++s) {
      ops::im2col_strided(g, as_bytes(qin) + s * in_channels_ * in_plane,
                          panel + s * cols, batch_cols, pad_code_);
    }
  }
  const ops::u8_view b{panel, batch_cols, 1};

  if (n == 1) {
    // Single sample: the [oc, cols] product IS the NCHW layout.
    ops::qgemm_s8u8(weights_, cols, b, epi, out.data(), cols, 1);
    return out;
  }
  nn::inference_workspace::buffer staged =
      ws.borrow(out_channels_ * batch_cols);
  ops::qgemm_s8u8(weights_, batch_cols, b, epi, staged.data(), batch_cols,
                  1);
  for (std::size_t c = 0; c < out_channels_; ++c) {
    const float* src = staged.data() + c * batch_cols;
    for (std::size_t s = 0; s < n; ++s) {
      float* dst = out.data() + (s * out_channels_ + c) * cols;
      std::copy(src + s * cols, src + (s + 1) * cols, dst);
    }
  }
  return out;
}

tensor qconv2d::backward(const tensor&) {
  APPEAL_CHECK(false, "qconv2d has no backward (inference-only layer)");
  return tensor();
}

shape qconv2d::output_shape(const shape& input) const {
  APPEAL_CHECK(input.rank() == 4 && input.channels() == in_channels_,
               "qconv2d output_shape: bad input " + input.to_string());
  ops::conv_geometry g;
  g.channels = in_channels_;
  g.height = input.height();
  g.width = input.width();
  g.kernel = kernel_;
  g.stride = stride_;
  g.padding = padding_;
  return shape{input.batch(), out_channels_, g.out_height(), g.out_width()};
}

std::uint64_t qconv2d::flops(const shape& input) const {
  ops::conv_geometry g;
  g.channels = in_channels_;
  g.height = input.height();
  g.width = input.width();
  g.kernel = kernel_;
  g.stride = stride_;
  g.padding = padding_;
  std::uint64_t macs =
      input.batch() * out_channels_ * g.column_count() * g.patch_size();
  if (!bias_.empty()) macs += input.batch() * out_channels_ * g.column_count();
  return 2 * macs;
}

qlinear::qlinear(nn::linear& source, const qlayer_params& params)
    : in_features_(source.in_features()),
      out_features_(source.out_features()),
      bits_(params.weight_bits),
      act_(params.act) {
  weight_rmse_ =
      quantize_weight_rows(source.weight().value.data(), out_features_,
                           in_features_, bits_, act_, weights_, scale_,
                           row_offset_);
  if (source.has_bias()) {
    const float* b = source.bias().value.data();
    bias_.assign(b, b + out_features_);
  }
}

tensor qlinear::forward(const tensor& input, bool training) {
  APPEAL_CHECK(!training, "qlinear is inference-only");
  APPEAL_CHECK(input.dims().rank() == 2 &&
                   input.dims().dim(1) == in_features_,
               "qlinear forward: expected [N, " +
                   std::to_string(in_features_) + "], got " +
                   input.dims().to_string());
  const std::size_t n = input.dims().dim(0);

  nn::inference_workspace& ws = nn::inference_workspace::local();
  tensor out = ws.acquire(shape{n, out_features_});
  nn::inference_workspace::buffer qbuf =
      ws.borrow(bytes_as_floats(n * in_features_));
  ops::quantize_u8(input.data(), n * in_features_, act_.scale,
                   act_.zero_point, as_bytes(qbuf));

  ops::qgemm_epilogue epi;
  epi.scale = scale_.data();
  epi.bias = bias_.empty() ? nullptr : bias_.data();
  epi.row_offset = row_offset_.data();

  // C[out, N] = W[out, in] x^T — B is the transposed view of the quantized
  // row-major x, and the strided store writes y[N, out] directly.
  const ops::u8_view b{as_bytes(qbuf), 1, in_features_};
  ops::qgemm_s8u8(weights_, n, b, epi, out.data(), 1, out_features_);
  return out;
}

tensor qlinear::backward(const tensor&) {
  APPEAL_CHECK(false, "qlinear has no backward (inference-only layer)");
  return tensor();
}

shape qlinear::output_shape(const shape& input) const {
  APPEAL_CHECK(input.rank() == 2 && input.dim(1) == in_features_,
               "qlinear output_shape: bad input " + input.to_string());
  return shape{input.dim(0), out_features_};
}

std::uint64_t qlinear::flops(const shape& input) const {
  std::uint64_t macs = input.dim(0) * out_features_ * in_features_;
  if (!bias_.empty()) macs += input.dim(0) * out_features_;
  return 2 * macs;
}

}  // namespace appeal::quant
