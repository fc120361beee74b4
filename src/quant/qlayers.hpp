// Quantized inference layers — the int8 edge execution path.
//
// qconv2d and qlinear are deployment-time REPLACEMENTS for prepared
// (batchnorm-folded, activation-fused) nn::conv2d / nn::linear layers:
// weights are frozen to symmetric per-output-channel s8 grids at
// construction and packed once into the GEMM's panel layout, activations
// quantize per-tensor to an asymmetric u8 grid calibrated from sample
// data, and the matrix product runs on the tensor/gemm_s8 kernel with the
// requantize + bias + clamp epilogue fused into the store pass. Outputs
// stay float, so quantized and float layers mix freely inside one network.
//
// qconv2d quantizes its input tensor once and lowers the u8 codes, with
// the code of 0.0 (the activation zero point) as the padding value — the
// same codes a float lowering followed by quantization would produce,
// since quantization is elementwise. A 1x1, stride-1, unpadded conv
// skips the lowering: it quantizes each sample straight into its column
// range of the GEMM panel.
//
// Both layers are inference-only (backward throws), allocation-free on
// the warm path (u8 staging, im2col panels, and outputs come from the
// thread's nn::inference_workspace), and carry enough metadata
// (bit-width, quantization RMSE) for the bit-width autotuner to rank
// layer sensitivity.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/conv2d.hpp"
#include "nn/layer.hpp"
#include "nn/linear.hpp"
#include "nn/quantization.hpp"
#include "tensor/gemm_s8.hpp"
#include "tensor/im2col.hpp"

namespace appeal::quant {

/// Per-layer quantization recipe shared by qconv2d/qlinear.
struct qlayer_params {
  int weight_bits = 8;          // symmetric s8 grid, +-(2^(b-1)-1)
  nn::quant_params act;         // asymmetric u8 grid for the input
};

/// Dense (groups == 1) convolution on the s8 GEMM. Geometry, bias, and the
/// fused activation clamp are taken from the float conv it replaces.
class qconv2d : public nn::layer {
 public:
  /// Quantizes `source`'s weights at `params.weight_bits` per output
  /// channel. `source` must be a prepared dense conv (groups == 1).
  qconv2d(nn::conv2d& source, const qlayer_params& params);

  const char* kind() const override { return "qconv2d"; }
  tensor forward(const tensor& input, bool training) override;
  tensor backward(const tensor& grad_output) override;
  shape output_shape(const shape& input) const override;
  std::uint64_t flops(const shape& input) const override;

  int weight_bits() const { return bits_; }
  /// RMS distortion the weight grid introduced — the autotuner's
  /// sensitivity prior.
  double weight_rmse() const { return weight_rmse_; }
  const nn::quant_params& activation_params() const { return act_; }

 private:
  std::size_t in_channels_;
  std::size_t out_channels_;
  std::size_t kernel_;
  std::size_t stride_;
  std::size_t padding_;
  int bits_;
  double weight_rmse_ = 0.0;
  nn::quant_params act_;
  float act_lo_;
  float act_hi_;
  std::uint8_t pad_code_;                // u8 code of 0.0 on the act grid
  ops::packed_s8 weights_;               // s8 codes [oc, patch], packed
  std::vector<float> scale_;             // w_scale[c] * act.scale
  std::vector<std::int32_t> row_offset_; // -act.zero_point * row_sum(codes)
  std::vector<float> bias_;              // empty when the conv had none
};

/// Fully-connected layer on the s8 GEMM: y[N, out] via a transposed
/// epilogue store, no explicit x^T or output transpose.
class qlinear : public nn::layer {
 public:
  qlinear(nn::linear& source, const qlayer_params& params);

  const char* kind() const override { return "qlinear"; }
  tensor forward(const tensor& input, bool training) override;
  tensor backward(const tensor& grad_output) override;
  shape output_shape(const shape& input) const override;
  std::uint64_t flops(const shape& input) const override;

  int weight_bits() const { return bits_; }
  double weight_rmse() const { return weight_rmse_; }
  const nn::quant_params& activation_params() const { return act_; }

 private:
  std::size_t in_features_;
  std::size_t out_features_;
  int bits_;
  double weight_rmse_ = 0.0;
  nn::quant_params act_;
  ops::packed_s8 weights_;               // s8 codes [out, in], packed
  std::vector<float> scale_;
  std::vector<std::int32_t> row_offset_;
  std::vector<float> bias_;
};

}  // namespace appeal::quant
