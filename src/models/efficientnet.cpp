// EfficientNet-style backbone: MBConv blocks — 1x1 expansion, depthwise 3x3,
// squeeze-excitation, 1x1 projection — with SiLU activations and residual
// skips on stride-1 shape-preserving blocks.
#include <memory>

#include "models/model_zoo.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/pooling.hpp"
#include "nn/residual.hpp"
#include "nn/squeeze_excite.hpp"
#include "util/error.hpp"

namespace appeal::models {

namespace {

constexpr std::size_t expansion = 4;
constexpr std::size_t se_reduction = 4;

/// Builds the MBConv body (expansion -> depthwise -> SE -> projection).
std::unique_ptr<nn::sequential> make_mbconv_body(std::size_t in_channels,
                                                 std::size_t out_channels,
                                                 std::size_t stride) {
  const std::size_t mid = in_channels * expansion;
  auto body = std::make_unique<nn::sequential>();
  body->emplace<nn::conv2d>(in_channels, mid, 1, 1, 0, 1, false);
  body->emplace<nn::batchnorm2d>(mid);
  body->emplace<nn::silu>();
  body->emplace<nn::conv2d>(mid, mid, 3, stride, 1, mid, false);  // depthwise
  body->emplace<nn::batchnorm2d>(mid);
  body->emplace<nn::silu>();
  body->emplace<nn::squeeze_excite>(mid, se_reduction);
  body->emplace<nn::conv2d>(mid, out_channels, 1, 1, 0, 1, false);
  body->emplace<nn::batchnorm2d>(out_channels);
  return body;
}

/// Appends one MBConv block, residual when the shape is preserved.
void append_mbconv(nn::sequential& net, std::size_t in_channels,
                   std::size_t out_channels, std::size_t stride) {
  auto body = make_mbconv_body(in_channels, out_channels, stride);
  if (stride == 1 && in_channels == out_channels) {
    net.append(std::make_unique<nn::residual>(std::move(body), nullptr,
                                              /*final_relu=*/false));
  } else {
    net.append(std::move(body));
  }
}

}  // namespace

backbone make_efficientnet_backbone(const model_spec& spec) {
  APPEAL_CHECK(spec.image_size >= 8,
               "efficientnet backbone needs image_size >= 8");
  auto net = std::make_unique<nn::sequential>();

  const std::size_t c0 = scaled_channels(12, spec.width);
  const std::size_t c1 = scaled_channels(24, spec.width);
  const std::size_t c2 = scaled_channels(48, spec.width);
  const std::size_t c3 = scaled_channels(96, spec.width);

  // Stem.
  net->emplace<nn::conv2d>(spec.in_channels, c0, 3, 1, 1, 1, false);
  net->emplace<nn::batchnorm2d>(c0);
  net->emplace<nn::silu>();

  // MBConv stages.
  append_mbconv(*net, c0, c1, 2);
  for (std::size_t d = 1; d < spec.depth; ++d) {
    append_mbconv(*net, c1, c1, 1);
  }
  append_mbconv(*net, c1, c2, 2);
  for (std::size_t d = 1; d < spec.depth; ++d) {
    append_mbconv(*net, c2, c2, 1);
  }
  append_mbconv(*net, c2, c3, 2);

  net->emplace<nn::global_avgpool>();

  backbone out;
  out.features = std::move(net);
  out.feature_dim = c3;
  return out;
}

}  // namespace appeal::models
