// MobileNetV1-style backbone: a stem conv followed by depthwise-separable
// blocks (3x3 depthwise conv + 1x1 pointwise conv, batchnorm + ReLU6 after
// each), scaled for small inputs.
#include <memory>

#include "models/model_zoo.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/pooling.hpp"
#include "util/error.hpp"

namespace appeal::models {

namespace {

/// Appends one depthwise-separable block to `net`.
void append_dw_separable(nn::sequential& net, std::size_t in_channels,
                         std::size_t out_channels, std::size_t stride) {
  // Depthwise 3x3 (one filter per channel).
  net.emplace<nn::conv2d>(in_channels, in_channels, /*kernel=*/3, stride,
                          /*padding=*/1, /*groups=*/in_channels,
                          /*bias=*/false);
  net.emplace<nn::batchnorm2d>(in_channels);
  net.emplace<nn::relu6>();
  // Pointwise 1x1.
  net.emplace<nn::conv2d>(in_channels, out_channels, /*kernel=*/1,
                          /*stride=*/1, /*padding=*/0, /*groups=*/1,
                          /*bias=*/false);
  net.emplace<nn::batchnorm2d>(out_channels);
  net.emplace<nn::relu6>();
}

}  // namespace

backbone make_mobilenet_backbone(const model_spec& spec) {
  APPEAL_CHECK(spec.image_size >= 8,
               "mobilenet backbone needs image_size >= 8");
  auto net = std::make_unique<nn::sequential>();

  const std::size_t c0 = scaled_channels(16, spec.width);
  const std::size_t c1 = scaled_channels(32, spec.width);
  const std::size_t c2 = scaled_channels(64, spec.width);
  const std::size_t c3 = scaled_channels(128, spec.width);

  // Stem.
  net->emplace<nn::conv2d>(spec.in_channels, c0, 3, 1, 1, 1, false);
  net->emplace<nn::batchnorm2d>(c0);
  net->emplace<nn::relu6>();

  // Body: three downsampling separable blocks with `depth` extra
  // stride-1 blocks interleaved per stage.
  append_dw_separable(*net, c0, c1, 2);
  for (std::size_t d = 1; d < spec.depth; ++d) {
    append_dw_separable(*net, c1, c1, 1);
  }
  append_dw_separable(*net, c1, c2, 2);
  for (std::size_t d = 1; d < spec.depth; ++d) {
    append_dw_separable(*net, c2, c2, 1);
  }
  append_dw_separable(*net, c2, c3, 2);

  net->emplace<nn::global_avgpool>();

  backbone out;
  out.features = std::move(net);
  out.feature_dim = c3;
  return out;
}

}  // namespace appeal::models
