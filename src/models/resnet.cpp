// ResNet-style backbone with basic blocks — the cloud ("big") model.
//
// Structurally a standard pre-pool ResNet: stem conv, four stages of basic
// blocks (two 3x3 convs + identity/projection skip), global average pool.
// `depth` sets the blocks per stage; the defaults used by the experiments
// give a model ~25-80x the FLOPs of the edge nets, matching the paper's
// ResNet-101 / MobileNet cost ratio regime.
#include <memory>

#include "models/model_zoo.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/pooling.hpp"
#include "nn/residual.hpp"
#include "util/error.hpp"

namespace appeal::models {

namespace {

/// One basic block: conv3x3-bn-relu-conv3x3-bn (+skip) -> relu.
std::unique_ptr<nn::residual> make_basic_block(std::size_t in_channels,
                                               std::size_t out_channels,
                                               std::size_t stride) {
  auto body = std::make_unique<nn::sequential>();
  body->emplace<nn::conv2d>(in_channels, out_channels, 3, stride, 1, 1, false);
  body->emplace<nn::batchnorm2d>(out_channels);
  body->emplace<nn::relu>();
  body->emplace<nn::conv2d>(out_channels, out_channels, 3, 1, 1, 1, false);
  body->emplace<nn::batchnorm2d>(out_channels);

  std::unique_ptr<nn::sequential> projection;
  if (stride != 1 || in_channels != out_channels) {
    projection = std::make_unique<nn::sequential>();
    projection->emplace<nn::conv2d>(in_channels, out_channels, 1, stride, 0,
                                    1, false);
    projection->emplace<nn::batchnorm2d>(out_channels);
  }
  return std::make_unique<nn::residual>(std::move(body), std::move(projection),
                                        /*final_relu=*/true);
}

void append_stage(nn::sequential& net, std::size_t in_channels,
                  std::size_t out_channels, std::size_t stride,
                  std::size_t blocks) {
  net.append(make_basic_block(in_channels, out_channels, stride));
  for (std::size_t b = 1; b < blocks; ++b) {
    net.append(make_basic_block(out_channels, out_channels, 1));
  }
}

}  // namespace

backbone make_resnet_backbone(const model_spec& spec) {
  APPEAL_CHECK(spec.image_size >= 8, "resnet backbone needs image_size >= 8");
  auto net = std::make_unique<nn::sequential>();

  const std::size_t c0 = scaled_channels(16, spec.width);
  const std::size_t c1 = scaled_channels(32, spec.width);
  const std::size_t c2 = scaled_channels(64, spec.width);
  const std::size_t c3 = scaled_channels(128, spec.width);
  const std::size_t blocks = std::max<std::size_t>(1, spec.depth);

  // Stem.
  net->emplace<nn::conv2d>(spec.in_channels, c0, 3, 1, 1, 1, false);
  net->emplace<nn::batchnorm2d>(c0);
  net->emplace<nn::relu>();

  // Stages: full-resolution stage then three downsampling stages.
  append_stage(*net, c0, c0, 1, blocks);
  append_stage(*net, c0, c1, 2, blocks);
  append_stage(*net, c1, c2, 2, blocks);
  append_stage(*net, c2, c3, 2, blocks);

  net->emplace<nn::global_avgpool>();

  backbone out;
  out.features = std::move(net);
  out.feature_dim = c3;
  return out;
}

}  // namespace appeal::models
