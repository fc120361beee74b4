// ShuffleNet-style backbone: units of grouped 1x1 conv -> channel shuffle ->
// depthwise 3x3 conv -> grouped 1x1 conv, wrapped in residuals. Stride-2
// units use a 1x1-conv projection skip (an add-style simplification of the
// original concat skip; the family's signature ops — grouped pointwise convs
// and the shuffle — are preserved exactly).
#include <memory>

#include "models/model_zoo.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/channel_shuffle.hpp"
#include "nn/conv2d.hpp"
#include "nn/pooling.hpp"
#include "nn/residual.hpp"
#include "util/error.hpp"

namespace appeal::models {

namespace {

constexpr std::size_t shuffle_groups = 4;

/// Builds one shuffle unit as a residual layer.
std::unique_ptr<nn::residual> make_shuffle_unit(std::size_t in_channels,
                                                std::size_t out_channels,
                                                std::size_t stride) {
  const std::size_t mid = std::max<std::size_t>(shuffle_groups,
                                                out_channels / 4 * 4) /
                          2 * 2;
  // Channel counts must divide into the group count on both grouped convs.
  const std::size_t mid_channels =
      ((mid + shuffle_groups - 1) / shuffle_groups) * shuffle_groups;

  auto body = std::make_unique<nn::sequential>();
  body->emplace<nn::conv2d>(in_channels, mid_channels, 1, 1, 0,
                            shuffle_groups, false);
  body->emplace<nn::batchnorm2d>(mid_channels);
  body->emplace<nn::relu>();
  body->emplace<nn::channel_shuffle>(shuffle_groups);
  body->emplace<nn::conv2d>(mid_channels, mid_channels, 3, stride, 1,
                            mid_channels, false);  // depthwise
  body->emplace<nn::batchnorm2d>(mid_channels);
  body->emplace<nn::conv2d>(mid_channels, out_channels, 1, 1, 0,
                            shuffle_groups, false);
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

}  // namespace

backbone make_shufflenet_backbone(const model_spec& spec) {
  APPEAL_CHECK(spec.image_size >= 8,
               "shufflenet backbone needs image_size >= 8");
  auto net = std::make_unique<nn::sequential>();

  // Group-divisible channel plan.
  const std::size_t c0 = scaled_channels(16, spec.width, shuffle_groups,
                                         shuffle_groups);
  const std::size_t c1 = scaled_channels(32, spec.width, shuffle_groups,
                                         shuffle_groups);
  const std::size_t c2 = scaled_channels(64, spec.width, shuffle_groups,
                                         shuffle_groups);
  const std::size_t c3 = scaled_channels(128, spec.width, shuffle_groups,
                                         shuffle_groups);

  // Stem.
  net->emplace<nn::conv2d>(spec.in_channels, c0, 3, 1, 1, 1, false);
  net->emplace<nn::batchnorm2d>(c0);
  net->emplace<nn::relu>();

  // Stages of shuffle units.
  net->append(make_shuffle_unit(c0, c1, 2));
  for (std::size_t d = 1; d < spec.depth; ++d) {
    net->append(make_shuffle_unit(c1, c1, 1));
  }
  net->append(make_shuffle_unit(c1, c2, 2));
  for (std::size_t d = 1; d < spec.depth; ++d) {
    net->append(make_shuffle_unit(c2, c2, 1));
  }
  net->append(make_shuffle_unit(c2, c3, 2));

  net->emplace<nn::global_avgpool>();

  backbone out;
  out.features = std::move(net);
  out.feature_dim = c3;
  return out;
}

}  // namespace appeal::models
