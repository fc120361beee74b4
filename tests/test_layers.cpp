// Finite-difference gradient checks + behavioural tests for every layer.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <string>

#include "core/two_head_network.hpp"
#include "grad_check.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/channel_shuffle.hpp"
#include "nn/conv2d.hpp"
#include "nn/dropout.hpp"
#include "nn/init.hpp"
#include "nn/linear.hpp"
#include "nn/pooling.hpp"
#include "nn/residual.hpp"
#include "nn/sequential.hpp"
#include "nn/squeeze_excite.hpp"
#include "quant/quantize.hpp"
#include "util/error.hpp"

namespace {

using namespace appeal;
using appeal::testing::check_layer_gradients;

tensor random_input(shape s, std::uint64_t seed) {
  util::rng gen(seed);
  return tensor::randn(std::move(s), gen, 0.0F, 1.0F);
}

TEST(linear_layer, forward_matches_manual_computation) {
  nn::linear layer(2, 3);
  // W = [[1,2],[3,4],[5,6]], b = [0.5, -0.5, 1].
  layer.weight().value = tensor::from_values(shape{3, 2}, {1, 2, 3, 4, 5, 6});
  layer.bias().value = tensor::from_values(shape{3}, {0.5F, -0.5F, 1.0F});
  const tensor x = tensor::from_values(shape{1, 2}, {10, 20});
  const tensor y = layer.forward(x, false);
  EXPECT_FLOAT_EQ(y[0], 50.5F);
  EXPECT_FLOAT_EQ(y[1], 109.5F);
  EXPECT_FLOAT_EQ(y[2], 171.0F);
}

TEST(linear_layer, gradients) {
  util::rng gen(1);
  nn::linear layer(5, 4);
  nn::initialize_model(layer, gen);
  check_layer_gradients(layer, random_input(shape{3, 5}, 2), gen);
}

TEST(linear_layer, no_bias_variant) {
  util::rng gen(3);
  nn::linear layer(4, 2, /*bias=*/false);
  nn::initialize_model(layer, gen);
  EXPECT_EQ(layer.parameters().size(), 1U);
  EXPECT_THROW(layer.bias(), util::error);
  check_layer_gradients(layer, random_input(shape{2, 4}, 4), gen);
}

TEST(linear_layer, rejects_bad_input) {
  nn::linear layer(4, 2);
  EXPECT_THROW(layer.forward(tensor(shape{2, 5}), false), util::error);
  EXPECT_THROW(layer.forward(tensor(shape{4}), false), util::error);
}

TEST(conv2d_layer, gradients_dense) {
  util::rng gen(5);
  nn::conv2d layer(3, 4, 3, 1, 1);
  nn::initialize_model(layer, gen);
  check_layer_gradients(layer, random_input(shape{2, 3, 5, 5}, 6), gen);
}

TEST(conv2d_layer, gradients_strided_no_padding) {
  util::rng gen(7);
  nn::conv2d layer(2, 3, 3, 2, 0);
  nn::initialize_model(layer, gen);
  check_layer_gradients(layer, random_input(shape{2, 2, 7, 7}, 8), gen);
}

TEST(conv2d_layer, gradients_depthwise) {
  util::rng gen(9);
  nn::conv2d layer(4, 4, 3, 1, 1, /*groups=*/4);
  nn::initialize_model(layer, gen);
  check_layer_gradients(layer, random_input(shape{2, 4, 5, 5}, 10), gen);
}

TEST(conv2d_layer, gradients_grouped) {
  util::rng gen(11);
  nn::conv2d layer(4, 6, 1, 1, 0, /*groups=*/2);
  nn::initialize_model(layer, gen);
  check_layer_gradients(layer, random_input(shape{2, 4, 4, 4}, 12), gen);
}

TEST(conv2d_layer, output_shape_and_flops) {
  nn::conv2d layer(3, 8, 3, 2, 1);
  const shape out = layer.output_shape(shape{1, 3, 16, 16});
  EXPECT_EQ(out, shape({1, 8, 8, 8}));
  // MACs = out elems * in_c * k * k (+bias), FLOPs = 2x.
  const std::uint64_t macs = 8ULL * 8 * 8 * 3 * 3 * 3 + 8ULL * 8 * 8;
  EXPECT_EQ(layer.flops(shape{1, 3, 16, 16}), 2 * macs);
}

TEST(conv2d_layer, rejects_bad_geometry) {
  EXPECT_THROW(nn::conv2d(3, 4, 3, 1, 0, /*groups=*/2), util::error);
  nn::conv2d layer(1, 1, 5, 1, 0);
  EXPECT_THROW(layer.forward(tensor(shape{1, 1, 3, 3}), false), util::error);
}

TEST(batchnorm_layer, normalizes_in_training_mode) {
  nn::batchnorm2d layer(2);
  util::rng gen(13);
  const tensor x = tensor::randn(shape{8, 2, 4, 4}, gen, 3.0F, 2.0F);
  const tensor y = layer.forward(x, true);
  // Per-channel mean ~0, var ~1.
  for (std::size_t c = 0; c < 2; ++c) {
    double total = 0.0;
    double total_sq = 0.0;
    for (std::size_t s = 0; s < 8; ++s) {
      for (std::size_t i = 0; i < 16; ++i) {
        const float v = y[(s * 2 + c) * 16 + i];
        total += v;
        total_sq += static_cast<double>(v) * v;
      }
    }
    const double mean = total / 128.0;
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(total_sq / 128.0 - mean * mean, 1.0, 1e-2);
  }
}

TEST(batchnorm_layer, eval_uses_running_statistics) {
  nn::batchnorm2d layer(1);
  util::rng gen(17);
  // Several training passes accumulate running stats.
  for (int i = 0; i < 50; ++i) {
    const tensor x = tensor::randn(shape{16, 1, 2, 2}, gen, 5.0F, 3.0F);
    layer.forward(x, true);
  }
  // Eval on a biased batch should normalize with running stats (~N(5, 9)),
  // not the batch's own.
  const tensor x = tensor::full(shape{4, 1, 2, 2}, 5.0F);
  const tensor y = layer.forward(x, false);
  for (const float v : y.values()) {
    EXPECT_NEAR(v, 0.0F, 0.2F);  // (5 - running_mean) / running_std ~ 0
  }
}

TEST(batchnorm_layer, gradients) {
  util::rng gen(19);
  nn::batchnorm2d layer(3);
  // Non-trivial gamma/beta.
  layer.gamma().value = tensor::from_values(shape{3}, {1.5F, 0.5F, -1.0F});
  layer.beta().value = tensor::from_values(shape{3}, {0.1F, -0.2F, 0.3F});
  appeal::testing::grad_check_options opts;
  opts.epsilon = 5e-3F;
  opts.tolerance = 4e-2F;  // batch statistics amplify fd noise
  check_layer_gradients(layer, random_input(shape{4, 3, 3, 3}, 20), gen, opts);
}

TEST(batchnorm_layer, backward_requires_training_forward) {
  nn::batchnorm2d layer(1);
  const tensor x = random_input(shape{2, 1, 2, 2}, 21);
  layer.forward(x, false);
  EXPECT_THROW(layer.backward(x), util::error);
}

template <typename Activation>
class activation_gradients : public ::testing::Test {};

using activation_types =
    ::testing::Types<nn::relu, nn::relu6, nn::sigmoid_layer, nn::silu,
                     nn::hardswish>;
TYPED_TEST_SUITE(activation_gradients, activation_types);

TYPED_TEST(activation_gradients, matches_finite_differences) {
  util::rng gen(23);
  TypeParam layer;
  // Keep probes away from the kink points by the epsilon choice.
  appeal::testing::grad_check_options opts;
  opts.epsilon = 1e-3F;
  opts.tolerance = 3e-2F;
  check_layer_gradients(layer, random_input(shape{4, 10}, 24), gen, opts);
}

TEST(activations, known_values) {
  nn::relu6 r6;
  const tensor x = tensor::from_values(shape{4}, {-1.0F, 3.0F, 6.5F, 0.0F});
  const tensor y = r6.forward(x, false);
  EXPECT_EQ(y[0], 0.0F);
  EXPECT_EQ(y[1], 3.0F);
  EXPECT_EQ(y[2], 6.0F);

  nn::hardswish hs;
  const tensor hx = tensor::from_values(shape{3}, {-4.0F, 0.0F, 4.0F});
  const tensor hy = hs.forward(hx, false);
  EXPECT_EQ(hy[0], 0.0F);
  EXPECT_EQ(hy[1], 0.0F);
  EXPECT_EQ(hy[2], 4.0F);
}

TEST(maxpool_layer, forward_and_gradient_routing) {
  nn::maxpool2d layer(2, 2);
  const tensor x = tensor::from_values(
      shape{1, 1, 4, 4},
      {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16});
  // Inference forward computes values but no argmax map...
  const tensor y_eval = layer.forward(x, false);
  EXPECT_EQ(y_eval.dims(), shape({1, 1, 2, 2}));
  EXPECT_EQ(y_eval[0], 6.0F);
  EXPECT_EQ(y_eval[3], 16.0F);
  // ...so backward requires a training-mode forward (the inference
  // caching contract in layer.hpp).
  const tensor gy = tensor::full(shape{1, 1, 2, 2}, 1.0F);
  EXPECT_THROW(layer.backward(gy), appeal::util::error);

  const tensor y = layer.forward(x, true);
  EXPECT_EQ(y.dims(), shape({1, 1, 2, 2}));
  EXPECT_EQ(y[0], 6.0F);
  EXPECT_EQ(y[3], 16.0F);

  // Gradient flows only to the max positions.
  const tensor gx = layer.backward(gy);
  EXPECT_EQ(gx[5], 1.0F);   // position of 6
  EXPECT_EQ(gx[0], 0.0F);
  EXPECT_EQ(gx[15], 1.0F);  // position of 16
}

TEST(avgpool_layer, gradients) {
  util::rng gen(29);
  nn::avgpool2d layer(2, 2);
  check_layer_gradients(layer, random_input(shape{2, 3, 4, 4}, 30), gen);
}

TEST(global_avgpool_layer, forward_value_and_gradients) {
  nn::global_avgpool layer;
  const tensor x = tensor::from_values(shape{1, 2, 1, 2}, {1, 3, 10, 20});
  const tensor y = layer.forward(x, false);
  EXPECT_EQ(y.dims(), shape({1, 2}));
  EXPECT_FLOAT_EQ(y[0], 2.0F);
  EXPECT_FLOAT_EQ(y[1], 15.0F);

  util::rng gen(31);
  check_layer_gradients(layer, random_input(shape{2, 3, 3, 3}, 32), gen);
}

TEST(flatten_layer, roundtrip) {
  nn::flatten_layer layer;
  const tensor x = random_input(shape{2, 3, 2, 2}, 33);
  const tensor y = layer.forward(x, false);
  EXPECT_EQ(y.dims(), shape({2, 12}));
  const tensor gx = layer.backward(y);
  EXPECT_EQ(gx.dims(), x.dims());
}

TEST(dropout_layer, eval_mode_is_identity) {
  nn::dropout layer(0.5F, 1);
  const tensor x = random_input(shape{4, 8}, 34);
  const tensor y = layer.forward(x, false);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_EQ(y[i], x[i]);
}

TEST(dropout_layer, training_drops_and_rescales) {
  nn::dropout layer(0.25F, 7);
  const tensor x = tensor::full(shape{1, 4000}, 1.0F);
  const tensor y = layer.forward(x, true);
  std::size_t zeros = 0;
  for (const float v : y.values()) {
    if (v == 0.0F) {
      ++zeros;
    } else {
      EXPECT_NEAR(v, 1.0F / 0.75F, 1e-5F);
    }
  }
  EXPECT_NEAR(static_cast<double>(zeros) / 4000.0, 0.25, 0.03);
}

TEST(dropout_layer, backward_uses_same_mask) {
  nn::dropout layer(0.5F, 11);
  const tensor x = tensor::full(shape{1, 100}, 1.0F);
  const tensor y = layer.forward(x, true);
  const tensor gx = layer.backward(tensor::full(shape{1, 100}, 1.0F));
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(gx[i] == 0.0F, y[i] == 0.0F);
  }
}

TEST(channel_shuffle_layer, permutation_and_inverse) {
  nn::channel_shuffle layer(2);
  // 4 channels viewed as [2, 2]: forward maps (g, c) -> c*2+g.
  tensor x(shape{1, 4, 1, 1});
  for (std::size_t c = 0; c < 4; ++c) x[c] = static_cast<float>(c);
  const tensor y = layer.forward(x, false);
  EXPECT_EQ(y[0], 0.0F);  // (0,0) -> 0
  EXPECT_EQ(y[1], 2.0F);  // dest 1 <- src group1,k0 = channel 2
  EXPECT_EQ(y[2], 1.0F);
  EXPECT_EQ(y[3], 3.0F);

  // backward(forward(x)) restores the order for gradients.
  const tensor gx = layer.backward(y);
  for (std::size_t c = 0; c < 4; ++c) EXPECT_EQ(gx[c], static_cast<float>(c));
}

TEST(channel_shuffle_layer, gradients) {
  util::rng gen(37);
  nn::channel_shuffle layer(3);
  check_layer_gradients(layer, random_input(shape{2, 6, 2, 2}, 38), gen);
}

TEST(squeeze_excite_layer, gradients) {
  util::rng gen(41);
  nn::squeeze_excite layer(4, 2);
  nn::initialize_model(layer, gen);
  appeal::testing::grad_check_options opts;
  opts.epsilon = 5e-3F;
  opts.tolerance = 4e-2F;
  check_layer_gradients(layer, random_input(shape{2, 4, 3, 3}, 42), gen, opts);
}

TEST(squeeze_excite_layer, output_is_channel_scaled_input) {
  util::rng gen(43);
  nn::squeeze_excite layer(2, 2);
  nn::initialize_model(layer, gen);
  const tensor x = random_input(shape{1, 2, 2, 2}, 44);
  const tensor y = layer.forward(x, false);
  // Each channel plane is the input scaled by one positive factor.
  for (std::size_t c = 0; c < 2; ++c) {
    const float ratio = y[c * 4] / x[c * 4];
    EXPECT_GT(ratio, 0.0F);
    EXPECT_LT(ratio, 1.0F);  // sigmoid output
    for (std::size_t i = 1; i < 4; ++i) {
      EXPECT_NEAR(y[c * 4 + i] / x[c * 4 + i], ratio, 1e-4F);
    }
  }
}

TEST(residual_layer, identity_skip_gradients) {
  util::rng gen(47);
  auto body = std::make_unique<nn::sequential>();
  body->emplace<nn::conv2d>(3, 3, 3, 1, 1, 1, false);
  body->emplace<nn::batchnorm2d>(3);
  nn::residual layer(std::move(body), nullptr, /*final_relu=*/true);
  nn::initialize_model(layer, gen);
  appeal::testing::grad_check_options opts;
  opts.epsilon = 5e-3F;
  opts.tolerance = 4e-2F;
  check_layer_gradients(layer, random_input(shape{2, 3, 4, 4}, 48), gen, opts);
}

TEST(residual_layer, projection_skip_gradients) {
  util::rng gen(49);
  auto body = std::make_unique<nn::sequential>();
  body->emplace<nn::conv2d>(2, 4, 3, 2, 1, 1, false);
  auto proj = std::make_unique<nn::sequential>();
  proj->emplace<nn::conv2d>(2, 4, 1, 2, 0, 1, false);
  nn::residual layer(std::move(body), std::move(proj), /*final_relu=*/false);
  nn::initialize_model(layer, gen);
  check_layer_gradients(layer, random_input(shape{2, 2, 4, 4}, 50), gen);
}

TEST(residual_layer, rejects_shape_mismatch) {
  auto body = std::make_unique<nn::sequential>();
  body->emplace<nn::conv2d>(2, 4, 3, 1, 1, 1, false);  // changes channels
  nn::residual layer(std::move(body), nullptr, true);
  EXPECT_THROW(layer.forward(tensor(shape{1, 2, 4, 4}), false), util::error);
}

TEST(sequential_container, composes_and_reports) {
  util::rng gen(53);
  nn::sequential net;
  net.emplace<nn::conv2d>(1, 2, 3, 1, 1);
  net.emplace<nn::relu>();
  net.emplace<nn::global_avgpool>();
  net.emplace<nn::linear>(2, 3);
  nn::initialize_model(net, gen);

  EXPECT_EQ(net.size(), 4U);
  EXPECT_EQ(net.output_shape(shape{5, 1, 6, 6}), shape({5, 3}));
  EXPECT_GT(net.flops(shape{1, 1, 6, 6}), 0ULL);

  const auto reports = net.summarize(shape{1, 1, 6, 6});
  ASSERT_EQ(reports.size(), 4U);
  EXPECT_EQ(reports[0].name, "0:conv2d");
  EXPECT_EQ(reports[3].output, shape({1, 3}));

  const auto named = net.named_parameters("");
  bool found = false;
  for (const auto& np : named) {
    if (np.qualified_name == "3.weight") found = true;
  }
  EXPECT_TRUE(found);
}

TEST(sequential_container, end_to_end_gradients) {
  util::rng gen(59);
  nn::sequential net;
  net.emplace<nn::conv2d>(2, 3, 3, 1, 1, 1, false);
  net.emplace<nn::batchnorm2d>(3);
  net.emplace<nn::relu>();
  net.emplace<nn::global_avgpool>();
  net.emplace<nn::linear>(3, 2);
  nn::initialize_model(net, gen);
  appeal::testing::grad_check_options opts;
  opts.epsilon = 5e-3F;
  opts.tolerance = 5e-2F;
  check_layer_gradients(net, random_input(shape{3, 2, 4, 4}, 60), gen, opts);
}

/// Runs `net` one child at a time through forward_range and checks the
/// result against one forward() call, bit for bit.
void expect_child_by_child_matches_forward(nn::sequential& net,
                                           const tensor& input,
                                           const std::string& what) {
  const tensor full = net.forward(input, /*training=*/false);
  tensor x = input;
  for (std::size_t i = 0; i < net.size(); ++i) {
    x = net.forward_range(x, i, i + 1, /*training=*/false);
  }
  ASSERT_EQ(x.dims(), full.dims()) << what;
  EXPECT_EQ(std::memcmp(x.data(), full.data(), full.size() * sizeof(float)),
            0)
      << what << ": child-by-child output diverged from forward()";
}

TEST(sequential_container, child_by_child_forward_range_matches_forward) {
  // perfbench times every child of the served networks this way, so the
  // per-child chain must compute exactly what the served forward does.
  const models::model_family families[] = {
      models::model_family::resnet, models::model_family::mobilenet,
      models::model_family::shufflenet, models::model_family::efficientnet};
  util::rng gen(71);
  for (const models::model_family family : families) {
    core::two_head_config cfg;
    cfg.spec.family = family;
    cfg.spec.image_size = 16;
    cfg.spec.num_classes = 10;
    cfg.init_seed = 0xC07 + static_cast<std::uint64_t>(family);
    core::two_head_network net(cfg);
    net.prepare_for_inference();
    const tensor images = tensor::rand_uniform(
        shape{2, cfg.spec.in_channels, 16, 16}, gen, -1.0F, 1.0F);
    expect_child_by_child_matches_forward(
        net.extractor(), images,
        "family " + std::to_string(static_cast<int>(family)));
  }

  core::two_head_config cfg;
  cfg.spec.family = models::model_family::mobilenet;
  cfg.spec.image_size = 16;
  cfg.spec.num_classes = 10;
  core::two_head_network net(cfg);
  const tensor calibration = tensor::rand_uniform(
      shape{8, cfg.spec.in_channels, 16, 16}, gen, -1.0F, 1.0F);
  ASSERT_GT(quant::quantize_two_head(net, calibration).quantized, 0U);
  const tensor images = tensor::rand_uniform(
      shape{3, cfg.spec.in_channels, 16, 16}, gen, -1.0F, 1.0F);
  expect_child_by_child_matches_forward(net.extractor(), images,
                                        "int8 mobilenet");
}

}  // namespace
