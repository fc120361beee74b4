// Tests for the inference fast path: batched conv lowering, the
// inference workspace arena, conv+batchnorm folding, and the
// no-backward-caches contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "core/two_head_network.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/activations.hpp"
#include "nn/fold.hpp"
#include "nn/inference_workspace.hpp"
#include "nn/init.hpp"
#include "nn/linear.hpp"
#include "nn/sequential.hpp"
#include "quant/quantize.hpp"
#include "tensor/tensor_ops.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace {

using appeal::shape;
using appeal::tensor;
namespace nn = appeal::nn;
namespace ops = appeal::ops;

tensor random_input(const shape& s, std::uint64_t seed) {
  appeal::util::rng gen(seed);
  return tensor::rand_uniform(s, gen, -1.0F, 1.0F);
}

/// The batched inference path (one strided im2col + one GEMM per layer)
/// must match the per-sample training lowering exactly: both accumulate
/// each output element in the same patch order.
TEST(conv_fastpath, batched_inference_matches_training_forward) {
  for (const std::size_t groups : {std::size_t{1}, std::size_t{4}}) {
    nn::conv2d conv(8, 12, /*kernel=*/3, /*stride=*/1, /*padding=*/1, groups,
                    /*bias=*/true);
    appeal::util::rng gen(41);
    nn::initialize_model(conv, gen);
    const tensor x = random_input(shape{5, 8, 9, 7}, 42);

    const tensor train_out = conv.forward(x, /*training=*/true);
    const tensor infer_out = conv.forward(x, /*training=*/false);
    EXPECT_EQ(train_out.dims(), infer_out.dims());
    EXPECT_EQ(ops::max_abs_diff(train_out, infer_out), 0.0F)
        << "groups=" << groups;
  }
}

/// Depthwise runs a direct stencil in inference (no im2col); values match
/// the training lowering up to summation-order rounding. Covers strides 1
/// and 2, every plane from 1x1 to 9x9, batch 1 and 4, a channel count
/// that is not a multiple of the kernel's four-channel groups, and the
/// fused clamp (which the training forward leaves out, so the reference
/// clamps afterwards).
TEST(conv_fastpath, depthwise_direct_matches_training_forward) {
  const std::size_t channels = 6;
  for (const std::size_t stride : {std::size_t{1}, std::size_t{2}}) {
    for (std::size_t hw = 1; hw <= 9; ++hw) {
      for (const std::size_t batch : {std::size_t{1}, std::size_t{4}}) {
        for (const bool clamp : {false, true}) {
          nn::conv2d conv(channels, channels, /*kernel=*/3, stride,
                          /*padding=*/1, /*groups=*/channels, /*bias=*/true);
          appeal::util::rng gen(48 + hw);
          nn::initialize_model(conv, gen);
          conv.bias().value = random_input(shape{channels}, 50 + hw);
          const tensor x = random_input(shape{batch, channels, hw, hw}, 49);

          tensor train_out = conv.forward(x, /*training=*/true);
          if (clamp) {
            conv.fuse_activation(0.0F, 0.5F);
            for (std::size_t i = 0; i < train_out.size(); ++i) {
              train_out[i] = std::min(std::max(train_out[i], 0.0F), 0.5F);
            }
          }
          const tensor infer_out = conv.forward(x, /*training=*/false);
          ASSERT_EQ(train_out.dims(), infer_out.dims());
          EXPECT_LE(ops::max_abs_diff(train_out, infer_out), 1e-6F)
              << "stride " << stride << " plane " << hw << " batch " << batch
              << " clamp " << clamp;
        }
      }
    }
  }
}

TEST(conv_fastpath, inference_forward_clears_backward_cache) {
  nn::conv2d conv(3, 4, 3, 1, 1);
  const tensor x = random_input(shape{2, 3, 6, 6}, 43);
  const tensor y = conv.forward(x, /*training=*/false);
  EXPECT_THROW(conv.backward(y), appeal::util::error);
}

TEST(workspace, steady_state_inference_allocates_nothing) {
  nn::sequential net;
  net.emplace<nn::conv2d>(3, 8, 3, 1, 1);
  net.emplace<nn::batchnorm2d>(8);
  net.emplace<nn::conv2d>(8, 8, 3, 1, 1, /*groups=*/8, /*bias=*/false);
  net.emplace<nn::linear>(8 * 6 * 6, 10);
  // (linear needs rank-2 input; flatten via a conv-to-linear boundary)
  appeal::util::rng gen(44);
  nn::initialize_model(net, gen);

  nn::inference_workspace& ws = nn::inference_workspace::local();
  ws.clear();

  const tensor x = random_input(shape{4, 3, 6, 6}, 45);
  auto run = [&] {
    tensor features = net.child(0).forward(x, false);
    tensor bn = net.child(1).forward(features, false);
    ws.recycle(std::move(features));
    tensor dw = net.child(2).forward(bn, false);
    ws.recycle(std::move(bn));
    tensor flat = dw.reshaped(shape{4, 8 * 6 * 6});
    tensor logits = net.child(3).forward(flat, false);
    ws.recycle(std::move(dw));
    ws.recycle(std::move(logits));
  };

  run();  // warmup populates the pool
  const std::size_t warm_allocations = ws.stats().allocations;
  for (int i = 0; i < 5; ++i) run();
  const nn::inference_workspace::usage after = ws.stats();
  EXPECT_EQ(after.allocations, warm_allocations)
      << "steady-state inference hit the heap";
  EXPECT_GT(after.reuses, 0U);
  ws.clear();

  // The served int8 edge network: quantized dense layers (u8 staging,
  // lowered panels, packed-GEMM outputs) and the float depthwise scratch
  // all come from the same arena.
  appeal::core::two_head_config cfg;
  cfg.spec.family = appeal::models::model_family::mobilenet;
  cfg.spec.image_size = 16;
  cfg.spec.num_classes = 10;
  appeal::core::two_head_network edge(cfg);
  appeal::quant::quantize_two_head(
      edge, random_input(shape{16, 3, 16, 16}, 46));
  const tensor images = random_input(shape{4, 3, 16, 16}, 47);
  auto serve = [&] {
    appeal::core::two_head_output out = edge.forward(images, false);
    ws.recycle(std::move(out.logits));
    ws.recycle(std::move(out.q_logits));
  };
  serve();
  const std::size_t int8_warm = ws.stats().allocations;
  for (int i = 0; i < 5; ++i) serve();
  EXPECT_EQ(ws.stats().allocations, int8_warm)
      << "steady-state int8 inference hit the heap";
  ws.clear();
}

void build_conv_bn_stack(nn::sequential& net, std::uint64_t seed) {
  net.emplace<nn::conv2d>(3, 16, 3, 1, 1, 1, /*bias=*/false);
  net.emplace<nn::batchnorm2d>(16);
  net.emplace<nn::conv2d>(16, 16, 3, 2, 1, /*groups=*/16, /*bias=*/false);
  net.emplace<nn::batchnorm2d>(16);
  net.emplace<nn::conv2d>(16, 8, 1, 1, 0, 1, /*bias=*/true);
  net.emplace<nn::batchnorm2d>(8);
  appeal::util::rng gen(seed);
  nn::initialize_model(net, gen);
}

/// Drives a few training steps so the running statistics are non-trivial,
/// then checks folding: same outputs (up to rounding), fewer layers.
TEST(fold, conv_batchnorm_folding_preserves_inference_outputs) {
  nn::sequential net;
  build_conv_bn_stack(net, 46);
  for (int step = 0; step < 3; ++step) {
    tensor x = random_input(shape{6, 3, 8, 8}, 47 + step);
    net.forward(x, /*training=*/true);  // updates running stats
  }

  const tensor x = random_input(shape{4, 3, 8, 8}, 50);
  const tensor before = net.forward(x, /*training=*/false);

  const std::size_t folded = nn::fold_conv_batchnorm(net);
  EXPECT_EQ(folded, 3U);
  EXPECT_EQ(net.size(), 3U);  // batchnorms removed

  const tensor after = net.forward(x, /*training=*/false);
  EXPECT_EQ(before.dims(), after.dims());
  EXPECT_LE(ops::max_abs_diff(before, after), 2e-5F);
}

/// Activation fusion is a pure store-pass rewrite: the clamp moves into
/// the conv's GEMM/stencil epilogue, so outputs are BIT-identical to the
/// separate activation layer, across the dense (n==1 and batched+scatter),
/// grouped, and depthwise inference paths.
TEST(fold, conv_activation_fusion_is_bit_exact) {
  nn::sequential net;
  net.emplace<nn::conv2d>(3, 16, 3, 1, 1, 1, /*bias=*/false);
  net.emplace<nn::batchnorm2d>(16);
  net.emplace<nn::relu6>();
  net.emplace<nn::conv2d>(16, 16, 3, 2, 1, /*groups=*/16, /*bias=*/true);
  net.emplace<nn::relu>();
  net.emplace<nn::conv2d>(16, 16, 3, 1, 1, /*groups=*/4, /*bias=*/true);
  net.emplace<nn::relu6>();
  net.emplace<nn::conv2d>(16, 8, 1, 1, 0, 1, /*bias=*/true);
  net.emplace<nn::relu>();
  appeal::util::rng gen(52);
  nn::initialize_model(net, gen);
  for (int step = 0; step < 3; ++step) {
    tensor x = random_input(shape{6, 3, 8, 8}, 53 + step);
    net.forward(x, /*training=*/true);
  }

  // Fold batchnorm first so its (tolerance-bearing) rewrite is not part
  // of the comparison; fusion itself must be exact.
  EXPECT_EQ(nn::fold_conv_batchnorm(net), 1U);
  const tensor x1 = random_input(shape{1, 3, 8, 8}, 57);
  const tensor xn = random_input(shape{4, 3, 8, 8}, 58);
  const tensor before1 = net.forward(x1, /*training=*/false);
  const tensor beforen = net.forward(xn, /*training=*/false);

  EXPECT_EQ(nn::fuse_conv_activation(net), 4U);
  EXPECT_EQ(net.size(), 4U);  // only the convs remain

  const tensor after1 = net.forward(x1, /*training=*/false);
  const tensor aftern = net.forward(xn, /*training=*/false);
  EXPECT_EQ(ops::max_abs_diff(before1, after1), 0.0F);
  EXPECT_EQ(ops::max_abs_diff(beforen, aftern), 0.0F);
}

TEST(fold, two_head_prepare_for_inference_is_idempotent) {
  appeal::core::two_head_config cfg;
  cfg.spec.image_size = 8;
  appeal::core::two_head_network net(cfg);

  const tensor x = random_input(shape{3, 3, 8, 8}, 51);
  const appeal::core::two_head_output before = net.forward(x, false);

  const std::size_t folded = net.prepare_for_inference();
  EXPECT_GT(folded, 0U);
  EXPECT_EQ(net.prepare_for_inference(), 0U);  // second call is a no-op

  const appeal::core::two_head_output after = net.forward(x, false);
  EXPECT_LE(ops::max_abs_diff(before.logits, after.logits), 2e-5F);
  for (std::size_t i = 0; i < before.q.size(); ++i) {
    EXPECT_NEAR(before.q[i], after.q[i], 2e-5F);
  }
}

}  // namespace
