// Tests for the int8 edge quantization subsystem (src/quant): quantized
// layer correctness against integer references and the float layers they
// replace, the two-head graph rewrite, δ recalibration, the bit-width
// autotuner's budget contract, and — end to end — that an int8 edge
// deployment served through the engine stays within the autotuner's
// accuracy budget of the fp32 deployment.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <numeric>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "core/joint_trainer.hpp"
#include "core/threshold.hpp"
#include "core/two_head_network.hpp"
#include "data/dataset.hpp"
#include "data/presets.hpp"
#include "nn/linear.hpp"
#include "nn/quantization.hpp"
#include "quant/autotune.hpp"
#include "quant/qlayers.hpp"
#include "quant/quantize.hpp"
#include "quant/recalibrate.hpp"
#include "serve/server.hpp"
#include "tensor/gemm_s8.hpp"
#include "tensor/im2col.hpp"
#include "tensor/tensor_ops.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace {

using namespace appeal;

core::two_head_config tiny_mobilenet_config(std::uint64_t seed = 0x5EED) {
  core::two_head_config cfg;
  cfg.spec.family = models::model_family::mobilenet;
  cfg.spec.image_size = 16;
  cfg.spec.num_classes = 10;
  cfg.init_seed = seed;
  return cfg;
}

tensor random_images(std::size_t n, appeal::util::rng& gen) {
  return tensor::rand_uniform(shape{n, 3, 16, 16}, gen, -1.0F, 1.0F);
}

}  // namespace

TEST(quant, qlinear_matches_integer_reference) {
  // Hand-built layer: y = W x + b through the real s8/u8 pipeline must
  // equal the same arithmetic done longhand in exact integers.
  const std::size_t in = 7;
  const std::size_t out = 3;
  nn::linear source(in, out, /*bias=*/true);
  appeal::util::rng gen(11);
  source.weight().value = tensor::rand_uniform(shape{out, in}, gen, -0.9F, 0.9F);
  source.bias().value = tensor::rand_uniform(shape{out}, gen, -0.5F, 0.5F);

  quant::qlayer_params params;
  params.weight_bits = 8;
  params.act.scale = 0.02F;
  params.act.zero_point = 128;
  params.act.bits = 8;
  params.act.symmetric = false;
  quant::qlinear q(source, params);

  const std::size_t n = 5;
  tensor x = tensor::rand_uniform(shape{n, in}, gen, -1.0F, 1.0F);
  const tensor y = q.forward(x, /*training=*/false);
  ASSERT_EQ(y.dims(), (shape{n, out}));

  // Longhand reference mirroring the deployed arithmetic bit for bit:
  // per-row symmetric weight grid from choose_quant_params, activations
  // rounded half away from zero in float (ops::quantize_u8's rule).
  const float act_inv = 1.0F / params.act.scale;
  for (std::size_t r = 0; r < out; ++r) {
    const float* wrow = source.weight().value.data() + r * in;
    const nn::quant_params wp = nn::choose_quant_params(
        std::span<const float>(wrow, in), 8, /*symmetric=*/true);
    const float w_inv = 1.0F / wp.scale;
    for (std::size_t s = 0; s < n; ++s) {
      std::int64_t acc = 0;
      std::int64_t row_sum = 0;
      for (std::size_t i = 0; i < in; ++i) {
        const auto wq = static_cast<std::int64_t>(std::clamp<std::int32_t>(
            static_cast<std::int32_t>(std::lround(wrow[i] * w_inv)),
            wp.q_min(), wp.q_max()));
        const float scaled = x[s * in + i] * act_inv;
        const float rounded = scaled >= 0.0F ? scaled + 0.5F : scaled - 0.5F;
        const std::int64_t xq = std::clamp<std::int64_t>(
            static_cast<std::int32_t>(rounded) + params.act.zero_point, 0,
            255);
        acc += wq * xq;
        row_sum += wq;
      }
      const float expected =
          wp.scale * params.act.scale *
              static_cast<float>(acc - params.act.zero_point * row_sum) +
          source.bias().value[r];
      EXPECT_NEAR(y[s * out + r], expected, 1e-4F)
          << "sample " << s << " output " << r;
    }
  }
}

TEST(quant, qconv2d_tracks_float_conv) {
  nn::conv2d source(8, 16, 3, /*stride=*/1, /*padding=*/1, /*groups=*/1,
                    /*bias=*/true);
  appeal::util::rng gen(13);
  for (nn::parameter* p : source.parameters()) {
    p->value = tensor::rand_uniform(p->value.dims(), gen, -0.5F, 0.5F);
  }
  tensor x = tensor::rand_uniform(shape{2, 8, 10, 10}, gen, -1.0F, 1.0F);
  const tensor reference = source.forward(x, /*training=*/false);

  quant::qlayer_params params;
  params.weight_bits = 8;
  const float span[2] = {-1.0F, 1.0F};
  params.act = nn::choose_quant_params(std::span<const float>(span, 2), 8,
                                       /*symmetric=*/false);
  quant::qconv2d q(source, params);
  const tensor quantized = q.forward(x, /*training=*/false);

  ASSERT_EQ(quantized.dims(), reference.dims());
  EXPECT_EQ(q.weight_bits(), 8);
  EXPECT_GT(q.weight_rmse(), 0.0);
  // 8-bit grids on [-1, 1] inputs: per-element error stays a small
  // multiple of the activation step (~0.0078).
  EXPECT_LT(ops::max_abs_diff(quantized, reference), 0.1F);
  EXPECT_EQ(q.output_shape(x.dims()), reference.dims());
}

namespace {

/// qconv2d computed the long way: float im2col of the whole batch, the
/// lowered panel quantized with ops::quantize_u8, then a scalar s8 x u8
/// product with the same requantize epilogue, scattered to NCHW. The
/// deployed layer quantizes first and lowers u8 codes; both must agree on
/// every bit.
tensor reference_qconv(nn::conv2d& source, const quant::qlayer_params& params,
                       const tensor& x) {
  ops::conv_geometry g;
  g.channels = source.in_channels();
  g.height = x.height();
  g.width = x.width();
  g.kernel = source.kernel();
  g.stride = source.stride();
  g.padding = source.padding();
  const std::size_t n = x.batch();
  const std::size_t oc = source.out_channels();
  const std::size_t cols = g.column_count();
  const std::size_t patch = g.patch_size();
  const std::size_t batch_cols = n * cols;
  const std::size_t in_sample = g.channels * g.height * g.width;

  std::vector<float> panel(patch * batch_cols);
  for (std::size_t s = 0; s < n; ++s) {
    ops::im2col_strided(g, x.data() + s * in_sample, panel.data() + s * cols,
                        batch_cols);
  }
  std::vector<std::uint8_t> codes(panel.size());
  ops::quantize_u8(panel.data(), panel.size(), params.act.scale,
                   params.act.zero_point, codes.data());

  tensor out(shape{n, oc, g.out_height(), g.out_width()});
  for (std::size_t r = 0; r < oc; ++r) {
    const float* wrow = source.weight().value.data() + r * patch;
    const nn::quant_params wp = nn::choose_quant_params(
        std::span<const float>(wrow, patch), params.weight_bits,
        /*symmetric=*/true);
    const float w_inv = 1.0F / wp.scale;
    std::vector<std::int32_t> wq(patch);
    std::int32_t row_sum = 0;
    for (std::size_t i = 0; i < patch; ++i) {
      wq[i] = std::clamp(
          static_cast<std::int32_t>(std::lround(wrow[i] * w_inv)), wp.q_min(),
          wp.q_max());
      row_sum += wq[i];
    }
    const float scale = wp.scale * params.act.scale;
    const std::int32_t offset = -params.act.zero_point * row_sum;
    const float bias = source.has_bias() ? source.bias().value[r] : 0.0F;
    for (std::size_t j = 0; j < batch_cols; ++j) {
      std::int32_t acc = 0;
      for (std::size_t i = 0; i < patch; ++i) {
        acc += wq[i] * static_cast<std::int32_t>(codes[i * batch_cols + j]);
      }
      float v = scale * static_cast<float>(acc + offset) + bias;
      v = std::min(std::max(v, source.fused_act_lo()), source.fused_act_hi());
      out[((j / cols) * oc + r) * cols + j % cols] = v;
    }
  }
  return out;
}

}  // namespace

// Quantize-once lowering: u8 codes lowered with the zero point as padding
// equal the codes of the float-lowered panel, so qconv2d matches the long
// way bit for bit — 3x3 at stride 1 and 2 with padding, and 1x1, at batch
// 1 and 5, on a centred activation grid and on one whose zero point is 0.
TEST(quant, qconv2d_u8_lowering_matches_float_lowering_bit_for_bit) {
  struct conv_case {
    std::size_t kernel, stride, padding;
  };
  const conv_case cases[] = {{3, 1, 1}, {3, 2, 1}, {1, 1, 0}};
  appeal::util::rng gen(2021);
  for (const conv_case& cc : cases) {
    for (const std::size_t n : {1, 5}) {
      for (const bool relu_input : {false, true}) {
        nn::conv2d source(6, 10, cc.kernel, cc.stride, cc.padding,
                          /*groups=*/1, /*bias=*/true);
        for (nn::parameter* p : source.parameters()) {
          p->value = tensor::rand_uniform(p->value.dims(), gen, -0.5F, 0.5F);
        }
        if (relu_input) source.fuse_activation(0.0F, 6.0F);
        const float lo = relu_input ? 0.0F : -1.0F;
        const tensor x =
            tensor::rand_uniform(shape{n, 6, 7, 9}, gen, lo, 1.0F);

        quant::qlayer_params params;
        const float span[2] = {lo, 1.0F};
        params.act = nn::choose_quant_params(std::span<const float>(span, 2),
                                             8, /*symmetric=*/false);
        quant::qconv2d q(source, params);
        const tensor got = q.forward(x, /*training=*/false);
        const tensor want = reference_qconv(source, params, x);
        ASSERT_EQ(got.dims(), want.dims());
        for (std::size_t i = 0; i < got.size(); ++i) {
          ASSERT_EQ(got[i], want[i])
              << "k=" << cc.kernel << " s=" << cc.stride << " n=" << n
              << " zp=" << params.act.zero_point << " element " << i;
        }
      }
    }
  }
}

TEST(quant, quantize_two_head_rewrites_dense_layers_only) {
  core::two_head_network fp32_net(tiny_mobilenet_config());
  core::two_head_network q_net(tiny_mobilenet_config());
  appeal::util::rng gen(17);
  const tensor calibration = random_images(32, gen);
  const tensor probe = random_images(16, gen);

  fp32_net.prepare_for_inference();
  const core::two_head_output ref = fp32_net.forward(probe, false);

  const std::size_t candidates = quant::count_quantizable_layers(q_net);
  const quant::quant_report report =
      quant::quantize_two_head(q_net, calibration);
  EXPECT_EQ(report.layers.size(), candidates);
  EXPECT_EQ(report.quantized, candidates);
  EXPECT_GT(report.quantized, 0U);
  EXPECT_GT(report.skipped, 0U);  // MobileNet's depthwise convs stay float
  EXPECT_EQ(report.min_bits(), 8);
  for (std::size_t i = 0; i < report.layers.size(); ++i) {
    EXPECT_EQ(report.layers[i].index, i);
    EXPECT_GE(report.layers[i].weight_rmse, 0.0);
    EXPECT_GT(report.layers[i].weight_count, 0U);
  }

  const core::two_head_output out = q_net.forward(probe, false);
  ASSERT_EQ(out.logits.dims(), ref.logits.dims());
  ASSERT_EQ(out.q.size(), ref.q.size());
  // Same network, int8 arithmetic: logits and appeal scores track fp32.
  double q_drift = 0.0;
  for (std::size_t i = 0; i < out.q.size(); ++i) {
    q_drift += std::abs(static_cast<double>(out.q[i]) -
                        static_cast<double>(ref.q[i]));
  }
  EXPECT_LT(q_drift / static_cast<double>(out.q.size()), 0.05);
  EXPECT_LT(ops::max_abs_diff(out.logits, ref.logits), 1.0F);
}

TEST(quant, quantize_twice_throws) {
  core::two_head_network net(tiny_mobilenet_config());
  appeal::util::rng gen(19);
  const tensor calibration = random_images(8, gen);
  quant::quantize_two_head(net, calibration);
  EXPECT_THROW(quant::quantize_two_head(net, calibration), appeal::util::error);
}

TEST(quant, bits_vector_is_validated) {
  appeal::util::rng gen(23);
  const tensor calibration = random_images(8, gen);
  {
    core::two_head_network net(tiny_mobilenet_config());
    const std::vector<int> wrong_size(1, 8);
    EXPECT_THROW(quant::quantize_two_head(net, calibration, wrong_size),
                 appeal::util::error);
  }
  {
    core::two_head_network net(tiny_mobilenet_config());
    std::vector<int> out_of_range(quant::count_quantizable_layers(net), 8);
    out_of_range.front() = 1;  // below the 2-bit floor
    EXPECT_THROW(quant::quantize_two_head(net, calibration, out_of_range),
                 appeal::util::error);
  }
}

TEST(quant, per_layer_bits_are_deployed_and_reported) {
  core::two_head_network net(tiny_mobilenet_config());
  appeal::util::rng gen(29);
  const tensor calibration = random_images(16, gen);
  std::vector<int> bits(quant::count_quantizable_layers(net), 8);
  ASSERT_GE(bits.size(), 2U);
  bits[0] = 4;
  bits[1] = 6;
  const quant::quant_report report =
      quant::quantize_two_head(net, calibration, bits);
  EXPECT_EQ(report.layers[0].bits, 4);
  EXPECT_EQ(report.layers[1].bits, 6);
  EXPECT_EQ(report.min_bits(), 4);
  // Narrower grids distort more: the 4-bit layer's RMSE must exceed what
  // an 8-bit grid on the same tensor would produce.
  core::two_head_network net8(tiny_mobilenet_config());
  const quant::quant_report report8 =
      quant::quantize_two_head(net8, calibration);
  EXPECT_GT(report.layers[0].weight_rmse, report8.layers[0].weight_rmse);
  quant::publish_edge_bits(report, "test-deployment");
}

TEST(quant, recalibrate_hits_target_skip_rate) {
  core::two_head_network net(tiny_mobilenet_config());
  appeal::util::rng gen(31);
  const tensor calibration = random_images(128, gen);
  quant::quantize_two_head(net, calibration);
  const quant::recalibration recal =
      quant::quant_recalibrate(net, calibration, 0.75);
  // 128 distinct scores: the achievable grid is 1/128 ≈ 0.008 apart.
  EXPECT_NEAR(recal.skip_rate, 0.75, 0.02);
  EXPECT_GT(recal.delta, 0.0);
  EXPECT_LT(recal.delta, 1.0);
  EXPECT_GT(recal.mean_score, 0.0);
  EXPECT_LT(recal.mean_score, 1.0);
}

TEST(quant, autotune_respects_accuracy_budget) {
  const core::two_head_config cfg = tiny_mobilenet_config(0xAB);
  appeal::util::rng gen(37);
  const tensor calibration = random_images(64, gen);
  std::vector<std::size_t> labels(64);
  for (std::size_t i = 0; i < labels.size(); ++i) labels[i] = i % 10;

  quant::autotune_config tune;
  tune.candidate_bits = {6, 4};
  tune.accuracy_budget = 0.01;
  tune.target_skip_rate = 0.7;
  const quant::autotune_result result = quant::autotune_bit_widths(
      [&cfg] { return std::make_unique<core::two_head_network>(cfg); },
      calibration, labels, tune);

  ASSERT_NE(result.net, nullptr);
  EXPECT_EQ(result.bits.size(), result.report.layers.size());
  for (int b : result.bits) {
    EXPECT_TRUE(b == 8 || b == 6 || b == 4) << "unexpected bit-width " << b;
  }
  EXPECT_EQ(result.report.min_bits(),
            *std::min_element(result.bits.begin(), result.bits.end()));
  EXPECT_GE(result.trials, 1U);
  // The contract under test: any lowering below the 8-bit floor kept the
  // collaborative accuracy within the budget of the fp32 reference.
  if (result.lowered > 0) {
    EXPECT_LE(result.fp32_accuracy - result.quant_accuracy,
              tune.accuracy_budget + 1e-12);
  }
  // The accepted network serves: one forward at the recalibrated δ.
  const core::two_head_output out =
      result.net->forward(random_images(4, gen), false);
  EXPECT_EQ(out.q.size(), 4U);
}

// Engine-level acceptance: the int8 edge deployment, served through the
// real engine (queue -> batcher -> edge worker -> δ routing -> oracle
// cloud), stays within the autotuner's default accuracy budget of the
// fp32 deployment at the same target skipping rate. The little network is
// briefly trained so predictions and scores are meaningful rather than
// argmax noise over an untrained head.
TEST(quant, served_int8_accuracy_within_budget_of_fp32) {
  const data::dataset_bundle bundle =
      data::make_small_bundle(data::preset::cifar10_like, 7);
  core::two_head_config cfg;
  cfg.spec.family = models::model_family::mobilenet;
  cfg.spec.image_size = bundle.train->config().image_size;
  cfg.spec.num_classes = bundle.train->num_classes();
  cfg.init_seed = 0x10;

  core::two_head_network trained(cfg);
  core::trainer_config pretrain;
  pretrain.epochs = 2;
  pretrain.seed = 41;
  core::pretrain_two_head(trained, *bundle.train, nullptr, pretrain);
  core::trainer_config joint;
  joint.epochs = 2;
  joint.seed = 43;
  core::joint_loss_config loss;
  loss.black_box = true;
  core::train_joint(trained, *bundle.train, nullptr, {}, joint, loss);

  std::vector<tensor> snapshot;
  for (const nn::named_tensor& nt : trained.state()) {
    snapshot.push_back(*nt.value);
  }
  const auto make_trained = [&cfg, &snapshot] {
    auto net = std::make_unique<core::two_head_network>(cfg);
    std::vector<nn::named_tensor> state = net->state();
    for (std::size_t i = 0; i < state.size(); ++i) *state[i].value = snapshot[i];
    return net;
  };

  const data::batch calib = data::make_full_batch(*bundle.val);
  const double target_sr = 0.7;

  // δ per precision, tuned on the validation split's own scores — the
  // recalibration step an int8 deployment must run.
  const auto serve_accuracy = [&](std::unique_ptr<core::two_head_network> net,
                                  const char* name) {
    const quant::scored_pass pass = quant::run_scored(*net, calib.images);
    const double delta =
        core::delta_for_skipping_rate(pass.scores, target_sr);

    serve::deployment_config dep;
    dep.shard.num_workers = 1;  // network backends are single-threaded
    dep.shard.stats.deployment = name;
    dep.shard.threshold.adapt = serve::threshold_config::mode::fixed;
    dep.shard.threshold.initial_delta = delta;
    serve::server srv;
    core::two_head_network& net_ref = *net;
    srv.register_deployment(
        name, dep,
        [&net_ref](std::size_t, std::size_t) {
          return std::make_unique<serve::network_edge_backend>(
              net_ref, core::score_method::appealnet_q);
        },
        [] { return std::make_unique<serve::oracle_cloud_backend>(); });
    for (std::size_t i = 0; i < bundle.test->size(); ++i) {
      const data::sample& s = bundle.test->get(i);
      serve::inference_request req;
      req.model = name;
      req.key = i;
      req.label = s.label;
      req.input = s.image;
      srv.submit(std::move(req));
    }
    srv.drain();
    const serve::stats_snapshot snap = srv.at(name).snapshot();
    EXPECT_EQ(snap.completed, bundle.test->size());
    return snap.online_accuracy;
  };

  std::unique_ptr<core::two_head_network> fp32_net = make_trained();
  fp32_net->prepare_for_inference();
  const double fp32_accuracy = serve_accuracy(std::move(fp32_net), "fp32");

  std::unique_ptr<core::two_head_network> int8_net = make_trained();
  quant::quantize_two_head(*int8_net, calib.images);
  const double int8_accuracy = serve_accuracy(std::move(int8_net), "int8");

  const double budget = quant::autotune_config{}.accuracy_budget;
  EXPECT_GE(int8_accuracy, fp32_accuracy - budget)
      << "int8 served accuracy " << int8_accuracy << " vs fp32 "
      << fp32_accuracy;
}
