// Online serving demo: train a small AppealNet system, then register it
// as a named deployment on the serve::server facade and stream the test
// split through it as live traffic.
//
// This is the deployment half the offline benches stop short of: requests
// enter through server::submit (named model, priority class) -> admission
// control -> request_queue -> dynamic batcher -> edge worker running the
// real two-head little network -> δ decision -> async cloud appeal over
// the simulated uplink -> per-deployment streaming stats. The offline
// evaluation of the same system (appealnet_system::infer_all) is printed
// next to the online numbers — they agree because serving is the same
// computation under a scheduler.
//
// The cloud side is pluggable: the default simulated uplink, or a real
// socket to a running `cloud_stub` (--transport=uds --endpoint=<path>,
// or --transport=tcp --endpoint=host:port). Over a socket the stub's
// scorer answers the appeals; the trained big network remains the local
// fallback if the link drops. To make the socket mode answer from the
// REAL trained big model end to end, export its weights once and hand
// them to the stub:
//
//   ./example_serving_demo --save_big=/tmp/big.apnw           # train + save
//   ./build/cloud_stub --listen=uds:/tmp/appeal-cloud.sock
//       --scorer=network --weights=/tmp/big.apnw --workers=2 &
//   ./example_serving_demo --transport=uds
//       --endpoint=/tmp/appeal-cloud.sock
//
// (three commands, each wrapped here; type each on one line)
//
// (Training is deterministic, so the second run trains the same system
// the weights were saved from; the stub loads them into the identical
// canonical ResNet architecture, folds conv+BN, and serves appeals as
// deadline-aware batched cloud inference.)
//
// Run:  ./example_serving_demo [--epochs=6] [--target_sr=0.9]
//       [--time_scale=0.1] [--batch=16] [--save_big=<path>]
//       [--edge_precision=fp32|int8]
//       [--transport=sim|uds|tcp] [--endpoint=<path|host:port>]
//       [--coalesce_ms=0] [--max_batch_appeals=64]
#include <algorithm>
#include <cstdio>
#include <memory>
#include <numeric>

#include "core/appealnet_builder.hpp"
#include "data/presets.hpp"
#include "nn/serialize.hpp"
#include "quant/quantize.hpp"
#include "quant/recalibrate.hpp"
#include "serve/server.hpp"
#include "util/config.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

int main(int argc, char** argv) {
  using namespace appeal;
  const util::config args = util::config::from_args(argc, argv);
  util::set_log_level(util::log_level::info);

  // 1. Train a small edge/cloud system (same recipe as the quickstart).
  const data::dataset_bundle bundle =
      data::make_small_bundle(data::preset::cifar10_like, /*seed=*/7);
  core::appealnet_build_config cfg;
  cfg.little.spec.family = models::model_family::mobilenet;
  cfg.little.spec.image_size = bundle.train->config().image_size;
  cfg.little.spec.num_classes = bundle.train->num_classes();
  cfg.big_spec = cfg.little.spec;
  cfg.big_spec.family = models::model_family::resnet;
  cfg.big_spec.depth = 2;
  const auto epochs = static_cast<std::size_t>(args.get_int_or("epochs", 6));
  cfg.big_training.epochs = epochs;
  cfg.pretraining.epochs = epochs;
  cfg.joint_training.epochs = epochs;
  cfg.joint_training.learning_rate = 8e-4;
  cfg.loss.beta = args.get_double_or("beta", 0.25);
  cfg.target_skipping_rate = args.get_double_or("target_sr", 0.9);

  core::appealnet_system system =
      core::build_appealnet(*bundle.train, *bundle.val, cfg, nullptr);

  // Export the trained big network for `cloud_stub --scorer=network`
  // (saved before any folding, in trainable form; the stub folds at
  // load).
  const std::string save_big = args.get_string_or("save_big", "");
  if (!save_big.empty()) {
    nn::save_model(system.big(), save_big);
    std::printf("saved big-network weights to %s\n", save_big.c_str());
  }

  // Optional quantized edge path (--edge_precision=int8): rewrite the
  // little network onto the int8 kernels BEFORE both evaluations, so the
  // offline/online comparison below still compares the same computation.
  // δ is recalibrated on the quantized score distribution over a
  // validation calibration sample (the fp32-tuned δ would miss the target
  // skipping rate once the scores shift). The bit-width autotuner needs a
  // factory of freshly trained networks — see bench_serving
  // --edge_precision=auto for that mode.
  const serve::edge_precision precision = serve::parse_edge_precision(
      args.get_string_or("edge_precision", "fp32"));
  APPEAL_CHECK(precision != serve::edge_precision::autotuned,
               "serving_demo supports --edge_precision=fp32|int8 (auto "
               "requires retraining; use bench_serving)");
  if (precision == serve::edge_precision::int8) {
    std::vector<std::size_t> rows(
        std::min<std::size_t>(256, bundle.val->size()));
    std::iota(rows.begin(), rows.end(), 0);
    const data::batch calib = data::make_batch(*bundle.val, rows);
    const quant::quant_report report =
        quant::quantize_two_head(system.little(), calib.images);
    quant::publish_edge_bits(report, "appealnet");
    const quant::recalibration recal = quant::quant_recalibrate(
        system.little(), calib.images, cfg.target_skipping_rate);
    std::printf(
        "int8 edge path: %zu layers quantized (%zu skipped); delta "
        "%.4f -> %.4f after recalibration\n",
        report.quantized, report.skipped, system.delta(), recal.delta);
    system.set_delta(recal.delta);
  }

  // 2. Offline reference: batch evaluation of the same system.
  const auto decisions = system.infer_all(*bundle.test);
  std::size_t offline_correct = 0;
  std::size_t offline_kept = 0;
  for (std::size_t i = 0; i < decisions.size(); ++i) {
    if (decisions[i].predicted_class == bundle.test->get(i).label) {
      ++offline_correct;
    }
    if (!decisions[i].offloaded) ++offline_kept;
  }
  const auto n = static_cast<double>(decisions.size());

  // 3. Deploy online behind the multi-tenant front door: the real little
  //    network at the edge (one instance per worker via the factory), the
  //    real big network behind the simulated uplink, δ from the offline
  //    calibration.
  serve::deployment_config dep_cfg;
  dep_cfg.shards = 1;  // one trained system -> one shard in this demo
  dep_cfg.precision = precision;
  dep_cfg.edge_weight_bits =
      precision == serve::edge_precision::fp32 ? 32 : 8;
  dep_cfg.shard.batching.max_batch_size =
      static_cast<std::size_t>(args.get_int_or("batch", 16));
  dep_cfg.shard.batching.max_wait = std::chrono::microseconds(500);
  dep_cfg.shard.num_workers = 1;  // network_edge_backend is single-threaded
  dep_cfg.shard.threshold.adapt = serve::threshold_config::mode::fixed;
  dep_cfg.shard.threshold.initial_delta = system.delta();
  dep_cfg.shard.link = collab::make_cost_model(
      system.edge_mflops(), system.cloud_mflops(),
      /*input_kb=*/static_cast<double>(
          bundle.test->image_shape().element_count()) *
          4.0 / 1024.0);
  dep_cfg.shard.channel.time_scale = args.get_double_or("time_scale", 0.1);
  dep_cfg.shard.channel.transport =
      serve::parse_transport_kind(args.get_string_or("transport", "sim"));
  dep_cfg.shard.channel.endpoint = args.get_string_or("endpoint", "");
  dep_cfg.shard.channel.coalesce_window_ms =
      args.get_double_or("coalesce_ms", 0.0);
  dep_cfg.shard.channel.max_batch_appeals =
      static_cast<std::size_t>(args.get_int_or("max_batch_appeals", 64));

  // Deployment-load optimization: fold the little network's conv+BN pairs.
  // Outputs match the offline evaluation above up to float rounding.
  system.little().prepare_for_inference();

  serve::server srv;
  srv.register_deployment(
      "appealnet", dep_cfg,
      [&system](std::size_t, std::size_t) {
        return std::make_unique<serve::network_edge_backend>(
            system.little(), core::score_method::appealnet_q);
      },
      [&system] {
        return std::make_unique<serve::network_cloud_backend>(system.big());
      });

  for (std::size_t i = 0; i < bundle.test->size(); ++i) {
    const data::sample& s = bundle.test->get(i);
    serve::inference_request req;
    req.model = "appealnet";
    req.input = s.image;
    req.key = i;
    req.label = s.label;
    srv.submit(std::move(req));
  }
  srv.drain();
  const serve::stats_snapshot online = srv.at("appealnet").snapshot();

  std::printf("\n=== serving demo ===\n");
  std::printf("offline: accuracy %.2f%%, SR %.2f%% (delta %.4f)\n",
              static_cast<double>(offline_correct) / n * 100.0,
              static_cast<double>(offline_kept) / n * 100.0, system.delta());
  std::printf("online:\n%s", serve::serve_stats::render(online).c_str());
  std::printf("modeled latency at achieved SR: %.3f ms\n",
              dep_cfg.shard.link.overall_latency_ms(online.achieved_sr));
  return 0;
}
