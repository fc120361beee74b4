// Closed-loop serving load test, driven through the serve::server facade.
//
// A pool of client threads drives >= 10k synthetic requests through a
// named deployment (one engine: N edge workers sharing one request queue,
// appealing over one cloud channel). Two runs
// share one workload:
//   1. fixed δ taken from the offline system_eval sweep at --target_sr —
//      online accuracy and SR must reproduce the offline prediction;
//   2. adaptive δ (track_sr from a cold, deliberately wrong δ) — shows
//      the per-deployment threshold_controller converging onto the same
//      operating point.
// Reports throughput, p50/p95/p99 latency, achieved SR, shed rate, online
// accuracy, and the cost model's latency prediction for the achieved SR;
// writes results/serving.csv and, with --json=<path>, a machine-readable
// result for the perf trajectory.
//
// Two backends:
//   --backend=replay (default): precomputed predictions/scores — isolates
//     the scheduler (queue, batcher, δ, channel) from model compute;
//   --backend=network: every edge worker runs a real two-head MobileNet
//     little network on synthetic images — the end-to-end edge fast path
//     (batched NCHW forward, packed GEMM, inference workspace) shows up
//     directly in the reported edge p50/p99. --edge_precision=int8 swaps
//     the workers (and the offline tables) onto the quant:: int8 rewrite
//     with δ recalibrated on the quantized score distribution; =auto
//     additionally runs the per-layer bit-width autotuner first.
//
// Two clouds:
//   --cloud=replay (default): the synthetic per-key big model;
//   --cloud=network (requires --backend=network for images on the wire):
//     the real big network — serve::make_cloud_model's canonical spec,
//     optionally restored from --weights=<path> (tools/train_cloud_model
//     output). The sim transport scores appeals with the local
//     network_cloud_backend; over a socket, start
//     `cloud_stub --scorer=network` with the same weights and the two
//     runs' cloud-path accuracy must agree bit for bit. Appeals always
//     ship the raw pixels; the cloud runs the whole big network.
//
// Three cloud transports:
//   --transport=sim (default): the deterministic cost-model simulator;
//   --transport=uds --endpoint=/tmp/appeal-cloud.sock and
//   --transport=tcp --endpoint=host:port: real framed appeals to a
//     running `cloud_stub`. Start the stub with --scorer=synthetic and
//     the same --seed/--accuracy/--classes and its answers equal the
//     simulator's replay table exactly, so accuracy/SR must match the
//     sim run bit for bit (the loopback CI gate asserts this).
//
// Run:  ./bench_serving [--requests=20000] [--target_sr=0.9] [--seed=42]
//       [--clients=64] [--pace_us=0] [--workers=4] [--batch=16]
//       [--max_wait_us=200] [--time_scale=0.2] [--edge_sim=1]
//       [--backend=replay|network] [--edge_precision=fp32|int8|auto]
//       [--cloud=replay|network]
//       [--weights=<path>] [--admission=block|shed|edge_only]
//       [--transport=sim|uds|tcp] [--endpoint=<path|host:port>]
//       [--coalesce_ms=0] [--max_batch_appeals=64]
//       [--max_retries=2] [--retry_backoff_ms=25]
//       [--breaker_threshold=4] [--breaker_open_ms=1000]
//       [--response_timeout_ms=30000]
//       [--fault=drop=0.05,delay_ms=1,dup=0.02,kill_at=0,seed=7]
//       [--json=results/serving.json]
//
// Robustness: the retry/breaker flags tune the channel's overload
// handling (see serve/cloud_channel.hpp); --fault wraps the transport in
// a deterministic fault injector (serve/transport/fault_transport.hpp)
// for chaos runs — the chaos-uds CI job drives this.
//
// Observability: --trace_sample=0.01 samples every 100th request into a
// trace span stamped at each stage boundary; --trace=<path> writes the
// sampled spans as JSONL (feed to tools/trace_report for the per-stage
// waterfall). --metrics=<port|uds-path> serves the process metrics
// registry as a Prometheus-text /metrics endpoint for the whole run;
// --metrics_dump=<path> writes a final scrape to a file at exit.
// --gemm_threads=N sets the (process-global) intra-GEMM parallelism of
// edge forwards. Each run labels its registry instruments
// {deployment="bench-fixed"|"bench-adaptive"}; the fixed run has no
// warmup, so its cumulative counters equal its final snapshot — the
// loopback CI gate asserts exactly that.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "collab/system_eval.hpp"
#include "obs/exporter.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "core/two_head_network.hpp"
#include "quant/autotune.hpp"
#include "quant/quantize.hpp"
#include "quant/recalibrate.hpp"
#include "serve/cloud_model.hpp"
#include "serve/server.hpp"
#include "serve/transport/synthetic_scorer.hpp"
#include "tensor/gemm.hpp"
#include "tensor/tensor_ops.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using namespace appeal;

struct workload {
  std::vector<std::size_t> labels;
  std::vector<std::size_t> little;
  std::vector<std::size_t> big;
  std::vector<double> scores;
};

/// Big-model accuracy of the synthetic cloud; a cloud_stub started with
/// --scorer=synthetic --accuracy=0.97 and the same seed answers
/// identically over the socket.
constexpr double kBigAccuracy = 0.97;

/// Synthetic request population: an ~80%-accurate little model, an
/// ~97%-accurate big model, and scores correlated with little-correctness
/// (the separation the two-head predictor provides; cf. Fig. 4). Big
/// predictions are a pure function of (key, seed) — shared with the
/// out-of-process cloud_stub — so simulator and socket runs route and
/// score identically.
workload make_workload(std::size_t n, std::uint64_t seed) {
  util::rng gen(seed);
  workload w;
  w.labels.resize(n);
  w.little.resize(n);
  w.big.resize(n);
  w.scores.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    w.labels[i] = i % 10;
    const bool little_right = gen.bernoulli(0.8);
    w.little[i] = little_right ? w.labels[i] : (w.labels[i] + 1) % 10;
    w.big[i] = serve::transport::synthetic_big_prediction(
        i, w.labels[i], 10, seed, kBigAccuracy);
    w.scores[i] = little_right ? 0.5 + 0.5 * gen.uniform()
                               : 0.7 * gen.uniform();
  }
  return w;
}

/// Configuration of the real little network served in --backend=network
/// mode: the MobileNet edge backbone at its default (16x16, width 1.0)
/// geometry. Weights are deterministic from init_seed, so every worker's
/// instance — and the offline calibration pass — computes identical
/// predictions and scores.
core::two_head_config edge_net_config() {
  core::two_head_config cfg;
  cfg.spec.family = models::model_family::mobilenet;
  cfg.spec.image_size = 16;
  cfg.spec.num_classes = 10;
  cfg.init_seed = 0x5EED;
  return cfg;
}

/// Network-mode workload: synthetic images plus the same replay tables the
/// scheduler comparison needs, computed by one offline batched pass of the
/// little network (predictions + appeal scores). Big-model predictions
/// stay synthetic — the cloud side is simulated either way.
struct network_workload {
  std::vector<tensor> images;
  workload w;
  /// Calibration sample (first kCalibration images stacked NCHW) — the
  /// quantized modes hand it to every worker's rewrite so all instances
  /// share one activation grid.
  tensor calibration;
  /// Per-layer weight bits served (empty in fp32 mode; all 8 for int8;
  /// the autotuner's choice for auto).
  std::vector<int> bits;
  quant::quant_report report;
  /// δ retuned on the quantized score distribution over the calibration
  /// sample vs the same retuning on fp32 scores — the recalibration shift.
  double recal_delta = 0.0;
  double fp32_delta = 0.0;
};

constexpr std::size_t kCalibration = 256;

network_workload make_network_workload(std::size_t n, std::uint64_t seed,
                                       serve::edge_precision precision,
                                       double target_sr) {
  util::rng gen(seed);
  network_workload out;
  out.images.reserve(n);
  out.w.labels.resize(n);
  out.w.little.resize(n);
  out.w.big.resize(n);
  out.w.scores.resize(n);

  const core::two_head_config cfg = edge_net_config();
  const std::size_t c = cfg.spec.in_channels;
  const std::size_t hw = cfg.spec.image_size;
  for (std::size_t i = 0; i < n; ++i) {
    out.images.push_back(
        tensor::rand_uniform(shape{c, hw, hw}, gen, -1.0F, 1.0F));
    out.w.labels[i] = i % cfg.spec.num_classes;
    out.w.big[i] = serve::transport::synthetic_big_prediction(
        i, out.w.labels[i], cfg.spec.num_classes, seed, kBigAccuracy);
  }

  // Calibration sample for the quantized modes: the head of the workload
  // (deterministic from the seed, so every worker and the offline tables
  // quantize onto identical grids).
  const std::size_t calib = std::min(kCalibration, n);
  out.calibration = tensor(shape{calib, c, hw, hw});
  for (std::size_t i = 0; i < calib; ++i) {
    std::copy(out.images[i].values().begin(), out.images[i].values().end(),
              out.calibration.data() + i * c * hw * hw);
  }

  // The reference network that computes the offline replay tables runs at
  // the SAME precision the workers serve, so the scheduler comparison and
  // the fixed-δ acceptance check see exactly the served model.
  auto make_net = [&cfg] {
    auto net = std::make_unique<core::two_head_network>(cfg);
    net->prepare_for_inference();
    return net;
  };
  std::unique_ptr<core::two_head_network> net = make_net();
  if (precision == serve::edge_precision::int8) {
    out.report = quant::quantize_two_head(*net, out.calibration);
    out.bits.assign(out.report.layers.size(), 8);
  } else if (precision == serve::edge_precision::autotuned) {
    quant::autotune_config tune;
    tune.target_skip_rate = target_sr;
    std::vector<std::size_t> calib_labels(out.w.labels.begin(),
                                          out.w.labels.begin() + calib);
    quant::autotune_result tuned = quant::autotune_bit_widths(
        make_net, out.calibration, calib_labels, tune);
    std::printf(
        "autotune: %zu/%zu layers below 8 bits after %zu trials "
        "(fp32 %.2f%% -> quant %.2f%% collaborative accuracy)\n",
        tuned.lowered, tuned.bits.size(), tuned.trials,
        tuned.fp32_accuracy * 100.0, tuned.quant_accuracy * 100.0);
    out.bits = tuned.bits;
    out.report = std::move(tuned.report);
    net = std::move(tuned.net);
  }
  if (precision != serve::edge_precision::fp32) {
    // δ recalibration: the fp32-tuned threshold vs the one retuned on the
    // quantized score distribution (the sweep below then tunes on the
    // full quantized tables, which is the δ the fixed run serves).
    const quant::recalibration recal =
        quant::quant_recalibrate(*net, out.calibration, target_sr);
    out.recal_delta = recal.delta;
    std::unique_ptr<core::two_head_network> fp32_net = make_net();
    const quant::scored_pass fp32_pass =
        quant::run_scored(*fp32_net, out.calibration);
    out.fp32_delta =
        core::delta_for_skipping_rate(fp32_pass.scores, target_sr);
  }

  constexpr std::size_t kChunk = 64;
  for (std::size_t begin = 0; begin < n; begin += kChunk) {
    const std::size_t end = std::min(begin + kChunk, n);
    tensor batch(shape{end - begin, c, hw, hw});
    for (std::size_t i = begin; i < end; ++i) {
      std::copy(out.images[i].values().begin(), out.images[i].values().end(),
                batch.data() + (i - begin) * c * hw * hw);
    }
    const core::two_head_output fwd = net->forward(batch, /*training=*/false);
    const std::vector<std::size_t> preds = ops::argmax_rows(fwd.logits);
    for (std::size_t i = begin; i < end; ++i) {
      out.w.little[i] = preds[i - begin];
      out.w.scores[i] = fwd.q[i - begin];
    }
  }
  return out;
}

constexpr const char* kModel = "bench";

/// Closed-loop drive over workload indices [begin, end): `clients`
/// threads, each submits one request and blocks on its completion before
/// taking the next index (shed responses resolve immediately, so load
/// shedding speeds the loop up instead of wedging it). A nonzero `pace`
/// inserts that gap between a client's completions and its next submit,
/// bounding the loop's rate — chaos runs use it so the run's wall-clock
/// length stays fixed even while the breaker answers everything locally
/// at fallback speed.
void drive_closed_loop(serve::server& srv, const workload& w,
                       const std::vector<tensor>* images, std::size_t clients,
                       std::size_t begin, std::size_t end,
                       std::chrono::microseconds pace) {
  std::atomic<std::size_t> next{begin};
  std::vector<std::thread> pool;
  pool.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    pool.emplace_back([&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= end) return;
        serve::inference_request req;
        req.model = kModel;
        req.key = i;
        req.label = w.labels[i];
        if (images != nullptr) req.input = (*images)[i];
        srv.submit(std::move(req)).get();
        if (pace.count() > 0) std::this_thread::sleep_for(pace);
      }
    });
  }
  for (std::thread& t : pool) t.join();
}

struct run_result {
  serve::stats_snapshot stats;  // steady state: warmup is excluded
  double delta = 0.0;
  double warmup_seconds = 0.0;
  double measured_seconds = 0.0;
};

/// Drives the full workload through a fresh server; when `warmup > 0`,
/// the first `warmup` requests prime the deployment (and its δ
/// controller) and the stats are reset before the measured phase — so
/// every reported metric (latency quantiles, throughput, SR, accuracy)
/// is steady-state.
run_result run_mode(const workload& w, const std::vector<tensor>* images,
                    const serve::deployment_config& cfg,
                    serve::edge_backend_factory edge_factory,
                    std::function<std::unique_ptr<serve::cloud_backend>()>
                        cloud_factory,
                    std::size_t clients, std::size_t warmup,
                    std::chrono::microseconds pace) {
  serve::server srv;
  serve::deployment& dep = srv.register_deployment(
      kModel, cfg, std::move(edge_factory), std::move(cloud_factory));
  util::stopwatch phases;
  if (warmup > 0) {
    drive_closed_loop(srv, w, images, clients, 0, warmup, pace);
    srv.drain();
    dep.reset_stats();
  }
  run_result r;
  if (warmup > 0) r.warmup_seconds = phases.lap_seconds();
  drive_closed_loop(srv, w, images, clients, warmup, w.labels.size(), pace);
  srv.drain();
  r.measured_seconds = phases.lap_seconds();
  r.stats = dep.snapshot();
  r.delta = dep.controller().delta();
  return r;
}

void report(const char* name, const run_result& r, double target_sr,
            double offline_accuracy, const collab::cost_model& link) {
  std::printf("--- %s ---\n%s", name,
              serve::serve_stats::render(r.stats).c_str());
  if (r.warmup_seconds > 0.0) {
    std::printf("phases           : warmup %.2f s, measured %.2f s\n",
                r.warmup_seconds, r.measured_seconds);
  }
  std::printf("final delta      : %.4f\n", r.delta);
  std::printf("target SR        : %.2f%% (gap %.2f pp)\n", target_sr * 100.0,
              (r.stats.achieved_sr - target_sr) * 100.0);
  std::printf("offline accuracy : %.2f%% (gap %.2f pp)\n",
              offline_accuracy * 100.0,
              (r.stats.online_accuracy - offline_accuracy) * 100.0);
  std::printf("modeled latency  : %.3f ms/request at achieved SR\n\n",
              link.overall_latency_ms(r.stats.achieved_sr));
}

serve::admission_policy parse_admission(const std::string& name) {
  if (name == "block") return serve::admission_policy::block;
  if (name == "shed") return serve::admission_policy::shed;
  if (name == "edge_only") return serve::admission_policy::edge_only;
  throw util::error("unknown --admission policy: " + name);
}

void append_run_json(std::FILE* f, const char* mode, const run_result& r,
                     bool last) {
  const serve::link_counters& link = r.stats.link;
  std::fprintf(
      f,
      "    {\"mode\": \"%s\", \"throughput_rps\": %.3f, \"p50_ms\": %.4f,"
      " \"p95_ms\": %.4f, \"p99_ms\": %.4f, \"achieved_sr\": %.6f,"
      " \"online_accuracy\": %.6f, \"shed_rate\": %.6f, \"shed\": %zu,"
      " \"expired\": %zu, \"cloud_expired\": %zu, \"overflow\": %zu,"
      " \"delta\": %.6f, \"measured_seconds\": %.4f,"
      " \"cloud_accuracy\": %.6f, \"cloud_labeled\": %zu,"
      " \"mean_cloud_ms\": %.4f,"
      " \"appeal_batches\": %zu, \"appeals_on_wire\": %zu,"
      " \"mean_appeals_per_batch\": %.4f, \"wire_bytes_tx\": %zu,"
      " \"wire_bytes_rx\": %zu, \"link_fallbacks\": %zu,"
      " \"submitted\": %zu, \"completed\": %zu, \"edge_kept\": %zu,"
      " \"edge_degraded\": %zu, \"appealed\": %zu,"
      " \"appeal_retries\": %zu, \"appeal_overloaded\": %zu,"
      " \"breaker_opens\": %zu, \"breaker_state\": %u}%s\n",
      mode, r.stats.throughput_rps, r.stats.p50_ms, r.stats.p95_ms,
      r.stats.p99_ms, r.stats.achieved_sr, r.stats.online_accuracy,
      r.stats.shed_rate, r.stats.shed, r.stats.expired, r.stats.cloud_expired,
      r.stats.overflow, r.delta, r.measured_seconds, r.stats.cloud_accuracy,
      r.stats.cloud_labeled, r.stats.mean_cloud_ms, link.wire.batches_sent,
      link.wire.appeals_sent, link.wire.mean_appeals_per_batch(),
      link.wire.bytes_sent, link.wire.bytes_received, link.local_fallbacks,
      r.stats.submitted, r.stats.completed, r.stats.edge_kept,
      r.stats.edge_degraded, r.stats.appealed, link.retries, link.overloaded,
      link.breaker_opens, static_cast<unsigned>(link.breaker),
      last ? "" : ",");
}

}  // namespace

int main(int argc, char** argv) {
  const util::config args = util::config::from_args(argc, argv);
  util::set_log_level(util::log_level::info);

  const auto requests =
      static_cast<std::size_t>(args.get_int_or("requests", 20000));
  const double target_sr = args.get_double_or("target_sr", 0.9);
  const std::uint64_t seed = bench::bench_seed(args);
  const auto clients = static_cast<std::size_t>(args.get_int_or("clients", 64));
  const std::chrono::microseconds pace(args.get_int_or("pace_us", 0));
  const std::string json_path = args.get_string_or("json", "");
  const std::string backend = args.get_string_or("backend", "replay");
  const bool network_backend = backend == "network";
  APPEAL_CHECK(network_backend || backend == "replay",
               "unknown --backend: " + backend);
  const std::string cloud = args.get_string_or("cloud", "replay");
  const bool network_cloud = cloud == "network";
  APPEAL_CHECK(network_cloud || cloud == "replay",
               "unknown --cloud: " + cloud);
  APPEAL_CHECK(!network_cloud || network_backend,
               "--cloud=network needs --backend=network (appeals must "
               "carry images)");
  const serve::edge_precision precision =
      serve::parse_edge_precision(args.get_string_or("edge_precision", "fp32"));
  APPEAL_CHECK(precision == serve::edge_precision::fp32 || network_backend,
               "--edge_precision=int8|auto needs --backend=network (replay "
               "serves no model to quantize)");

  serve::deployment_config cfg;
  cfg.shard.batching.max_batch_size =
      static_cast<std::size_t>(args.get_int_or("batch", 16));
  cfg.shard.batching.max_wait =
      std::chrono::microseconds(args.get_int_or("max_wait_us", 200));
  cfg.shard.num_workers =
      static_cast<std::size_t>(args.get_int_or("workers", 4));
  cfg.shard.queue_capacity = static_cast<std::size_t>(
      args.get_int_or("queue_capacity", 1024));
  cfg.shard.channel.time_scale = args.get_double_or("time_scale", 0.2);
  cfg.shard.channel.transport =
      serve::parse_transport_kind(args.get_string_or("transport", "sim"));
  cfg.shard.channel.endpoint = args.get_string_or("endpoint", "");
  cfg.shard.channel.coalesce_window_ms = args.get_double_or("coalesce_ms", 0.0);
  cfg.shard.channel.max_batch_appeals =
      static_cast<std::size_t>(args.get_int_or("max_batch_appeals", 64));
  cfg.shard.channel.max_retries =
      static_cast<std::size_t>(args.get_int_or("max_retries", 2));
  cfg.shard.channel.retry_backoff_ms =
      args.get_double_or("retry_backoff_ms", 25.0);
  cfg.shard.channel.breaker_threshold =
      static_cast<std::size_t>(args.get_int_or("breaker_threshold", 4));
  cfg.shard.channel.breaker_open_ms =
      args.get_double_or("breaker_open_ms", 1000.0);
  cfg.shard.channel.response_timeout_ms =
      args.get_double_or("response_timeout_ms", 30000.0);
  cfg.shard.channel.fault = args.get_string_or("fault", "");
  // Network mode pays real edge compute, so the simulated edge sleep
  // defaults off there (replay keeps it: compute is otherwise free).
  cfg.shard.simulate_edge_compute =
      args.get_bool_or("edge_sim", !network_backend);
  cfg.shard.admission.policy =
      parse_admission(args.get_string_or("admission", "block"));
  cfg.shard.trace_sample_rate = args.get_double_or("trace_sample", 0.0);
  if (const auto gemm_threads = args.get_int_or("gemm_threads", 0);
      gemm_threads > 0) {
    ops::set_gemm_threads(static_cast<std::size_t>(gemm_threads));
  }
  const std::string trace_path = args.get_string_or("trace", "");
  const std::string metrics_endpoint = args.get_string_or("metrics", "");
  const std::string metrics_dump = args.get_string_or("metrics_dump", "");

  // Sampled spans also feed the appeal_stage_ms summaries, so a /metrics
  // scrape carries the per-stage waterfall alongside the counters.
  if (cfg.shard.trace_sample_rate > 0.0) {
    obs::default_collector().attach_registry(&obs::default_registry());
  }
  std::unique_ptr<obs::metrics_http_server> metrics_server;
  if (!metrics_endpoint.empty()) {
    metrics_server = std::make_unique<obs::metrics_http_server>(
        obs::default_registry(), metrics_endpoint);
    std::printf("metrics: serving /metrics on %s (port %u)\n",
                metrics_endpoint.c_str(),
                static_cast<unsigned>(metrics_server->port()));
  }

  // Workload + edge backend factory for the chosen mode. Both modes share
  // the replay-table scheduler comparison; network mode also carries the
  // synthetic images the real network consumes.
  network_workload nw;
  workload w;
  serve::edge_backend_factory edge_factory;
  if (network_backend) {
    nw = make_network_workload(requests, seed, precision, target_sr);
    w = nw.w;
    if (precision == serve::edge_precision::fp32) {
      edge_factory = [](std::size_t, std::size_t) {
        auto net = std::make_unique<core::two_head_network>(edge_net_config());
        net->prepare_for_inference();  // conv+BN folding at deployment load
        return std::make_unique<serve::network_edge_backend>(
            std::move(net), core::score_method::appealnet_q);
      };
    } else {
      std::printf(
          "edge precision %s: %zu layers quantized (%zu skipped), min %d "
          "bits; delta recalibration %.4f (fp32-tuned %.4f)\n",
          serve::edge_precision_name(precision), nw.report.quantized,
          nw.report.skipped, nw.report.min_bits(), nw.recal_delta,
          nw.fp32_delta);
      // Each worker rebuilds + requantizes from the shared calibration
      // sample and bit vector — deterministic init makes every instance
      // (and the offline tables above) bit-identical. The workers build
      // concurrently, each on its own thread, so the factory only reads
      // what it captured.
      edge_factory = [calibration = nw.calibration,
                      bits = nw.bits](std::size_t, std::size_t) {
        auto net = std::make_unique<core::two_head_network>(edge_net_config());
        quant::quantize_two_head(*net, calibration, bits);
        return std::make_unique<serve::network_edge_backend>(
            std::move(net), core::score_method::appealnet_q);
      };
    }
  } else {
    w = make_workload(requests, seed);
    edge_factory = [&w](std::size_t, std::size_t) {
      return std::make_unique<serve::replay_edge_backend>(w.little, w.scores);
    };
  }
  const std::vector<tensor>* images =
      network_backend ? &nw.images : nullptr;
  cfg.precision = precision;
  cfg.edge_weight_bits =
      precision == serve::edge_precision::fp32 ? 32 : nw.report.min_bits();

  // Cloud backend: the synthetic replay table, or the real big network.
  // In network-cloud mode the offline big-prediction table is recomputed
  // by the same model (batched forwards; bit-identical to the per-appeal
  // forwards the sim transport runs and to the stub's batched scoring),
  // so the offline system_eval prediction still matches the served path.
  std::function<std::unique_ptr<serve::cloud_backend>()> cloud_factory;
  if (network_cloud) {
    serve::cloud_model_config big_cfg;
    big_cfg.weights_path = args.get_string_or("weights", "");
    const core::two_head_config edge_cfg = edge_net_config();
    big_cfg.spec.image_size = edge_cfg.spec.image_size;
    big_cfg.spec.num_classes = edge_cfg.spec.num_classes;
    {
      serve::network_cloud_backend table_builder(
          serve::make_cloud_model(big_cfg));
      constexpr std::size_t kChunk = 64;
      for (std::size_t begin = 0; begin < requests; begin += kChunk) {
        const std::size_t end = std::min(begin + kChunk, requests);
        std::vector<const tensor*> chunk;
        chunk.reserve(end - begin);
        for (std::size_t i = begin; i < end; ++i) {
          chunk.push_back(&nw.images[i]);
        }
        const std::vector<std::size_t> preds = table_builder.infer_batch(chunk);
        for (std::size_t i = begin; i < end; ++i) {
          w.big[i] = preds[i - begin];
        }
      }
    }
    // One model per backend instance: the channel's coalescing thread
    // and the transport's failure path may both score through it, and
    // network forwards must never be shared across threads. Determinism
    // (same seed + weights) keeps every instance identical.
    cloud_factory = [big_cfg] {
      return std::make_unique<serve::network_cloud_backend>(
          serve::make_cloud_model(big_cfg));
    };
  } else {
    cloud_factory = [&w] {
      return std::make_unique<serve::replay_cloud_backend>(w.big);
    };
  }

  // Offline prediction (system_eval) for the same workload and target SR.
  collab::routed_split split;
  split.labels = w.labels;
  split.little_predictions = w.little;
  split.big_predictions = w.big;
  split.scores = w.scores;
  const auto curve =
      collab::accuracy_vs_sr_curve(split, nullptr, {target_sr});
  const collab::sweep_point offline = curve.front();
  std::printf(
      "=== bench_serving: %zu requests, %zu clients, %zu edge workers, "
      "seed %llu, backend %s (%s), cloud %s, transport %s%s%s ===\n",
      requests, clients, cfg.shard.num_workers,
      static_cast<unsigned long long>(seed),
      backend.c_str(), serve::edge_precision_name(precision), cloud.c_str(),
      serve::transport_kind_name(cfg.shard.channel.transport),
      cfg.shard.channel.endpoint.empty() ? "" : " @ ",
      cfg.shard.channel.endpoint.c_str());
  std::printf(
      "offline system_eval: delta %.4f -> SR %.2f%%, accuracy %.2f%%\n\n",
      offline.delta, offline.achieved_sr * 100.0, offline.accuracy * 100.0);

  // Run 1: offline-calibrated fixed δ. Its own {deployment=...} label so
  // cumulative registry counters stay per-run (and, with no warmup, equal
  // to the run's snapshot).
  serve::deployment_config fixed_cfg = cfg;
  fixed_cfg.shard.stats.deployment = "bench-fixed";
  fixed_cfg.shard.threshold.adapt = serve::threshold_config::mode::fixed;
  fixed_cfg.shard.threshold.initial_delta = offline.delta;
  const run_result fixed = run_mode(w, images, fixed_cfg, edge_factory,
                                    cloud_factory, clients, /*warmup=*/0,
                                    pace);
  report("fixed delta (offline calibration)", fixed, target_sr,
         offline.accuracy, cfg.shard.link);

  // Run 2: adaptive δ from a cold start. The controller needs a few
  // recalibration windows to find δ, so a warmup slice of the workload
  // primes it and every reported metric covers the steady state only.
  serve::deployment_config adaptive_cfg = cfg;
  adaptive_cfg.shard.stats.deployment = "bench-adaptive";
  adaptive_cfg.shard.threshold.adapt =
      serve::threshold_config::mode::track_sr;
  adaptive_cfg.shard.threshold.target_sr = target_sr;
  adaptive_cfg.shard.threshold.initial_delta = 0.99;
  const std::size_t warmup = std::min<std::size_t>(2048, requests / 5);
  const run_result adaptive = run_mode(w, images, adaptive_cfg, edge_factory,
                                       cloud_factory, clients, warmup, pace);
  report("adaptive delta (track_sr, cold start)", adaptive, target_sr,
         offline.accuracy, cfg.shard.link);

  const std::string path = bench::results_path("serving.csv");
  {
    util::csv_writer csv(path);
    csv.write_row({"mode", "requests", "throughput_rps", "p50_ms", "p95_ms",
                   "p99_ms", "target_sr", "achieved_sr", "shed_rate",
                   "online_accuracy", "offline_accuracy", "delta"});
    const auto add = [&](const char* mode, const run_result& r) {
      csv.write_row({std::string(mode), std::to_string(requests),
                     std::to_string(r.stats.throughput_rps),
                     std::to_string(r.stats.p50_ms),
                     std::to_string(r.stats.p95_ms),
                     std::to_string(r.stats.p99_ms),
                     std::to_string(target_sr),
                     std::to_string(r.stats.achieved_sr),
                     std::to_string(r.stats.shed_rate),
                     std::to_string(r.stats.online_accuracy),
                     std::to_string(offline.accuracy),
                     std::to_string(r.delta)});
    };
    add("fixed", fixed);
    add("adaptive", adaptive);
  }
  std::printf("wrote %s\n", path.c_str());

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"serving\",\n"
                 "  \"backend\": \"%s\",\n"
                 "  \"edge_precision\": \"%s\",\n"
                 "  \"edge_bits\": %d,\n"
                 "  \"recal_delta\": %.6f,\n"
                 "  \"fp32_delta\": %.6f,\n"
                 "  \"cloud\": \"%s\",\n"
                 "  \"transport\": \"%s\",\n"
                 "  \"coalesce_ms\": %.3f,\n"
                 "  \"requests\": %zu,\n"
                 "  \"clients\": %zu,\n"
                 "  \"seed\": %llu,\n"
                 "  \"target_sr\": %.6f,\n"
                 "  \"offline\": {\"delta\": %.6f, \"achieved_sr\": %.6f,"
                 " \"accuracy\": %.6f},\n"
                 "  \"runs\": [\n",
                 backend.c_str(), serve::edge_precision_name(precision),
                 cfg.edge_weight_bits, nw.recal_delta, nw.fp32_delta,
                 cloud.c_str(),
                 serve::transport_kind_name(cfg.shard.channel.transport),
                 cfg.shard.channel.coalesce_window_ms, requests, clients,
                 static_cast<unsigned long long>(seed), target_sr,
                 offline.delta, offline.achieved_sr, offline.accuracy);
    append_run_json(f, "fixed", fixed, /*last=*/false);
    append_run_json(f, "adaptive", adaptive, /*last=*/true);
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }

  if (!trace_path.empty()) {
    const std::string jsonl = obs::default_collector().render_jsonl();
    std::FILE* f = std::fopen(trace_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
      return 1;
    }
    std::fwrite(jsonl.data(), 1, jsonl.size(), f);
    std::fclose(f);
    std::printf("wrote %s (%llu spans sampled)\n", trace_path.c_str(),
                static_cast<unsigned long long>(
                    obs::default_collector().recorded()));
  }
  if (!metrics_dump.empty()) {
    const std::string text = obs::default_registry().render_prometheus();
    std::FILE* f = std::fopen(metrics_dump.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", metrics_dump.c_str());
      return 1;
    }
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
    std::printf("wrote %s\n", metrics_dump.c_str());
  }

  // Acceptance: SR within 2 pp of target (steady state for the adaptive
  // run), online == offline accuracy for the fixed (same-δ) run.
  const bool sr_ok =
      std::abs(fixed.stats.achieved_sr - target_sr) <= 0.02 &&
      std::abs(adaptive.stats.achieved_sr - target_sr) <= 0.02;
  const bool acc_ok =
      std::abs(fixed.stats.online_accuracy - offline.accuracy) <= 0.005;
  std::printf("acceptance: SR within 2pp %s, online==offline accuracy %s\n",
              sr_ok ? "PASS" : "FAIL", acc_ok ? "PASS" : "FAIL");
  return sr_ok && acc_ok ? 0 : 1;
}
