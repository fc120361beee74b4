// Standalone cloud side of the appeal link.
//
// Listens on a Unix-domain or TCP socket, speaks the serve/transport
// wire protocol (length-prefixed appeal/response batches), and schedules
// appeals like a real cloud: connection threads decode into a shared
// priority/deadline-ordered work queue, a scorer worker pool
// (`--workers`) forms cloud batches from it, appeals whose deadline is
// already blown are shed with an `expired` response, and the survivors
// score as one batched inference. This is the process
// `bench_serving --transport=uds|tcp` and any socket-configured
// deployment appeal to.
//
// Scorers:
//   --scorer=synthetic  deterministic per-key big model: correct with
//                       probability --accuracy, keyed by (--seed, key) —
//                       exactly the table bench_serving builds its
//                       offline replay/simulator workload from, so a
//                       socket run reproduces the simulator run's
//                       accuracy bit for bit;
//   --scorer=echo       answers the ground-truth label carried on the
//                       wire (the paper's always-correct black-box
//                       cloud; unlabeled appeals hash onto a class);
//   --scorer=argmax     argmax over the appeal's tensor payload (a real
//                       forward substitute that actually reads pixels);
//   --scorer=network    the actual big network: built from
//                       --family/--depth/--width/--image_size/--classes
//                       (default: the canonical bench cloud model),
//                       weights loaded from --weights (nn/serialize,
//                       e.g. tools/train_cloud_model or
//                       serving_demo --save_big) or deterministically
//                       initialized from --init_seed, conv+BN folded,
//                       one instance per worker, appeals scored as
//                       stacked batch forwards. Split-computing appeals
//                       (a cut id + the feature map at that cut
//                       of the shared canonical model) score suffix-only
//                       from the same cut table; an unknown cut or a
//                       mismatched feature shape is answered `rejected`
//                       so the edge falls back to its local copy.
//
// Run:  ./cloud_stub --listen=uds:/tmp/appeal-cloud.sock
//       ./cloud_stub --listen=tcp:127.0.0.1:9410 --scorer=echo
//       ./cloud_stub --scorer=network --weights=big.apnw --workers=2
//       [--scorer=synthetic] [--accuracy=0.97] [--classes=10] [--seed=42]
//       [--workers=1] [--max_cloud_batch=16] [--shed_expired=1]
//       [--max_queue_depth=4096] [--max_batch_queue_depth=0]
//       [--shed_projected=1] [--metrics=<port|uds-path>]
//
// --metrics serves the stub's registry instruments (appeals received,
// scored/expired/overloaded, work-queue depth) as a Prometheus /metrics
// endpoint for the lifetime of the process.
#include <csignal>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>

#include "models/model_spec.hpp"
#include "obs/exporter.hpp"
#include "obs/metrics.hpp"
#include "serve/cloud_model.hpp"
#include "serve/transport/stub_server.hpp"
#include "serve/transport/synthetic_scorer.hpp"
#include "util/config.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void handle_signal(int) { g_stop = 1; }

appeal::serve::stub_server_config parse_listen(const std::string& spec) {
  appeal::serve::stub_server_config cfg;
  if (spec.rfind("uds:", 0) == 0) {
    cfg.kind = appeal::serve::transport_kind::uds;
    cfg.endpoint = spec.substr(4);
  } else if (spec.rfind("tcp:", 0) == 0) {
    cfg.kind = appeal::serve::transport_kind::tcp;
    cfg.endpoint = spec.substr(4);
  } else {
    throw appeal::util::error(
        "--listen must be uds:<path> or tcp:<host:port>, got '" + spec + "'");
  }
  return cfg;
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace appeal;
  const util::config args = util::config::from_args(argc, argv);
  util::set_log_level(util::log_level::info);

  serve::stub_server_config cfg = parse_listen(
      args.get_string_or("listen", "uds:/tmp/appeal-cloud.sock"));
  cfg.workers = static_cast<std::size_t>(args.get_int_or("workers", 1));
  cfg.max_cloud_batch =
      static_cast<std::size_t>(args.get_int_or("max_cloud_batch", 16));
  cfg.shed_expired = args.get_bool_or("shed_expired", true);
  cfg.max_queue_depth =
      static_cast<std::size_t>(args.get_int_or("max_queue_depth", 4096));
  cfg.max_batch_queue_depth =
      static_cast<std::size_t>(args.get_int_or("max_batch_queue_depth", 0));
  cfg.shed_projected = args.get_bool_or("shed_projected", true);
  const std::string scorer_name = args.get_string_or("scorer", "synthetic");
  const auto classes =
      static_cast<std::size_t>(args.get_int_or("classes", 10));
  const double accuracy = args.get_double_or("accuracy", 0.97);
  const auto seed = static_cast<std::uint64_t>(args.get_int_or("seed", 42));

  serve::stub_server::scorer_fn scorer;
  serve::stub_server::scorer_factory factory;
  if (scorer_name == "synthetic") {
    scorer = [=](const serve::wire::appeal_record& a) {
      return serve::transport::synthetic_big_prediction(
          a.key, static_cast<std::size_t>(a.label), classes, seed, accuracy);
    };
  } else if (scorer_name == "echo") {
    scorer = [=](const serve::wire::appeal_record& a) {
      return a.label < classes ? static_cast<std::size_t>(a.label)
                               : static_cast<std::size_t>(a.key % classes);
    };
  } else if (scorer_name == "argmax") {
    scorer = [=](const serve::wire::appeal_record& a) {
      if (a.input.empty()) return static_cast<std::size_t>(a.key % classes);
      std::size_t best = 0;
      for (std::size_t i = 1; i < a.input.size(); ++i) {
        if (a.input[i] > a.input[best]) best = i;
      }
      return best % classes;
    };
  } else if (scorer_name == "network") {
    serve::cloud_model_config model_cfg;
    model_cfg.spec.family =
        models::parse_family(args.get_string_or("family", "resnet"));
    model_cfg.spec.depth =
        static_cast<std::size_t>(args.get_int_or("depth", 2));
    model_cfg.spec.width =
        static_cast<float>(args.get_double_or("width", 1.0));
    model_cfg.spec.image_size =
        static_cast<std::size_t>(args.get_int_or("image_size", 16));
    model_cfg.spec.num_classes = classes;
    model_cfg.init_seed =
        static_cast<std::uint64_t>(args.get_int_or("init_seed", 0xB16));
    model_cfg.weights_path = args.get_string_or("weights", "");
    factory = serve::make_network_scorer_factory(model_cfg);
  } else {
    std::fprintf(stderr,
                 "unknown --scorer=%s (want synthetic|echo|argmax|network)\n",
                 scorer_name.c_str());
    return 1;
  }

  serve::stub_server server =
      factory != nullptr ? serve::stub_server(cfg, std::move(factory))
                         : serve::stub_server(cfg, std::move(scorer));
  server.start();
  std::unique_ptr<obs::metrics_http_server> metrics_server;
  const std::string metrics_endpoint = args.get_string_or("metrics", "");
  if (!metrics_endpoint.empty()) {
    metrics_server = std::make_unique<obs::metrics_http_server>(
        obs::default_registry(), metrics_endpoint);
    std::printf("cloud_stub metrics on %s (port %u)\n",
                metrics_endpoint.c_str(),
                static_cast<unsigned>(metrics_server->port()));
  }
  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  // Built as a named local: the previous printf passed a temporary
  // std::string's c_str() through the argument list, a dangling pointer
  // by the time printf read it.
  std::string endpoint_desc = cfg.endpoint;
  if (cfg.kind == serve::transport_kind::tcp) {
    endpoint_desc += " port " + std::to_string(server.tcp_port());
  }
  std::printf(
      "cloud_stub listening on %s:%s (scorer %s, %zu classes, %zu workers, "
      "cloud batch %zu)\n",
      serve::transport_kind_name(cfg.kind), endpoint_desc.c_str(),
      scorer_name.c_str(), classes, cfg.workers, cfg.max_cloud_batch);
  std::fflush(stdout);

  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  server.stop();
  const serve::stub_server_counters c = server.counters();
  std::printf(
      "cloud_stub served %zu appeals in %zu frames over %zu connections: "
      "%zu scored in %zu cloud batches, %zu shed expired, %zu shed at the "
      "full queue, %zu shed on projected deadline misses "
      "(%zu B in / %zu B out)\n",
      c.appeals, c.batches, c.connections, c.scored, c.cloud_batches,
      c.expired, c.overloaded, c.projected, c.bytes_received, c.bytes_sent);
  return 0;
} catch (const std::exception& e) {
  // Bad flags, unbindable endpoint, missing/mismatched weights: a usable
  // message and a nonzero exit, not std::terminate.
  std::fprintf(stderr, "cloud_stub: %s\n", e.what());
  return 1;
}
