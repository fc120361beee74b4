#include "workload.hpp"

#include <algorithm>
#include <functional>
#include <utility>

#include "quant/quantize.hpp"
#include "serve/backends.hpp"
#include "serve/cloud_model.hpp"
#include "serve/transport/synthetic_scorer.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

namespace serve = appeal::serve;
using appeal::shape;
using appeal::tensor;

constexpr std::size_t kClasses = 10;
constexpr double kBigAccuracy = 0.97;
constexpr std::size_t kCalibration = 256;
constexpr std::size_t kChunk = 16;

/// The big model every workload appeals to: the stub's scorer, the local
/// fallback and the reference all answer with it. (The real cloud ResNet
/// ties every end-to-end number to the host's speed spells; its cost is
/// timed layer by layer in the traced run instead.)
std::size_t synthetic_big(std::uint64_t key, std::size_t label,
                          std::uint64_t seed) {
  return serve::transport::synthetic_big_prediction(key, label, kClasses, seed,
                                                    kBigAccuracy);
}

class synthetic_cloud final : public serve::cloud_backend {
 public:
  explicit synthetic_cloud(std::uint64_t seed) : seed_(seed) {}
  std::size_t infer(const serve::request& r) override {
    return synthetic_big(r.key, r.label, seed_);
  }

 private:
  std::uint64_t seed_;
};

std::unique_ptr<serve::edge_backend> make_edge_backend(
    const workload_config& cfg, const reference& ref) {
  if (cfg.edge == "replay") {
    return std::make_unique<serve::replay_edge_backend>(ref.little, ref.scores);
  }
  return std::make_unique<serve::network_edge_backend>(
      make_edge_net(cfg, ref.calibration),
      appeal::core::score_method::appealnet_q);
}

serve::stub_server::scorer_factory make_scorer_factory(std::uint64_t seed) {
  return [seed](std::size_t) -> serve::stub_server::batch_scorer_fn {
    return [seed](const std::vector<const serve::wire::appeal_record*>& batch) {
      std::vector<std::size_t> out;
      out.reserve(batch.size());
      for (const serve::wire::appeal_record* a : batch) {
        out.push_back(
            synthetic_big(a->key, static_cast<std::size_t>(a->label), seed));
      }
      return out;
    };
  };
}

/// δ halfway between the scores ranked just inside and just outside the
/// target skip rate, so no reference score sits on the threshold.
double midpoint_delta(std::vector<double> scores, double skip_rate) {
  std::sort(scores.begin(), scores.end(), std::greater<>());
  const auto keep = static_cast<std::size_t>(
      skip_rate * static_cast<double>(scores.size()) + 0.5);
  APPEAL_CHECK(keep > 0 && keep < scores.size(),
               "skip rate must keep some requests and appeal some");
  return 0.5 * (scores[keep - 1] + scores[keep]);
}

void replay_tables(reference& ref, std::size_t n, std::uint64_t seed) {
  appeal::util::rng gen(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const bool little_right = gen.bernoulli(0.8);
    const std::size_t label = ref.pool.labels[i];
    ref.little[i] = little_right ? label : (label + 1) % kClasses;
    ref.scores[i] = little_right ? 0.5 + 0.5 * gen.uniform()
                                 : 0.7 * gen.uniform();
  }
}

void network_tables(reference& ref, const workload_config& cfg,
                    std::uint64_t seed) {
  const appeal::core::two_head_config net_cfg = edge_net_config();
  const std::size_t c = net_cfg.spec.in_channels;
  const std::size_t hw = net_cfg.spec.image_size;
  const std::size_t n = ref.pool.size();
  appeal::util::rng gen(seed);
  ref.pool.images.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    ref.pool.images.push_back(
        tensor::rand_uniform(shape{c, hw, hw}, gen, -1.0F, 1.0F));
  }
  const std::size_t calib = std::min(kCalibration, n);
  ref.calibration = tensor(shape{calib, c, hw, hw});
  for (std::size_t i = 0; i < calib; ++i) {
    std::copy(ref.pool.images[i].values().begin(),
              ref.pool.images[i].values().end(),
              ref.calibration.data() + i * c * hw * hw);
  }
  // The same backend class the workers serve, fed batches of requests.
  serve::network_edge_backend edge(make_edge_net(cfg, ref.calibration),
                                   appeal::core::score_method::appealnet_q);
  for (std::size_t begin = 0; begin < n; begin += kChunk) {
    const std::size_t end = std::min(begin + kChunk, n);
    std::vector<serve::request> batch(end - begin);
    for (std::size_t i = begin; i < end; ++i) {
      batch[i - begin].key = i;
      batch[i - begin].input = ref.pool.images[i];
    }
    const serve::edge_inference out = edge.infer(batch);
    for (std::size_t i = begin; i < end; ++i) {
      ref.little[i] = out.predictions[i - begin];
      ref.scores[i] = out.scores[i - begin];
    }
  }
}

}  // namespace

appeal::core::two_head_config edge_net_config() {
  appeal::core::two_head_config cfg;
  cfg.spec.family = appeal::models::model_family::mobilenet;
  cfg.spec.image_size = 16;
  cfg.spec.num_classes = kClasses;
  cfg.init_seed = 0x5EED;
  return cfg;
}

std::unique_ptr<appeal::core::two_head_network> make_edge_net(
    const workload_config& cfg, const tensor& calibration) {
  auto net = std::make_unique<appeal::core::two_head_network>(edge_net_config());
  if (cfg.edge == "int8") {
    appeal::quant::quantize_two_head(*net, calibration);
  } else {
    net->prepare_for_inference();
  }
  return net;
}

serve::cloud_model_config cloud_model() {
  serve::cloud_model_config big;
  const appeal::core::two_head_config edge = edge_net_config();
  big.spec.image_size = edge.spec.image_size;
  big.spec.num_classes = edge.spec.num_classes;
  return big;
}

reference build_reference(const workload_config& cfg, std::uint64_t seed) {
  reference ref;
  const std::size_t n = cfg.pool;
  ref.pool.model = cfg.name;
  ref.pool.labels.resize(n);
  for (std::size_t i = 0; i < n; ++i) ref.pool.labels[i] = i % kClasses;
  ref.little.resize(n);
  ref.scores.resize(n);
  if (cfg.edge == "replay") {
    replay_tables(ref, n, seed);
  } else {
    network_tables(ref, cfg, seed);
  }
  ref.delta = midpoint_delta(ref.scores, cfg.skip_rate);
  ref.pool.to_cloud.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    ref.pool.to_cloud[i] = ref.scores[i] >= ref.delta ? 0 : 1;
  }

  // The big model only answers what the little one appeals.
  ref.big.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    if (ref.pool.to_cloud[i] != 0) {
      ref.big[i] = synthetic_big(i, ref.pool.labels[i], seed);
    }
  }
  return ref;
}

serving_stack::serving_stack(const workload_config& cfg, const reference& ref,
                             std::uint64_t seed, const std::string& endpoint,
                             span_log* spans) {
  serve::stub_server_config stub_cfg;
  stub_cfg.kind = serve::transport_kind::uds;
  stub_cfg.endpoint = endpoint;
  stub_cfg.workers = cfg.stub_workers;
  serve::stub_server::scorer_factory scorer = make_scorer_factory(seed);
  if (spans != nullptr) scorer = traced(std::move(scorer), *spans);
  stub_ = std::make_unique<serve::stub_server>(stub_cfg, std::move(scorer));
  stub_->start();

  serve::deployment_config dep;
  dep.shards = 1;
  dep.shard.num_workers = 2;
  dep.shard.batching.max_batch_size = 16;
  dep.shard.batching.max_wait = std::chrono::microseconds(200);
  dep.shard.queue_capacity = 1024;
  dep.shard.admission.policy = serve::admission_policy::block;
  dep.shard.threshold.adapt = serve::threshold_config::mode::fixed;
  dep.shard.threshold.initial_delta = ref.delta;
  dep.shard.channel.transport = serve::transport_kind::uds;
  dep.shard.channel.endpoint = endpoint;
  dep.shard.simulate_edge_compute = false;
  dep.shard.trace_sample_rate = 0.0;
  dep.precision = cfg.edge == "int8" ? serve::edge_precision::int8
                                     : serve::edge_precision::fp32;
  dep.edge_weight_bits = cfg.edge == "int8" ? 8 : 32;

  const serve::edge_backend_factory edge = [&cfg, &ref, spans](std::size_t,
                                                               std::size_t) {
    std::unique_ptr<serve::edge_backend> backend = make_edge_backend(cfg, ref);
    return spans != nullptr ? traced(std::move(backend), *spans)
                            : std::move(backend);
  };
  const serve::cloud_backend_factory cloud = [seed, spans] {
    std::unique_ptr<serve::cloud_backend> backend =
        std::make_unique<synthetic_cloud>(seed);
    return spans != nullptr ? traced(std::move(backend), *spans)
                            : std::move(backend);
  };
  deployment_ = &server_->register_deployment(cfg.name, dep, edge, cloud);
}

serving_stack::~serving_stack() {
  // The deployment goes first: a link that outlives the stub would see the
  // stub's shutdown as a mid-run failure.
  server_.reset();
  stub_->stop();
}

}  // namespace perfbench
