#include "serve/deployment.hpp"

#include <limits>
#include <utility>

#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"

namespace appeal::serve {

namespace {

cloud_backend& require_cloud(const std::unique_ptr<cloud_backend>& cloud) {
  APPEAL_CHECK(cloud != nullptr, "deployment needs a cloud backend factory");
  return *cloud;
}

/// The deployment's name becomes the {deployment=...} label on its
/// registry instruments unless the caller already chose one.
serve_stats_config labeled_stats(serve_stats_config cfg,
                                 const std::string& name) {
  if (cfg.deployment.empty()) cfg.deployment = name;
  return cfg;
}

deployment_config validated(deployment_config cfg) {
  validate(cfg);
  return cfg;
}

}  // namespace

void validate(const deployment_config& cfg) {
  APPEAL_CHECK(cfg.shards > 0, "deployment needs at least one shard");
  APPEAL_CHECK(cfg.shard.num_workers > 0,
               "each shard needs at least one edge worker");
  APPEAL_CHECK(cfg.shard.queue_capacity > 0,
               "request queue capacity must be positive");
  APPEAL_CHECK(cfg.shard.pipeline.batch_queue_depth > 0,
               "pipeline batch_queue_depth must be positive");
  APPEAL_CHECK(cfg.shard.pipeline.decide_queue_depth > 0,
               "pipeline decide_queue_depth must be positive");
  APPEAL_CHECK(cfg.shard.pipeline.appeal_queue_depth > 0,
               "pipeline appeal_queue_depth must be positive");
  APPEAL_CHECK(cfg.shard.batching.max_batch_size > 0,
               "max_batch_size must be positive");
}

edge_precision parse_edge_precision(const std::string& name) {
  if (name == "fp32") return edge_precision::fp32;
  if (name == "int8") return edge_precision::int8;
  if (name == "auto") return edge_precision::autotuned;
  throw util::error("unknown edge precision: " + name +
                    " (expected fp32|int8|auto)");
}

const char* edge_precision_name(edge_precision p) {
  switch (p) {
    case edge_precision::fp32:
      return "fp32";
    case edge_precision::int8:
      return "int8";
    case edge_precision::autotuned:
      return "auto";
  }
  return "fp32";
}

deployment::deployment(std::string name, const deployment_config& cfg,
                       edge_backend_factory edge, cloud_backend_factory cloud)
    : name_(std::move(name)),
      config_(validated(cfg)),
      cloud_(cloud ? cloud() : nullptr),
      channel_(require_cloud(cloud_), config_.shard.link,
               config_.shard.channel, name_),
      stats_(labeled_stats(cfg.shard.stats, name_), &channel_),
      controller_(cfg.shard.threshold, &config_.shard.link) {
  APPEAL_CHECK(edge != nullptr, "deployment needs an edge backend factory");
  // Every deployment exports the bit-width of its edge path, so a scrape
  // can tell a quantized deployment from a float one at a glance.
  obs::default_registry()
      .get_gauge("appeal_edge_bits",
                 {{"deployment", labeled_stats(cfg.shard.stats, name_)
                                     .deployment}},
                 "narrowest weight bit-width deployed on the edge path")
      .set(static_cast<double>(config_.edge_weight_bits));
  engines_.reserve(config_.shards);
  for (std::size_t s = 0; s < config_.shards; ++s) {
    engine_config shard_cfg = config_.shard;
    shard_cfg.shard_id = s;
    // Shard mode ignores shard_cfg.stats for stats creation (the shared
    // sink above is the aggregation point), but its deployment name
    // labels the shard's per-node appeal_node_* ledgers — all shards
    // share one labeled instrument family, so conservation holds at
    // deployment granularity.
    shard_cfg.stats = labeled_stats(config_.shard.stats, name_);
    std::vector<std::unique_ptr<edge_backend>> per_worker;
    per_worker.reserve(shard_cfg.num_workers);
    for (std::size_t w = 0; w < shard_cfg.num_workers; ++w) {
      per_worker.push_back(edge(s, w));
      APPEAL_CHECK(per_worker.back() != nullptr,
                   "edge factory returned null");
    }
    engines_.push_back(std::make_unique<engine>(
        shard_cfg,
        engine_resources::shard(std::move(per_worker), channel_, controller_,
                                stats_)));
  }
}

deployment::~deployment() { shutdown(); }

std::size_t deployment::shard_for_key(std::uint64_t key) const {
  // Well-mixed stable hash so consecutive keys spread across shards
  // instead of striping.
  return static_cast<std::size_t>(util::mix64(key) % engines_.size());
}

std::future<response> deployment::submit(inference_request&& req) {
  // The model field's job ended when the server picked this deployment;
  // strip it at the routing boundary so nothing below can depend on it
  // (and a replayed request cannot smuggle a stale model name).
  req.model.clear();
  std::size_t target = 0;
  if (engines_.size() > 1) {
    if (config_.routing == routing_policy::key_affine) {
      target = shard_for_key(req.key);
    } else {
      std::size_t best = std::numeric_limits<std::size_t>::max();
      for (std::size_t s = 0; s < engines_.size(); ++s) {
        const std::size_t depth = engines_[s]->queue_depth();
        if (depth < best) {
          best = depth;
          target = s;
        }
      }
    }
  }
  return engines_[target]->submit(std::move(req));
}

void deployment::drain() {
  for (auto& eng : engines_) eng->drain();
}

void deployment::shutdown() {
  // Each shard closes its queue, joins its workers, and drains the shared
  // channel (drain waits on *all* outstanding appeals, so the order of
  // shards does not matter).
  for (auto& eng : engines_) eng->shutdown();
}

std::size_t deployment::shed_total() const {
  std::size_t total = 0;
  for (const auto& eng : engines_) total += eng->admission().shed();
  return total;
}

}  // namespace appeal::serve
