#include "serve/deployment.hpp"

#include <utility>

#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace appeal::serve {

namespace {

/// Validates `cfg`; the deployment's name becomes the {deployment=...}
/// label on its registry instruments unless the caller already chose one.
deployment_config labeled(deployment_config cfg, const std::string& name) {
  validate(cfg);
  if (cfg.shard.stats.deployment.empty()) cfg.shard.stats.deployment = name;
  return cfg;
}

engine_resources owned_backends(edge_backend_factory edge,
                                const cloud_backend_factory& cloud) {
  APPEAL_CHECK(edge != nullptr, "deployment needs an edge backend factory");
  APPEAL_CHECK(cloud != nullptr, "deployment needs a cloud backend factory");
  return engine_resources::owning(
      [edge = std::move(edge)](std::size_t worker) { return edge(0, worker); },
      cloud);
}

}  // namespace

void validate(const deployment_config& cfg) {
  APPEAL_CHECK(cfg.shards == 1, "a deployment serves with exactly one engine "
                                "(shards must be 1)");
  APPEAL_CHECK(cfg.shard.num_workers > 0,
               "a deployment needs at least one edge worker");
  APPEAL_CHECK(cfg.shard.queue_capacity > 0,
               "request queue capacity must be positive");
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
      config_(labeled(cfg, name_)),
      engine_(config_.shard, owned_backends(std::move(edge), cloud), name_) {
  // Every deployment exports the bit-width of its edge path, so a scrape
  // can tell a quantized deployment from a float one at a glance.
  obs::default_registry()
      .get_gauge("appeal_edge_bits",
                 {{"deployment", config_.shard.stats.deployment}},
                 "narrowest weight bit-width deployed on the edge path")
      .set(static_cast<double>(config_.edge_weight_bits));
}

std::future<response> deployment::submit(inference_request&& req) {
  // The model field's job ended when the server picked this deployment;
  // strip it here so nothing below can depend on it (and a replayed
  // request cannot smuggle a stale model name).
  req.model.clear();
  return engine_.submit(std::move(req));
}

engine& deployment::shard(std::size_t i) {
  APPEAL_CHECK(i == 0, "a deployment has one engine: shard(0)");
  return engine_;
}

}  // namespace appeal::serve
