// One named model deployment behind the serve::server facade.
//
// A deployment is a (little, big) pair served at scale: `shards` engine
// instances — each with its own request queue, batcher, and edge worker
// pool — behind one router, sharing one cloud_channel (a deployment has
// one uplink; appeals from every shard serialize on the same simulated
// radio), one per-deployment threshold_controller (δ adapts to the
// deployment's whole traffic, not per-shard slices of it), and one
// serve_stats aggregation point. Backends come from factories so each
// shard/worker gets its own instance (stateful network backends stay
// single-threaded) and the deployment owns everything it runs.
//
// Routing: `key_affine` hashes request.key onto a shard — the same key
// always lands on the same shard (cache affinity, per-key ordering);
// `least_loaded` picks the shard with the shallowest queue.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "serve/engine.hpp"

namespace appeal::serve {

/// Builds the edge backend for worker `worker` of shard `shard`.
using edge_backend_factory = std::function<std::unique_ptr<edge_backend>(
    std::size_t shard, std::size_t worker)>;
using cloud_backend_factory =
    std::function<std::unique_ptr<cloud_backend>()>;

/// How the router spreads a deployment's traffic over its shards.
enum class routing_policy { key_affine, least_loaded };

/// Numeric precision of the edge (little-network) inference path.
/// `fp32` serves the float network; `int8` serves the quant:: rewrite at
/// 8 bits everywhere; `autotuned` serves per-layer bit-widths chosen by
/// quant::autotune_bit_widths under an accuracy budget. The loader that
/// builds the edge backends performs the actual quantization (it owns the
/// calibration data); the deployment records the choice and exports it.
enum class edge_precision { fp32, int8, autotuned };

/// Parses "fp32" | "int8" | "auto"; throws on anything else.
edge_precision parse_edge_precision(const std::string& name);
const char* edge_precision_name(edge_precision p);

struct deployment_config {
  std::size_t shards = 1;
  /// Per-shard engine configuration. `shard.threshold` configures the
  /// per-deployment δ controller, `shard.link`/`shard.channel` the shared
  /// cloud uplink, `shard.stats` the shared stats sink, and
  /// `shard.admission` the admission policy applied at each shard's
  /// queue; `shard.shard_id` is overwritten per shard. The serving-scale
  /// knobs — `shard.num_workers` (edge threads per shard) and
  /// `shard.queue_capacity` (the request queue work waits in) — are
  /// validated by the deployment constructor; see validate().
  engine_config shard;
  routing_policy routing = routing_policy::key_affine;
  /// Edge inference precision (metadata: the edge backend factory must
  /// build matching backends). Exported as the appeal_edge_bits gauge.
  edge_precision precision = edge_precision::fp32;
  /// Narrowest weight bit-width the edge path deploys: 32 for fp32,
  /// quant_report::min_bits() for the quantized modes.
  int edge_weight_bits = 32;
};

/// Rejects configurations that would deadlock or serve nothing: zero
/// shards/workers, a zero-capacity request queue, a zero max batch
/// size. Throws util::error; the deployment constructor runs this before
/// building any resource.
/// (A cross-deployment `gemm_threads` conflict is NOT an error — the
/// pool is process-global and the last writer wins — but the engine logs
/// it instead of clobbering silently.)
void validate(const deployment_config& cfg);

class deployment {
 public:
  deployment(std::string name, const deployment_config& cfg,
             edge_backend_factory edge, cloud_backend_factory cloud);
  ~deployment();

  deployment(const deployment&) = delete;
  deployment& operator=(const deployment&) = delete;

  const std::string& name() const { return name_; }
  std::size_t num_shards() const { return engines_.size(); }

  /// The shard the router would send `key` to under key-affine routing.
  std::size_t shard_for_key(std::uint64_t key) const;

  /// Routes to a shard and submits under its admission policy.
  std::future<response> submit(inference_request&& req);

  /// Blocks until every submitted request has completed.
  void drain();

  /// Stops all shards and drains the shared channel. Idempotent.
  void shutdown();

  /// Per-deployment aggregated statistics (all shards record here).
  const serve_stats& stats() const { return stats_; }
  /// Snapshot since the last reset_stats(), shared cloud link included.
  stats_snapshot snapshot() const { return stats_.snapshot(); }
  void reset_stats() { stats_.reset(); }

  /// The deployment's one uplink (appeals from every shard coalesce on
  /// it).
  const cloud_channel& channel() const { return channel_; }

  threshold_controller& controller() { return controller_; }
  engine& shard(std::size_t i) { return *engines_.at(i); }
  const deployment_config& config() const { return config_; }

  /// Sum of admission-shed requests across shards (introspection; the
  /// canonical count is stats().snapshot().shed).
  std::size_t shed_total() const;

 private:
  std::string name_;
  deployment_config config_;
  std::unique_ptr<cloud_backend> cloud_;
  cloud_channel channel_;
  serve_stats stats_;  // windows channel_'s counters too
  threshold_controller controller_;
  std::vector<std::unique_ptr<engine>> engines_;
};

}  // namespace appeal::serve
