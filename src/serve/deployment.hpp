// One named model deployment behind the serve::server facade.
//
// A deployment is a (little, big) pair served by exactly one engine: one
// request queue, N edge workers that each form their own batch from it,
// one cloud_channel (the deployment's uplink, named after the
// deployment), one threshold_controller (δ adapts to the deployment's
// whole traffic) and one serve_stats ledger labeled {deployment=...}.
// The deployment adds only what makes the engine a named tenant: config
// validation, the label default, the appeal_edge_bits gauge, and
// stripping the `model` field at its front door. Backends come from
// factories so each worker gets its own instance (stateful network
// backends stay single-threaded) and the deployment owns everything it
// runs.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>

#include "serve/engine.hpp"

namespace appeal::serve {

/// Builds the edge backend for edge worker `worker`. The first argument
/// is always 0; it is kept only because perfbench still passes a
/// two-argument factory.
using edge_backend_factory = std::function<std::unique_ptr<edge_backend>(
    std::size_t shard, std::size_t worker)>;
using cloud_backend_factory =
    std::function<std::unique_ptr<cloud_backend>()>;

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
  /// Must be 1; kept only because perfbench still sets it.
  std::size_t shards = 1;
  /// The deployment's engine configuration: `shard.threshold` configures
  /// its δ controller, `shard.link`/`shard.channel` its cloud uplink,
  /// `shard.stats` its stats ledger (the label defaults to the
  /// deployment's name), and `shard.admission` the admission policy at
  /// its request queue. The serving-scale knobs — `shard.num_workers`
  /// (edge threads) and `shard.queue_capacity` (the request queue work
  /// waits in) — are validated by the deployment constructor; see
  /// validate().
  engine_config shard;
  /// Edge inference precision (metadata: the edge backend factory must
  /// build matching backends). Exported as the appeal_edge_bits gauge.
  edge_precision precision = edge_precision::fp32;
  /// Narrowest weight bit-width the edge path deploys: 32 for fp32,
  /// quant_report::min_bits() for the quantized modes.
  int edge_weight_bits = 32;
};

/// Rejects configurations that would deadlock or serve nothing: zero
/// workers, a zero-capacity request queue, a zero max batch size; and
/// any `shards` other than 1. Throws util::error; the deployment
/// constructor runs this before building any resource.
/// (A cross-deployment `gemm_threads` conflict is NOT an error — the
/// pool is process-global and the last writer wins — but the engine logs
/// it instead of clobbering silently.)
void validate(const deployment_config& cfg);

class deployment {
 public:
  deployment(std::string name, const deployment_config& cfg,
             edge_backend_factory edge, cloud_backend_factory cloud);

  deployment(const deployment&) = delete;
  deployment& operator=(const deployment&) = delete;

  const std::string& name() const { return name_; }

  /// Submits to the engine under its admission policy.
  std::future<response> submit(inference_request&& req);

  /// Blocks until every submitted request has completed.
  void drain() { engine_.drain(); }

  /// Stops the engine and drains its channel. Idempotent.
  void shutdown() { engine_.shutdown(); }

  const serve_stats& stats() const { return engine_.stats(); }
  /// Snapshot since the last reset_stats(), cloud link included.
  stats_snapshot snapshot() const { return engine_.snapshot(); }
  void reset_stats() { engine_.reset_stats(); }

  /// The deployment's one uplink.
  const cloud_channel& channel() const { return engine_.channel(); }

  threshold_controller& controller() { return engine_.controller(); }
  /// The deployment's engine; `i` must be 0. Kept only because perfbench
  /// still reads shard(0).
  engine& shard(std::size_t i);
  const deployment_config& config() const { return config_; }

 private:
  std::string name_;
  deployment_config config_;
  engine engine_;
};

}  // namespace appeal::serve
