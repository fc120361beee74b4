// The online edge/cloud collaborative inference engine (one shard).
//
// The engine is a chain of four stages (src/serve/pipeline/):
//
//   submit() -> [ingress]       admission verdict (block / shed / degrade)
//            -> [edge_infer]    worker pool, one edge_backend per thread;
//                               each worker forms its own batch from the
//                               request_queue
//            -> [appeal_decide] deadline check + score >= δ, inline on
//                               the worker that scored the batch
//            -> [cloud_appeal]  cloud_channel -> cloud_backend, handed
//                               off on the same worker
//
// Requests leave the graph (promise fulfilled, serve_stats fed) at three
// egress points: ingress (admission shed), appeal_decide (edge-kept,
// degraded, and expired), and cloud_appeal (appeals, including
// cloud-expired ones). The request_queue is bounded, so overload backs
// up until admission sheds at the front door. Decided appeals wait in the
// cloud_channel's pending queue, which is unbounded; admission tightens
// only on cloud_channel::under_pressure(). Per-node in/out/egress ledgers
// (appeal_node_* metrics) let a scrape pinpoint the stage where traffic
// leaks. The engine itself is stage assembly + config + the completion
// path; the threshold_controller watches per-batch scores and steers δ
// toward the configured skipping-rate target (or latency SLO).
//
// Ownership: engine_resources says what the engine owns vs shares. A
// standalone engine owns its channel/controller/stats; a serve::deployment
// shard shares the deployment's cloud_channel, threshold_controller (the
// per-deployment δ), and serve_stats (the per-deployment aggregation
// point).
//
// Threading: `num_workers` edge-infer threads (one backend per worker so
// stateful backends such as network_edge_backend stay single-threaded,
// each with its thread-local nn::inference_workspace arena) take turns
// forming a batch, then run the forward, the δ decision and the appeal
// hand-off on their own thread; the channel's transport threads complete
// the picture.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <vector>

#include "collab/cost_model.hpp"
#include "obs/trace.hpp"
#include "serve/admission.hpp"
#include "serve/backends.hpp"
#include "serve/batcher.hpp"
#include "serve/cloud_channel.hpp"
#include "serve/pipeline/pipeline_node.hpp"
#include "serve/pipeline/stage_nodes.hpp"
#include "serve/request_queue.hpp"
#include "serve/serve_stats.hpp"
#include "serve/threshold_controller.hpp"

namespace appeal::serve {

/// Builds the edge backend for one worker (`worker` indexes the pool).
using worker_edge_factory =
    std::function<std::unique_ptr<edge_backend>(std::size_t worker)>;

struct engine_config {
  batch_policy batching;
  std::size_t num_workers = 2;
  std::size_t queue_capacity = 1024;
  admission_config admission;     // full-queue policy at submit()
  threshold_config threshold;
  collab::cost_model link;        // cost model: edge/cloud compute + uplink
  /// Cloud-link setup: transport (sim | uds | tcp), endpoint, coalescing
  /// window/cap, and the simulator's time_scale.
  link_config channel;
  serve_stats_config stats;
  /// When true, each batch also pays the modeled edge compute time
  /// (edge_mflops / edge_gflops, scaled by channel.time_scale) — the batch
  /// runs as one parallel pass on the edge accelerator.
  bool simulate_edge_compute = false;
  /// Stamped into response::shard; set by the owning deployment.
  std::size_t shard_id = 0;
  /// Fraction of requests that get a trace span (0 = tracing off,
  /// 1 = every request; 0.01 traces every 100th). Sampled spans are
  /// stamped at each stage boundary and land in obs::default_collector().
  double trace_sample_rate = 0.0;
  /// When > 0, sets ops::set_gemm_threads at engine construction — the
  /// intra-GEMM parallelism of this engine's edge forwards. The setting
  /// is PROCESS-GLOBAL (one shared pool under every backend), so the
  /// last-constructed engine wins; conflicting values are logged and the
  /// winner is exported as the appeal_gemm_threads gauge so a scrape
  /// shows what is in force.
  std::size_t gemm_threads = 0;
};

/// Everything an engine runs on, bundled so one constructor covers the
/// owned-vs-shared matrix the three legacy constructors hardwired.
/// Members left unset are built by the engine from its engine_config:
///
///   edge   — either `shared_edge` (one thread-safe backend used by every
///            worker; must be thread-safe or num_workers == 1) or
///            `owned_edge` (exactly one backend per worker, engine-owned);
///   cloud  — when `shared_channel` is set the backends here are ignored
///            (the channel already has one); otherwise the engine builds
///            its own cloud_channel over `shared_cloud` or `owned_cloud`;
///   shared_controller / shared_stats — deployment mode: the engine
///            records into the deployment's shared instances and
///            cfg.threshold / cfg.stats are not used to build anything.
///
/// Use the named factories below rather than filling fields by hand.
struct engine_resources {
  std::vector<std::unique_ptr<edge_backend>> owned_edge;
  edge_backend* shared_edge = nullptr;
  std::unique_ptr<cloud_backend> owned_cloud;
  cloud_backend* shared_cloud = nullptr;
  cloud_channel* shared_channel = nullptr;
  threshold_controller* shared_controller = nullptr;
  serve_stats* shared_stats = nullptr;

  /// Single shared edge backend + shared cloud backend, nothing owned —
  /// the minimal single-model test setup.
  static engine_resources standalone(edge_backend& edge, cloud_backend& cloud);

  /// Invokes the factories (edge once per worker, cloud once); the
  /// engine keeps the backends alive for its lifetime.
  static engine_resources owning(
      const engine_config& cfg, const worker_edge_factory& edge_factory,
      const std::function<std::unique_ptr<cloud_backend>()>& cloud_factory);

  /// Deployment shard: owns its per-worker edge backends, shares the
  /// deployment's channel, δ controller, and stats sink.
  static engine_resources shard(
      std::vector<std::unique_ptr<edge_backend>> per_worker_edge,
      cloud_channel& channel, threshold_controller& controller,
      serve_stats& stats);
};

class engine {
 public:
  /// The one constructor: cfg describes the graph, res supplies (or
  /// names) what it runs on. See engine_resources for the resolution
  /// rules.
  engine(const engine_config& cfg, engine_resources&& res);

  ~engine();

  /// Convenience wrapper over submit(inference_request&&): interactive
  /// priority, no deadline, no model (this engine IS the routing target).
  std::future<response> submit(tensor input, std::uint64_t key,
                               std::size_t label = request::no_label) {
    inference_request req;
    req.input = std::move(input);
    req.key = key;
    req.label = label;
    return submit(std::move(req));
  }

  /// Full-control submission (priority class, relative deadline) under
  /// the configured admission policy. `block` waits for queue space;
  /// `shed` and `edge_only` never block — a refused request resolves its
  /// future immediately with request_status::shed. The `model` field is
  /// ignored here: routing happened above (serve::server picked the
  /// deployment, the deployment picked this shard and strips the field).
  /// Throws util::error after shutdown.
  std::future<response> submit(inference_request&& req);

  /// Blocks until every submitted request has completed.
  void drain();

  /// Stops accepting work, lets the edge workers drain the request
  /// queue, joins them, and waits out the appeals they handed to the
  /// channel. Idempotent; also invoked by the destructor.
  void shutdown();

  const serve_stats& stats() const { return *stats_; }

  /// The stats sink's snapshot (the deployment-wide one in shard mode),
  /// cloud-link counters included.
  stats_snapshot snapshot() const { return stats_->snapshot(); }

  /// Per-node conservation ledgers (in/out/egress per pipeline stage),
  /// in topological order. Once drained: in == out + egress at every
  /// node and the egress sum equals the submitted count.
  std::vector<pipeline::node_stats> node_stats() const {
    return {ingress_node_.stats(), edge_node_.stats(), decide_node_.stats(),
            cloud_node_.stats()};
  }

  /// The cloud link this engine appeals over (shared across shards when
  /// the engine belongs to a deployment).
  const cloud_channel& channel() const { return *channel_; }

  /// Opens a new stats window (counters, latency buckets, clock, and the
  /// cloud-link counters together) — call after a warmup phase, with no
  /// requests in flight. In shard mode this resets the deployment-wide
  /// sink. The threshold controller keeps its state.
  void reset_stats() { stats_->reset(); }
  threshold_controller& controller() { return *controller_; }
  const admission_controller& admission() const { return admission_; }
  const engine_config& config() const { return config_; }

  /// Approximate instantaneous queue depth (the least-loaded router's
  /// load signal; lock-free so routing never touches the queue mutex).
  std::size_t queue_depth() const { return queue_.approx_size(); }

 private:
  void complete(request&& r, response&& resp);
  pipeline::complete_fn completion();

  engine_config config_;
  obs::trace_sampler sampler_;  // every-Nth from config_.trace_sample_rate
  std::vector<std::unique_ptr<edge_backend>> owned_edge_;
  std::unique_ptr<cloud_backend> owned_cloud_;
  std::vector<edge_backend*> edge_backends_;
  request_queue queue_;
  std::unique_ptr<cloud_channel> owned_channel_;
  cloud_channel* channel_;
  std::unique_ptr<threshold_controller> owned_controller_;
  std::unique_ptr<serve_stats> owned_stats_;
  threshold_controller* controller_;
  serve_stats* stats_;
  admission_controller admission_;

  std::atomic<std::uint64_t> next_id_{0};
  std::atomic<std::size_t> outstanding_{0};
  std::mutex drain_mutex_;
  std::condition_variable drained_;
  bool shut_down_ = false;
  std::mutex shutdown_mutex_;

  // The stages, downstream first so each upstream node can take a
  // reference to its successor at construction.
  pipeline::cloud_appeal_node cloud_node_;
  pipeline::appeal_decide_node decide_node_;
  pipeline::edge_infer_node edge_node_;
  pipeline::ingress_node ingress_node_;
};

}  // namespace appeal::serve
