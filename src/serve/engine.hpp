// The online edge/cloud collaborative inference engine: everything one
// deployment serves with.
//
// A request takes four steps, each with its own request ledger:
//
//   submit()   [ingress]       admission verdict (block / shed / degrade)
//                              at the bounded request_queue
//   worker()   [edge_infer]    one thread per edge backend; each worker
//                              forms its own batch from the request_queue,
//                              splits off expired members and runs the
//                              two-head forward
//   decide()   [appeal_decide] deadline check + score >= δ, on the worker
//                              that scored the batch
//   appeal()   [cloud_appeal]  hands the raw input to the cloud_channel,
//                              on the same worker
//
// Requests complete (promise fulfilled, serve_stats fed) at three points:
// submit (admission shed), decide (edge-kept, degraded, and expired), and
// the channel's completion callback (appeals, including cloud-expired
// ones). The request_queue is bounded, so overload backs up until
// admission sheds at the front door. Decided appeals wait in the
// cloud_channel's pending queue, which is unbounded; admission tightens
// only on cloud_channel::under_pressure(). The ledgers (appeal_node_*
// metrics) let a scrape pinpoint the step where traffic leaks. The
// threshold_controller watches per-batch scores and steers δ toward the
// configured skipping-rate target (or latency SLO).
//
// Trace-stage attribution: queue_wait runs from submit to the dequeue
// that took the request into a batch, batch_form from there to the
// forward's start, edge_infer covers the forward, decide the δ decision,
// and complete()'s `complete` residual absorbs everything else, so the
// stages of a span always sum to its total.
//
// Ownership: the engine always owns its cloud_channel (the one uplink),
// threshold_controller (the one δ) and serve_stats (the one ledger).
// engine_resources only says whether the edge and cloud backends are
// owned or borrowed.
//
// Threading: `num_workers` edge threads (one backend per worker so
// stateful backends such as network_edge_backend stay single-threaded,
// each with its thread-local nn::inference_workspace arena). A form mutex
// lets one worker form a batch at a time, so the queue keeps a single
// consumer and two waiting workers never split one batch; it is released
// before the forward, so while one worker infers the next forms. The
// channel's transport threads run the appeal completions.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "collab/cost_model.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/admission.hpp"
#include "serve/backends.hpp"
#include "serve/batcher.hpp"
#include "serve/cloud_channel.hpp"
#include "serve/request_queue.hpp"
#include "serve/serve_stats.hpp"
#include "serve/threshold_controller.hpp"

namespace appeal::serve {

namespace pipeline {

/// Point-in-time view of one step's request ledger. Counts are requests,
/// not batches. Once drained: in == out + egress at every step, each
/// step's out equals the next step's in, and the egress sum equals the
/// submitted count.
struct node_stats {
  std::string name;
  std::uint64_t in = 0;      // requests that entered the step
  std::uint64_t out = 0;     // requests handed to the next step
  std::uint64_t egress = 0;  // requests completed (promise fulfilled) here
};

}  // namespace pipeline

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

/// The backends an engine runs on. Everything else (channel, δ
/// controller, stats) the engine builds from its engine_config:
///
///   edge   — either `shared_edge` (one thread-safe backend used by every
///            worker; must be thread-safe or num_workers == 1) or
///            `owned_edge` (exactly one backend per worker, engine-owned);
///   cloud  — either `shared_cloud` or `owned_cloud`, scored behind the
///            engine's cloud_channel.
///
/// Use the named factories below rather than filling fields by hand.
struct engine_resources {
  std::vector<std::unique_ptr<edge_backend>> owned_edge;
  edge_backend* shared_edge = nullptr;
  std::unique_ptr<cloud_backend> owned_cloud;
  cloud_backend* shared_cloud = nullptr;

  /// Single shared edge backend + shared cloud backend, nothing owned —
  /// the minimal single-model test setup.
  static engine_resources standalone(edge_backend& edge, cloud_backend& cloud);

  /// Invokes the factories (edge once per worker, cloud once); the
  /// engine keeps the backends alive for its lifetime.
  static engine_resources owning(
      const engine_config& cfg, const worker_edge_factory& edge_factory,
      const std::function<std::unique_ptr<cloud_backend>()>& cloud_factory);
};

class engine {
 public:
  /// cfg describes the engine, res supplies the backends it runs on.
  /// `link_name` names the cloud channel: the {link} label on its
  /// instruments and the `model` field of its wire frames (a deployment
  /// passes its own name; empty for a standalone engine).
  engine(const engine_config& cfg, engine_resources&& res,
         std::string link_name = "");

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
  /// ignored here: serve::server already picked the deployment, which
  /// strips the field.
  /// Throws util::error after shutdown.
  std::future<response> submit(inference_request&& req);

  /// Blocks until every submitted request has completed.
  void drain();

  /// Stops accepting work, lets the edge workers drain the request
  /// queue, joins them, and waits out the appeals they handed to the
  /// channel. Idempotent; also invoked by the destructor.
  void shutdown();

  const serve_stats& stats() const { return stats_; }

  /// Snapshot since the last reset_stats(), cloud-link counters included.
  stats_snapshot snapshot() const { return stats_.snapshot(); }

  /// The four request ledgers (ingress, edge_infer, appeal_decide,
  /// cloud_appeal), in that order. Once shut down: in == out + egress at
  /// every step and the egress sum equals the submitted count.
  std::vector<pipeline::node_stats> node_stats() const {
    return {ingress_.stats(), edge_.stats(), decide_.stats(),
            cloud_.stats()};
  }

  /// Opens a new stats window (counters, latency buckets, clock, and the
  /// cloud-link counters together) — call after a warmup phase, with no
  /// requests in flight. The threshold controller keeps its state.
  void reset_stats() { stats_.reset(); }
  threshold_controller& controller() { return controller_; }
  const cloud_channel& channel() const { return channel_; }
  const admission_controller& admission() const { return admission_; }

 private:
  /// One step's in/out/egress request counts: a local atomic per column
  /// (what node_stats() reads) mirrored into the registry as
  /// appeal_node_{in,out,egress}_total{deployment,node}.
  class ledger {
   public:
    ledger(const char* name, const std::string& deployment);
    void in(std::uint64_t n = 1) { in_.add(n); }
    void out(std::uint64_t n = 1) { out_.add(n); }
    void egress(std::uint64_t n = 1) { egress_.add(n); }
    pipeline::node_stats stats() const {
      return {name_, in_.local.load(std::memory_order_relaxed),
              out_.local.load(std::memory_order_relaxed),
              egress_.local.load(std::memory_order_relaxed)};
    }

   private:
    struct column {
      explicit column(obs::counter& m) : metric(m) {}
      void add(std::uint64_t n) {
        local.fetch_add(n, std::memory_order_relaxed);
        metric.add(n);
      }
      std::atomic<std::uint64_t> local{0};
      obs::counter& metric;
    };
    std::string name_;
    column in_, out_, egress_;
  };

  /// One edge worker: forms a batch under the form mutex, splits off the
  /// members whose deadline passed in the queue, runs the forward and
  /// hands the batch to decide(). Returns once the queue is closed and
  /// drained.
  void worker(edge_backend& backend);
  /// The AppealNet decision for one scored batch: one δ for the batch;
  /// expired members complete as expired, the rest stay on the edge
  /// (score >= δ, or degraded admission) or appeal. The controller sees
  /// the scores of the δ-decided (not degraded) members in arrival order.
  void decide(std::vector<request>& expired, std::vector<request>& live,
              const edge_inference& inference,
              std::chrono::steady_clock::time_point infer_end);
  /// Hands `r` to the channel without waiting; the channel's completion
  /// callback completes it with the decision context.
  void appeal(request&& r, double score, double delta, double queue_ms);
  void complete(request&& r, response&& resp);

  engine_config config_;
  obs::trace_sampler sampler_;  // every-Nth from config_.trace_sample_rate
  std::vector<std::unique_ptr<edge_backend>> owned_edge_;
  std::unique_ptr<cloud_backend> owned_cloud_;
  std::vector<edge_backend*> edge_backends_;
  request_queue queue_;
  cloud_channel channel_;
  threshold_controller controller_;
  serve_stats stats_;  // windows channel_'s counters too
  admission_controller admission_;
  ledger ingress_;
  ledger edge_;
  ledger decide_;
  ledger cloud_;

  std::atomic<std::uint64_t> next_id_{0};
  std::atomic<std::size_t> outstanding_{0};
  std::mutex drain_mutex_;
  std::condition_variable drained_;
  bool shut_down_ = false;
  std::mutex shutdown_mutex_;
  std::mutex form_mutex_;  // one edge worker forms a batch at a time
  std::vector<std::thread> workers_;
};

}  // namespace appeal::serve
