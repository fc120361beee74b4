#include "serve/engine.hpp"

#include <chrono>
#include <utility>

#include "obs/metrics.hpp"
#include "tensor/gemm.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace appeal::serve {

namespace {

using clock = std::chrono::steady_clock;

double ms_between(clock::time_point from, clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Applies cfg.gemm_threads (process-global, last writer wins) and keeps
/// the appeal_gemm_threads gauge telling the truth about what is in
/// force — whether this engine set it or an earlier one / the
/// APPEAL_GEMM_THREADS environment did. A conflicting request is logged
/// (with both deployments named) instead of silently clobbered.
void apply_gemm_threads(const engine_config& cfg) {
  if (cfg.gemm_threads > 0) {
    static std::mutex mutex;
    static std::size_t last_value = 0;
    static std::string last_owner;
    {
      std::lock_guard<std::mutex> lock(mutex);
      if (last_value != 0 && last_value != cfg.gemm_threads) {
        APPEAL_LOG_WARN("engine")
            << "gemm_threads conflict: the GEMM pool is process-global and "
               "the last writer wins"
            << util::kv("in_force", last_value)
            << util::kv("in_force_deployment", last_owner)
            << util::kv("requested", cfg.gemm_threads)
            << util::kv("deployment", cfg.stats.deployment);
      }
      last_value = cfg.gemm_threads;
      last_owner = cfg.stats.deployment;
    }
    ops::set_gemm_threads(cfg.gemm_threads);
  }
  obs::default_registry()
      .get_gauge("appeal_gemm_threads", {},
                 "intra-GEMM parallelism of edge forwards (process-global)")
      .set(static_cast<double>(ops::gemm_threads()));
}

/// Resolves the per-worker backend pointers from an engine_resources:
/// one shared backend fanned out, or exactly one owned backend per
/// worker.
std::vector<edge_backend*> resolve_edge_backends(
    edge_backend* shared, const std::vector<std::unique_ptr<edge_backend>>& owned,
    std::size_t num_workers) {
  APPEAL_CHECK(num_workers > 0, "engine needs at least one worker");
  std::vector<edge_backend*> backends;
  backends.reserve(num_workers);
  if (shared != nullptr) {
    APPEAL_CHECK(owned.empty(),
                 "engine_resources: shared_edge excludes owned_edge");
    backends.assign(num_workers, shared);
    return backends;
  }
  APPEAL_CHECK(owned.size() == num_workers,
               "one edge backend per worker required");
  for (const auto& backend : owned) {
    APPEAL_CHECK(backend != nullptr, "edge backend must not be null");
    backends.push_back(backend.get());
  }
  return backends;
}

/// Builds the engine-owned channel when no shared one was supplied.
std::unique_ptr<cloud_channel> resolve_channel(const engine_resources& res,
                                               cloud_backend* owned_cloud,
                                               const engine_config& cfg) {
  if (res.shared_channel != nullptr) return nullptr;
  cloud_backend* cloud =
      res.shared_cloud != nullptr ? res.shared_cloud : owned_cloud;
  APPEAL_CHECK(cloud != nullptr,
               "engine needs a cloud backend or a shared channel");
  return std::make_unique<cloud_channel>(*cloud, cfg.link, cfg.channel);
}

}  // namespace

engine_resources engine_resources::standalone(edge_backend& edge,
                                              cloud_backend& cloud) {
  engine_resources res;
  res.shared_edge = &edge;
  res.shared_cloud = &cloud;
  return res;
}

engine_resources engine_resources::owning(
    const engine_config& cfg, const worker_edge_factory& edge_factory,
    const std::function<std::unique_ptr<cloud_backend>()>& cloud_factory) {
  APPEAL_CHECK(edge_factory != nullptr && cloud_factory != nullptr,
               "engine backend factories must not be null");
  engine_resources res;
  res.owned_edge.reserve(cfg.num_workers);
  for (std::size_t w = 0; w < cfg.num_workers; ++w) {
    res.owned_edge.push_back(edge_factory(w));
  }
  res.owned_cloud = cloud_factory();
  APPEAL_CHECK(res.owned_cloud != nullptr, "cloud factory returned null");
  return res;
}

engine_resources engine_resources::shard(
    std::vector<std::unique_ptr<edge_backend>> per_worker_edge,
    cloud_channel& channel, threshold_controller& controller,
    serve_stats& stats) {
  engine_resources res;
  res.owned_edge = std::move(per_worker_edge);
  res.shared_channel = &channel;
  res.shared_controller = &controller;
  res.shared_stats = &stats;
  return res;
}

engine::engine(const engine_config& cfg, engine_resources&& res)
    : config_(cfg),
      sampler_(cfg.trace_sample_rate),
      owned_edge_(std::move(res.owned_edge)),
      owned_cloud_(std::move(res.owned_cloud)),
      edge_backends_(resolve_edge_backends(res.shared_edge, owned_edge_,
                                           cfg.num_workers)),
      queue_(cfg.queue_capacity),
      owned_channel_(resolve_channel(res, owned_cloud_.get(), config_)),
      channel_(res.shared_channel != nullptr ? res.shared_channel
                                             : owned_channel_.get()),
      owned_controller_(res.shared_controller != nullptr
                            ? nullptr
                            : std::make_unique<threshold_controller>(
                                  cfg.threshold, &config_.link)),
      owned_stats_(res.shared_stats != nullptr
                       ? nullptr
                       : std::make_unique<serve_stats>(cfg.stats, channel_)),
      controller_(res.shared_controller != nullptr ? res.shared_controller
                                                   : owned_controller_.get()),
      stats_(res.shared_stats != nullptr ? res.shared_stats
                                         : owned_stats_.get()),
      admission_(cfg.admission),
      cloud_node_(cfg.stats.deployment, *channel_, *controller_, cfg.shard_id,
                  completion()),
      decide_node_(cfg.stats.deployment, *controller_, cfg.shard_id,
                   cloud_node_, completion()),
      edge_node_(cfg.stats.deployment, queue_, cfg.batching, edge_backends_,
                 cfg.simulate_edge_compute,
                 config_.link.overall_latency_ms(1.0),
                 cfg.channel.time_scale, decide_node_),
      ingress_node_(cfg.stats.deployment, admission_, queue_, cfg.shard_id,
                    completion()) {
  apply_gemm_threads(config_);
  edge_node_.start();
}

engine::~engine() { shutdown(); }

pipeline::complete_fn engine::completion() {
  return [this](request&& r, response&& resp) {
    complete(std::move(r), std::move(resp));
  };
}

std::future<response> engine::submit(inference_request&& req) {
  request r;
  r.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  r.input = std::move(req.input);
  r.key = req.key;
  r.label = req.label;
  r.priority = req.priority;
  r.enqueue_time = clock::now();
  // Zero means "no deadline"; a negative remaining budget (client's SLO
  // already blown) becomes a deadline in the past and expires at dequeue.
  if (req.deadline.count() != 0) r.deadline = r.enqueue_time + req.deadline;
  r.trace = sampler_.sample(r.key, r.enqueue_time);
  std::future<response> future = r.promise.get_future();
  // Mirror the cloud link's health into admission: with the breaker open
  // or an overload streak in progress, batch headroom tightens and
  // edge_only degrades early instead of queueing appeals for a sick
  // uplink. Polled here (one relaxed load) rather than pushed so the
  // signal is fresh at every admission decision.
  admission_.set_cloud_pressure(channel_->under_pressure());
  outstanding_.fetch_add(1, std::memory_order_acq_rel);
  if (ingress_node_.submit(std::move(r)) != admission_verdict::closed) {
    return future;  // admitted, degraded, or shed-and-completed
  }
  if (outstanding_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    std::lock_guard<std::mutex> lock(drain_mutex_);
    drained_.notify_all();
  }
  throw util::error("submit() on a shut-down engine");
}

void engine::drain() {
  std::unique_lock<std::mutex> lock(drain_mutex_);
  drained_.wait(lock, [&] {
    return outstanding_.load(std::memory_order_acquire) == 0;
  });
}

void engine::shutdown() {
  {
    std::lock_guard<std::mutex> lock(shutdown_mutex_);
    if (shut_down_) return;
    shut_down_ = true;
  }
  // The edge workers drain the closed request_queue, deciding and handing
  // off appeals inline, so once they are joined every admitted request
  // has either completed or reached the channel; the channel drain then
  // waits out those appeals.
  queue_.close();
  edge_node_.join();
  channel_->drain();
}

void engine::complete(request&& r, response&& resp) {
  const bool labeled =
      resp.status == request_status::ok && r.label != request::no_label;
  const bool correct = labeled && resp.predicted_class == r.label;
  resp.latency_ms = ms_between(r.enqueue_time, clock::now());
  if (r.trace != nullptr) {
    obs::trace_span& span = *r.trace;
    span.total_ms = resp.latency_ms;
    span.appealed = resp.taken == route::cloud;
    span.expired = resp.status == request_status::expired;
    // Whatever the stamped stages do not account for (demux, stats,
    // promise fulfillment, scheduling gaps between boundaries) is the
    // final stage, so the stages always sum to ~total and trace_report's
    // reconciliation check is meaningful.
    span.set(obs::stage::complete, span.total_ms - span.stage_sum());
    obs::default_collector().record(std::move(span));
    r.trace.reset();
  }
  stats_->record(resp, labeled, correct);
  r.promise.set_value(std::move(resp));
  if (outstanding_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    std::lock_guard<std::mutex> lock(drain_mutex_);
    drained_.notify_all();
  }
}

}  // namespace appeal::serve
