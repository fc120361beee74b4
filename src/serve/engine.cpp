#include "serve/engine.hpp"

#include <chrono>
#include <utility>

#include "obs/metrics.hpp"
#include "tensor/gemm.hpp"
#include "tensor/gemm_s8.hpp"
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
/// Also exports the fp32 and int8 kernels in force as
/// appeal_gemm_kernel_info{precision=...,kernel=...} 1.
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
  for (const auto& [precision, kernel] :
       {std::pair{"fp32", ops::sgemm_kernel_name()},
        std::pair{"int8", ops::qgemm_kernel_name()}}) {
    obs::default_registry()
        .get_gauge("appeal_gemm_kernel_info",
                   {{"precision", precision}, {"kernel", kernel}},
                   "GEMM kernel chosen for this host's CPU (process-global)")
        .set(1.0);
  }
}

obs::counter& node_counter(const char* family, const std::string& deployment,
                           const char* node, const char* help) {
  obs::label_set labels;
  if (!deployment.empty()) labels.emplace_back("deployment", deployment);
  labels.emplace_back("node", node);
  return obs::default_registry().get_counter(family, std::move(labels), help);
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

/// The cloud backend behind the engine's channel: the borrowed one, or
/// the one the engine owns.
cloud_backend& resolve_cloud(cloud_backend* shared, cloud_backend* owned) {
  cloud_backend* cloud = shared != nullptr ? shared : owned;
  APPEAL_CHECK(cloud != nullptr, "engine needs a cloud backend");
  return *cloud;
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

engine::engine(const engine_config& cfg, engine_resources&& res,
               std::string link_name)
    : config_(cfg),
      sampler_(cfg.trace_sample_rate),
      owned_edge_(std::move(res.owned_edge)),
      owned_cloud_(std::move(res.owned_cloud)),
      edge_backends_(resolve_edge_backends(res.shared_edge, owned_edge_,
                                           cfg.num_workers)),
      queue_(cfg.queue_capacity),
      channel_(resolve_cloud(res.shared_cloud, owned_cloud_.get()),
               config_.link, config_.channel, std::move(link_name)),
      controller_(cfg.threshold, &config_.link),
      stats_(cfg.stats, &channel_),
      admission_(cfg.admission, cfg.stats.deployment),
      ingress_("ingress", cfg.stats.deployment),
      edge_("edge_infer", cfg.stats.deployment),
      decide_("appeal_decide", cfg.stats.deployment),
      cloud_("cloud_appeal", cfg.stats.deployment) {
  apply_gemm_threads(config_);
  workers_.reserve(edge_backends_.size());
  try {
    for (edge_backend* backend : edge_backends_) {
      workers_.emplace_back([this, backend] { worker(*backend); });
    }
  } catch (...) {
    shutdown();  // joins the workers already started
    throw;
  }
}

engine::~engine() { shutdown(); }

engine::ledger::ledger(const char* name, const std::string& deployment)
    : name_(name),
      in_(node_counter("appeal_node_in_total", deployment, name,
                       "requests that entered this pipeline node")),
      out_(node_counter("appeal_node_out_total", deployment, name,
                        "requests this node forwarded downstream")),
      egress_(node_counter("appeal_node_egress_total", deployment, name,
                           "requests that left the graph at this node")) {}

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
  admission_.set_cloud_pressure(channel_.under_pressure());
  outstanding_.fetch_add(1, std::memory_order_acq_rel);
  const admission_verdict verdict = admission_.try_admit(queue_, r);
  if (verdict == admission_verdict::closed) {
    // Never entered the engine: nothing is counted.
    if (outstanding_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> lock(drain_mutex_);
      drained_.notify_all();
    }
    throw util::error("submit() on a shut-down engine");
  }
  // Counted only after try_admit, where a worker may already have taken
  // the request: the ledgers balance once the engine is shut down.
  ingress_.in();
  if (verdict == admission_verdict::shed) {
    response resp;
    resp.id = r.id;
    resp.status = request_status::shed;
    ingress_.egress();
    complete(std::move(r), std::move(resp));
  } else {
    ingress_.out();  // admitted or degraded: now in the request_queue
  }
  return future;
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
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
  channel_.drain();
}

void engine::worker(edge_backend& backend) {
  batcher form(queue_, config_.batching);
  // The simulated accelerator pass (when on) is part of the edge forward
  // as far as attribution goes.
  const double simulated_ms =
      config_.simulate_edge_compute
          ? config_.link.overall_latency_ms(1.0) * config_.channel.time_scale
          : 0.0;
  for (;;) {
    batch b;
    {
      std::lock_guard<std::mutex> lock(form_mutex_);
      b = form.next_batch();
    }
    if (b.empty()) return;  // request_queue closed and drained
    const std::size_t size = b.requests.size();
    edge_.in(size);

    // Split expired members off BEFORE inference (they get no
    // prediction); the live ones keep their arrival order.
    std::vector<request>& live = b.requests;
    std::vector<request> expired;
    const clock::time_point now = clock::now();
    auto kept = live.begin();
    for (auto it = live.begin(); it != live.end(); ++it) {
      if (it->deadline != request::no_deadline && now > it->deadline) {
        expired.push_back(std::move(*it));
      } else {
        if (kept != it) *kept = std::move(*it);
        ++kept;
      }
    }
    live.erase(kept, live.end());

    edge_inference inference;
    clock::time_point infer_end = now;
    if (!live.empty()) {
      const clock::time_point infer_start = clock::now();
      for (request& r : live) {
        if (r.trace != nullptr) {
          r.trace->set(obs::stage::queue_wait,
                       ms_between(r.enqueue_time, r.dequeue_time));
          r.trace->set(obs::stage::batch_form,
                       ms_between(r.dequeue_time, infer_start));
        }
      }
      inference = backend.infer(live);
      APPEAL_CHECK(inference.predictions.size() == live.size() &&
                       inference.scores.size() == live.size(),
                   "edge backend must return one result per request");
      if (simulated_ms > 0.0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(simulated_ms));
      }
      infer_end = clock::now();
      for (request& r : live) {
        if (r.trace != nullptr) {
          r.trace->set(obs::stage::edge_infer,
                       ms_between(infer_start, infer_end));
        }
      }
    }
    edge_.out(size);
    decide(expired, live, inference, infer_end);
  }
}

void engine::decide(std::vector<request>& expired, std::vector<request>& live,
                    const edge_inference& inference,
                    clock::time_point infer_end) {
  decide_.in(expired.size() + live.size());
  for (request& r : expired) {
    response resp;
    resp.id = r.id;
    resp.status = request_status::expired;
    resp.queue_ms = ms_between(r.enqueue_time, r.dequeue_time);
    if (r.trace != nullptr) {
      r.trace->set(obs::stage::queue_wait, resp.queue_ms);
    }
    decide_.egress();
    complete(std::move(r), std::move(resp));
  }
  if (live.empty()) return;

  // One δ for the whole batch: the decision the paper's predictor head
  // makes per input, applied at batch granularity. Degraded-admission
  // requests bypass the decision (they may never appeal) and stay out of
  // the controller's observation, both the skip count and the score
  // denominator, so observed_sr stays the rate over δ-decided traffic.
  const double delta = controller_.delta();
  std::vector<double> decided_scores;
  decided_scores.reserve(live.size());
  std::size_t skipped = 0;
  for (std::size_t i = 0; i < live.size(); ++i) {
    request& r = live[i];
    const double score = inference.scores[i];
    const double queue_ms = ms_between(r.enqueue_time, r.dequeue_time);
    if (r.trace != nullptr) {
      r.trace->set(obs::stage::decide, ms_between(infer_end, clock::now()));
    }
    if (!r.force_edge) decided_scores.push_back(score);
    if (r.force_edge || score >= delta) {
      response resp;
      resp.id = r.id;
      resp.predicted_class = inference.predictions[i];
      resp.taken = r.force_edge ? route::edge_degraded : route::edge;
      resp.score = score;
      resp.delta = delta;
      resp.queue_ms = queue_ms;
      if (!r.force_edge) ++skipped;
      decide_.egress();
      complete(std::move(r), std::move(resp));
    } else {
      decide_.out();
      appeal(std::move(r), score, delta, queue_ms);
    }
  }
  controller_.observe(decided_scores, skipped);
}

void engine::appeal(request&& r, double score, double delta,
                    double queue_ms) {
  cloud_.in();
  channel_.appeal(
      std::move(r),
      [this, score, delta, queue_ms](request&& done,
                                     const appeal_outcome& outcome) {
        response resp;
        resp.id = done.id;
        resp.taken = route::cloud;
        resp.score = score;
        resp.delta = delta;
        resp.queue_ms = queue_ms;
        resp.link_ms = outcome.link_ms;
        resp.cloud_ms = outcome.cloud_ms;
        // Feed the measured offload round trip back into the
        // latency-SLO controller (no-op in the other modes): a cloud_ms
        // spike backs δ off toward edge-only and it recovers when the
        // link normalizes.
        controller_.observe_cloud_ms(outcome.link_ms);
        if (outcome.expired) {
          // The cloud shed the appeal (deadline blown in its work
          // queue): the client gets an honest `expired`, not a
          // fabricated prediction.
          resp.status = request_status::expired;
        } else {
          resp.predicted_class = outcome.prediction;
        }
        cloud_.egress();
        complete(std::move(done), std::move(resp));
      });
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
  stats_.record(resp, labeled, correct);
  r.promise.set_value(std::move(resp));
  if (outstanding_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    std::lock_guard<std::mutex> lock(drain_mutex_);
    drained_.notify_all();
  }
}

}  // namespace appeal::serve
