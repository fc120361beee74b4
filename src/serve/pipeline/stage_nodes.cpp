#include "serve/pipeline/stage_nodes.hpp"

#include <algorithm>
#include <utility>

#include "util/error.hpp"

namespace appeal::serve::pipeline {

namespace {

using clock = std::chrono::steady_clock;

double ms_between(clock::time_point from, clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

}  // namespace

// ---------------------------------------------------------------- ingress

ingress_node::ingress_node(const std::string& deployment,
                           admission_controller& admission,
                           request_queue& queue, std::size_t shard_id,
                           complete_fn complete)
    : pipeline_node("ingress", deployment),
      admission_(admission),
      queue_(queue),
      shard_id_(shard_id),
      complete_(std::move(complete)) {}

admission_verdict ingress_node::submit(request&& r) {
  const admission_verdict verdict = admission_.try_admit(queue_, r);
  if (verdict == admission_verdict::closed) return verdict;
  count_in();
  switch (verdict) {
    case admission_verdict::admitted:
    case admission_verdict::degraded:
      count_out();
      break;
    case admission_verdict::shed: {
      response resp;
      resp.id = r.id;
      resp.status = request_status::shed;
      resp.shard = shard_id_;
      count_egress();
      complete_(std::move(r), std::move(resp));
      break;
    }
    case admission_verdict::closed:
      break;
  }
  return verdict;
}

// ------------------------------------------------------------- edge infer

edge_infer_node::edge_infer_node(const std::string& deployment,
                                 request_queue& queue,
                                 const batch_policy& policy,
                                 std::vector<edge_backend*> backends,
                                 bool simulate_edge_compute, double edge_ms,
                                 double time_scale, appeal_decide_node& decide)
    : pipeline_node("edge_infer", deployment),
      queue_(queue),
      policy_(policy),
      backends_(std::move(backends)),
      simulate_edge_compute_(simulate_edge_compute),
      edge_ms_(edge_ms),
      time_scale_(time_scale),
      decide_(decide) {
  APPEAL_CHECK(!backends_.empty(), "edge_infer_node needs backends");
  for (edge_backend* backend : backends_) {
    APPEAL_CHECK(backend != nullptr, "edge backend must not be null");
  }
}

void edge_infer_node::start() {
  threads_.reserve(backends_.size());
  for (edge_backend* backend : backends_) {
    threads_.emplace_back([this, backend] { worker(*backend); });
  }
}

void edge_infer_node::join() {
  for (std::thread& t : threads_) {
    if (t.joinable()) t.join();
  }
}

void edge_infer_node::worker(edge_backend& backend) {
  batcher form(queue_, policy_);
  for (;;) {
    batch b;
    {
      std::lock_guard<std::mutex> lock(form_mutex_);
      b = form.next_batch();
    }
    if (b.empty()) return;  // request_queue closed and drained
    count_in(b.requests.size());

    // Partition expired members out BEFORE inference (they get no
    // prediction) while keeping arrival order in the scored_batch — the
    // decision sees the same score order the monolithic worker fed the
    // controller.
    scored_batch sb;
    sb.items.resize(b.requests.size());
    std::vector<request> live;
    std::vector<std::size_t> live_slot;
    live.reserve(b.requests.size());
    live_slot.reserve(b.requests.size());
    const clock::time_point now = clock::now();
    for (std::size_t i = 0; i < b.requests.size(); ++i) {
      request& r = b.requests[i];
      if (r.deadline != request::no_deadline && now > r.deadline) {
        sb.items[i].req = std::move(r);
        sb.items[i].expired = true;
      } else {
        live_slot.push_back(i);
        live.push_back(std::move(r));
      }
    }

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

      const edge_inference inference = backend.infer(live);
      APPEAL_CHECK(inference.predictions.size() == live.size() &&
                       inference.scores.size() == live.size(),
                   "edge backend must return one result per request");

      if (simulate_edge_compute_) {
        const double scaled = edge_ms_ * time_scale_;
        if (scaled > 0.0) {
          std::this_thread::sleep_for(
              std::chrono::duration<double, std::milli>(scaled));
        }
      }
      // The simulated accelerator pass (when on) is part of the edge
      // forward as far as attribution goes.
      const clock::time_point infer_end = clock::now();
      for (std::size_t i = 0; i < live.size(); ++i) {
        request& r = live[i];
        if (r.trace != nullptr) {
          r.trace->set(obs::stage::edge_infer,
                       ms_between(infer_start, infer_end));
        }
        scored_item& slot = sb.items[live_slot[i]];
        slot.req = std::move(r);
        slot.prediction = inference.predictions[i];
        slot.score = inference.scores[i];
      }
      sb.infer_end = infer_end;
    } else {
      sb.infer_end = now;
    }

    count_out(sb.items.size());
    decide_.decide(std::move(sb));
  }
}

// ---------------------------------------------------------- appeal decide

appeal_decide_node::appeal_decide_node(const std::string& deployment,
                                       threshold_controller& controller,
                                       std::size_t shard_id,
                                       cloud_appeal_node& cloud,
                                       complete_fn complete)
    : pipeline_node("appeal_decide", deployment),
      controller_(controller),
      shard_id_(shard_id),
      cloud_(cloud),
      complete_(std::move(complete)) {}

void appeal_decide_node::decide(scored_batch&& sb) {
  count_in(sb.items.size());

  // One δ for the whole batch: the decision the paper's predictor head
  // makes per input, applied at batch granularity. Degraded-admission
  // requests bypass the decision entirely (they may never appeal) and
  // are excluded from the controller's observation — both the skip
  // count and the score denominator — so observed_sr stays the rate
  // over δ-decided traffic. Expired members are excluded from
  // everything (they were never scored).
  const double delta = controller_.delta();
  bool any_forced = false;
  bool any_live = false;
  std::vector<double> all_scores;
  std::vector<double> decided_scores;
  all_scores.reserve(sb.items.size());
  for (const scored_item& it : sb.items) {
    if (it.expired) continue;
    any_live = true;
    all_scores.push_back(it.score);
    if (it.req.force_edge) any_forced = true;
  }
  if (any_forced) {
    decided_scores.reserve(all_scores.size());
    for (const scored_item& it : sb.items) {
      if (!it.expired && !it.req.force_edge) {
        decided_scores.push_back(it.score);
      }
    }
  }

  std::size_t skipped = 0;
  for (scored_item& it : sb.items) {
    request& r = it.req;
    const double queue_ms = ms_between(r.enqueue_time, r.dequeue_time);
    if (it.expired) {
      response resp;
      resp.id = r.id;
      resp.status = request_status::expired;
      resp.shard = shard_id_;
      resp.queue_ms = queue_ms;
      if (r.trace != nullptr) {
        r.trace->set(obs::stage::queue_wait, resp.queue_ms);
      }
      count_egress();
      complete_(std::move(r), std::move(resp));
      continue;
    }
    if (r.trace != nullptr) {
      r.trace->set(obs::stage::decide, ms_between(sb.infer_end, clock::now()));
    }
    if (r.force_edge || it.score >= delta) {
      response resp;
      resp.id = r.id;
      resp.predicted_class = it.prediction;
      resp.taken = r.force_edge ? route::edge_degraded : route::edge;
      resp.shard = shard_id_;
      resp.score = it.score;
      resp.delta = delta;
      resp.queue_ms = queue_ms;
      if (!r.force_edge) ++skipped;
      count_egress();
      complete_(std::move(r), std::move(resp));
    } else {
      count_out();
      cloud_.appeal(std::move(r), it.score, delta, queue_ms);
    }
  }
  if (any_live) {
    controller_.observe(any_forced ? decided_scores : all_scores, skipped);
  }
}

// ----------------------------------------------------------- cloud appeal

cloud_appeal_node::cloud_appeal_node(const std::string& deployment,
                                     cloud_channel& channel,
                                     threshold_controller& controller,
                                     std::size_t shard_id,
                                     complete_fn complete)
    : pipeline_node("cloud_appeal", deployment),
      channel_(channel),
      controller_(controller),
      shard_id_(shard_id),
      complete_(std::move(complete)) {}

void cloud_appeal_node::appeal(request&& r, double score, double delta,
                               double queue_ms) {
  count_in();
  channel_.appeal(
      std::move(r),
      [this, score, delta, queue_ms](request&& done,
                                     const appeal_outcome& outcome) {
        response resp;
        resp.id = done.id;
        resp.taken = route::cloud;
        resp.shard = shard_id_;
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
        count_egress();
        complete_(std::move(done), std::move(resp));
      });
}

}  // namespace appeal::serve::pipeline
