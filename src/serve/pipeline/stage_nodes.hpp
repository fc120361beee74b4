// The four concrete stages the serving engine is assembled from.
//
//   ingress_node       — passive front door: admission verdict at the
//                        request_queue boundary (block / shed / degrade);
//                        shed requests egress here.
//   edge_infer_node    — the worker pool: one thread per edge backend.
//                        Each worker forms its own batch from the shared
//                        request_queue (one worker at a time), filters
//                        expired members (no inference for them), runs the
//                        two-head little-network forward, and hands the
//                        scored batch to the decide node on its own thread.
//   appeal_decide_node — passive: the AppealNet decision point, δ +
//                        deadline check, run inline by the edge worker
//                        that scored the batch. Edge-kept and expired
//                        requests egress here; low-confidence ones go to
//                        the cloud sink on the same thread.
//   cloud_appeal_node  — passive sink: hands each appeal to the
//                        cloud_channel on the edge worker's thread; the
//                        channel's completion callback is this node's
//                        egress.
//
// No stage queues work for another: the request_queue in front of the
// edge workers is the only bounded buffer in the graph. Decided appeals
// wait in the cloud_channel's own pending queue, which is unbounded;
// admission tightens on cloud_channel::under_pressure() (overload or a
// breaker that is not closed), not on that queue's length.
//
// Trace-stage attribution: queue_wait runs from submit to the dequeue
// that took the request into a batch, batch_form from there to the
// forward's start, edge_infer covers the forward, decide the inline
// decision, and the engine's final `complete` residual absorbs
// everything else — so trace_report's stage-sum reconciliation stays
// within the CI gate by construction.
#pragma once

#include <chrono>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/admission.hpp"
#include "serve/backends.hpp"
#include "serve/batcher.hpp"
#include "serve/cloud_channel.hpp"
#include "serve/pipeline/pipeline_node.hpp"
#include "serve/request.hpp"
#include "serve/request_queue.hpp"
#include "serve/threshold_controller.hpp"

namespace appeal::serve::pipeline {

/// Fulfills one request (the engine's complete(): trace finalization,
/// stats record, promise). Supplied by the engine to every node that has
/// an egress point.
using complete_fn = std::function<void(request&&, response&&)>;

/// One edge-scored request leaving the edge_infer stage. `expired`
/// members skipped inference (prediction/score are meaningless) and are
/// completed by the decide stage with request_status::expired.
struct scored_item {
  request req;
  std::size_t prediction = 0;
  double score = 0.0;
  bool expired = false;
};

/// A whole batch after the edge forward, in arrival order. `infer_end`
/// carries the edge stage boundary, the origin of the `decide` trace
/// stage.
struct scored_batch {
  std::vector<scored_item> items;
  std::chrono::steady_clock::time_point infer_end;
};

class appeal_decide_node;
class cloud_appeal_node;

/// Stage 1 — admission at the front door. Passive: no thread of its own,
/// submit() runs on the caller's (engine::submit) thread. Its output is
/// the engine's request_queue; the engine closes that queue at shutdown,
/// which ends the edge workers once they have drained it.
class ingress_node final : public pipeline_node {
 public:
  ingress_node(const std::string& deployment, admission_controller& admission,
               request_queue& queue, std::size_t shard_id,
               complete_fn complete);

  /// Admits, degrades, sheds (completing the request here), or reports
  /// closed (request untouched, nothing counted — it never entered the
  /// graph).
  admission_verdict submit(request&& r);

 private:
  admission_controller& admission_;
  request_queue& queue_;
  std::size_t shard_id_;
  complete_fn complete_;
};

/// Stage 2 — the edge worker pool. One thread per backend (stateful
/// network backends stay single-threaded; each thread's nn workspace
/// arena stays private). Each worker owns a batcher over the shared
/// request_queue; a form mutex lets one worker form a batch at a time,
/// so the queue keeps a single consumer and two waiting workers never
/// split one batch. The mutex is released before the forward, so while
/// one worker infers the next forms. Expired members are marked, not
/// inferred. Workers exit when the request_queue is closed and drained.
/// Backpressure: while every worker is busy the request_queue fills, and
/// admission starts shedding/degrading. A worker hands appeals to the
/// channel without waiting for the cloud.
class edge_infer_node final : public pipeline_node {
 public:
  edge_infer_node(const std::string& deployment, request_queue& queue,
                  const batch_policy& policy,
                  std::vector<edge_backend*> backends,
                  bool simulate_edge_compute, double edge_ms,
                  double time_scale, appeal_decide_node& decide);

  /// Spawns one worker thread per backend.
  void start();
  /// Joins the workers; they return once the request_queue is closed and
  /// drained.
  void join();

 private:
  void worker(edge_backend& backend);

  request_queue& queue_;
  batch_policy policy_;
  std::vector<edge_backend*> backends_;
  bool simulate_edge_compute_;
  double edge_ms_;
  double time_scale_;
  appeal_decide_node& decide_;
  std::mutex form_mutex_;
  std::vector<std::thread> threads_;
};

/// Stage 3 — the AppealNet decision: one δ read per scored batch,
/// deadline check first. Passive: decide() runs on the edge worker that
/// scored the batch. Edge-kept (score >= δ, or degraded admission) and
/// expired requests complete here; the rest go to the cloud sink.
/// Feeds the threshold controller exactly as the monolithic engine did:
/// degraded (force_edge) requests are excluded from both the skip count
/// and the score denominator, expired members from everything.
class appeal_decide_node final : public pipeline_node {
 public:
  appeal_decide_node(const std::string& deployment,
                     threshold_controller& controller, std::size_t shard_id,
                     cloud_appeal_node& cloud, complete_fn complete);

  /// Decides every member of `sb`; appeals are handed off without
  /// waiting for the cloud.
  void decide(scored_batch&& sb);

 private:
  threshold_controller& controller_;
  std::size_t shard_id_;
  cloud_appeal_node& cloud_;
  complete_fn complete_;
};

/// Stage 4 — the cloud sink. Passive: appeal() runs on the edge worker
/// that decided the request and hands it to the cloud_channel (which
/// coalesces, frames, and retries it) without waiting. The channel's
/// completion callback — running on a transport receive thread or the
/// simulator thread — is this node's egress. out_count() stays 0:
/// nothing leaves this node except fulfilled promises.
class cloud_appeal_node final : public pipeline_node {
 public:
  cloud_appeal_node(const std::string& deployment, cloud_channel& channel,
                    threshold_controller& controller, std::size_t shard_id,
                    complete_fn complete);

  /// Appeals `r` with the decision context its response must carry.
  void appeal(request&& r, double score, double delta, double queue_ms);

 private:
  cloud_channel& channel_;
  threshold_controller& controller_;
  std::size_t shard_id_;
  complete_fn complete_;
};

}  // namespace appeal::serve::pipeline
