// The five concrete stages the serving engine is assembled from.
//
//   ingress_node       — passive front door: admission verdict at the
//                        request_queue boundary (block / shed / degrade);
//                        shed requests egress here.
//   batch_former_node  — one thread running the dynamic batcher over the
//                        request_queue, pushing formed batches downstream.
//   edge_infer_node    — the worker pool: one thread per edge backend,
//                        each popping whole batches, filtering expired
//                        members (no inference for them), running the
//                        two-head little-network forward, and forwarding
//                        a scored_batch.
//   appeal_decide_node — the AppealNet decision point: δ + deadline
//                        check. Edge-kept and expired requests egress
//                        here; low-confidence ones become appeal items.
//   cloud_appeal_node  — sink: hands appeals to the cloud_channel; the
//                        channel's completion callback is this node's
//                        egress.
//
// The work items between stages are typed (batch → scored_batch →
// appeal_item), so a future stage — say, a peer-appeal tier between edge
// and cloud — slots in by defining its item type and queue without
// touching the neighbours' internals.
//
// Trace-stage attribution is preserved across the queue hops: batch_form
// absorbs the formed batch's wait for an edge worker, decide absorbs the
// scored batch's wait for the decision thread, and the engine's final
// `complete` residual absorbs everything else — so trace_report's
// stage-sum reconciliation stays within the CI gate by construction.
#pragma once

#include <chrono>
#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

#include "serve/admission.hpp"
#include "serve/backends.hpp"
#include "serve/batcher.hpp"
#include "serve/cloud_channel.hpp"
#include "serve/pipeline/node_queue.hpp"
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
/// carries the edge stage boundary so the decide stage can stamp the
/// `decide` trace stage from the correct origin.
struct scored_batch {
  std::vector<scored_item> items;
  std::chrono::steady_clock::time_point infer_end;
};

/// One low-confidence request bound for the cloud, with the decision
/// context its eventual response must carry.
struct appeal_item {
  request req;
  double score = 0.0;
  double delta = 0.0;
  double queue_ms = 0.0;
};

/// Stage 1 — admission at the front door. Passive: no thread of its own,
/// submit() runs on the caller's (engine::submit) thread. Its "output
/// queue" is the engine's request_queue; closing the input closes that
/// queue, which ends the batch former.
class ingress_node final : public pipeline_node {
 public:
  ingress_node(const std::string& deployment, admission_controller& admission,
               request_queue& queue, std::size_t shard_id,
               complete_fn complete);

  /// Admits, degrades, sheds (completing the request here), or reports
  /// closed (request untouched, nothing counted — it never entered the
  /// graph).
  admission_verdict submit(request&& r);

  void start() override {}
  void close_input() override { queue_.close(); }
  void join() override {}

 private:
  admission_controller& admission_;
  request_queue& queue_;
  std::size_t shard_id_;
  complete_fn complete_;
};

/// Stage 2 — dynamic batch formation. One thread pulls from the
/// request_queue through a batcher and pushes formed batches downstream;
/// it exits when the request_queue is closed and drained. Backpressure:
/// a full downstream queue blocks this thread, the request_queue fills,
/// and admission starts shedding/degrading.
class batch_former_node final : public pipeline_node {
 public:
  batch_former_node(const std::string& deployment, request_queue& queue,
                    const batch_policy& policy, node_queue<batch>& downstream);

  void start() override;
  void close_input() override {}  // input is the request_queue; ingress owns it
  void join() override;

 private:
  request_queue& queue_;
  batch_policy policy_;
  node_queue<batch>& downstream_;
  std::thread thread_;
};

/// Stage 3 — the edge worker pool. One thread per backend (stateful
/// network backends stay single-threaded; each thread's nn workspace
/// arena stays private). Expired members are marked, not inferred.
class edge_infer_node final : public pipeline_node {
 public:
  edge_infer_node(const std::string& deployment,
                  std::vector<edge_backend*> backends,
                  bool simulate_edge_compute, double edge_ms,
                  double time_scale, std::size_t queue_depth,
                  node_queue<scored_batch>& downstream);

  node_queue<batch>& input() { return input_; }

  void start() override;
  void close_input() override { input_.close(); }
  void join() override;

 private:
  void worker(edge_backend& backend);

  std::vector<edge_backend*> backends_;
  bool simulate_edge_compute_;
  double edge_ms_;
  double time_scale_;
  node_queue<batch> input_;
  node_queue<scored_batch>& downstream_;
  std::vector<std::thread> threads_;
};

/// Stage 4 — the AppealNet decision: one δ read per scored batch,
/// deadline check first. Edge-kept (score >= δ, or degraded admission)
/// and expired requests complete here; the rest become appeal items.
/// Feeds the threshold controller exactly as the monolithic engine did:
/// degraded (force_edge) requests are excluded from both the skip count
/// and the score denominator, expired members from everything.
class appeal_decide_node final : public pipeline_node {
 public:
  appeal_decide_node(const std::string& deployment,
                     threshold_controller& controller, std::size_t shard_id,
                     std::size_t queue_depth,
                     node_queue<appeal_item>& downstream,
                     complete_fn complete);

  node_queue<scored_batch>& input() { return input_; }

  void start() override;
  void close_input() override { input_.close(); }
  void join() override;

 private:
  void worker();

  threshold_controller& controller_;
  std::size_t shard_id_;
  node_queue<scored_batch> input_;
  node_queue<appeal_item>& downstream_;
  complete_fn complete_;
  std::thread thread_;
};

/// Stage 5 — the cloud sink. One thread hands appeal items to the
/// cloud_channel (which coalesces, frames, and retries them); the
/// channel's completion callback — running on a transport receive thread
/// or the simulator thread — is this node's egress. out_count() stays 0:
/// nothing leaves this node except fulfilled promises.
class cloud_appeal_node final : public pipeline_node {
 public:
  cloud_appeal_node(const std::string& deployment, cloud_channel& channel,
                    threshold_controller& controller, std::size_t shard_id,
                    std::size_t queue_depth, complete_fn complete);

  node_queue<appeal_item>& input() { return input_; }

  void start() override;
  void close_input() override { input_.close(); }
  void join() override;

 private:
  void worker();

  cloud_channel& channel_;
  threshold_controller& controller_;
  std::size_t shard_id_;
  node_queue<appeal_item> input_;
  complete_fn complete_;
  std::thread thread_;
};

}  // namespace appeal::serve::pipeline
