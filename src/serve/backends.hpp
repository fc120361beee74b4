// Model backends the serving engine routes between.
//
// The engine is model-agnostic: an edge_backend turns a batch of requests
// into (prediction, score) pairs, a cloud_backend answers single appealed
// requests. Three families are provided:
//   - replay backends serve precomputed predictions/scores keyed by
//     request.key — the workhorse for load tests and benches (no training
//     in the serving hot path);
//   - network_edge_backend wraps the two-head little network and extracts
//     appeal scores via core/scores (q(1|x) or the softmax baselines);
//   - oracle_cloud_backend implements the paper's black-box Table II
//     protocol (the cloud always answers correctly).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/scores.hpp"
#include "core/two_head_network.hpp"
#include "nn/sequential.hpp"
#include "serve/request.hpp"

namespace appeal::serve {

/// Edge results for one batch, index-aligned with the input requests.
struct edge_inference {
  std::vector<std::size_t> predictions;
  std::vector<double> scores;  // higher = easier (keep on the edge)
};

/// The little network's serving interface.
class edge_backend {
 public:
  virtual ~edge_backend() = default;
  /// Must return one prediction and one score per request.
  virtual edge_inference infer(const std::vector<request>& batch) = 0;
};

/// The big network's serving interface (one appealed request at a time;
/// the cloud_channel owns batching/pipelining of the link).
class cloud_backend {
 public:
  virtual ~cloud_backend() = default;
  virtual std::size_t infer(const request& r) = 0;

  /// Returns an empty tensor. Nothing in src/ calls or overrides this:
  /// appeals always ship the raw input. It stays only because
  /// perfbench's traced backend (perfbench/src/spans.cpp) overrides it;
  /// drop that override first, then this virtual.
  virtual tensor prefix_feature(const tensor& input, std::uint32_t cut_id);
};

/// Serves precomputed edge predictions/scores indexed by request.key.
class replay_edge_backend : public edge_backend {
 public:
  replay_edge_backend(std::vector<std::size_t> predictions,
                      std::vector<double> scores);
  edge_inference infer(const std::vector<request>& batch) override;

 private:
  std::vector<std::size_t> predictions_;
  std::vector<double> scores_;
};

/// Serves precomputed cloud predictions indexed by request.key.
class replay_cloud_backend : public cloud_backend {
 public:
  explicit replay_cloud_backend(std::vector<std::size_t> predictions);
  std::size_t infer(const request& r) override;

 private:
  std::vector<std::size_t> predictions_;
};

/// Always-correct cloud (paper Section IV-B / collab::oracle): answers
/// with the request's ground-truth label. Requests must carry labels.
class oracle_cloud_backend : public cloud_backend {
 public:
  std::size_t infer(const request& r) override;
};

/// Runs the two-head little network on the stacked batch inputs and
/// extracts scores with the configured method. Not thread-safe: give each
/// edge worker its own backend instance (or serve with one worker). The
/// whole batch runs as one NCHW forward from the worker thread's
/// inference_workspace, so batches formed by the batcher amortize into
/// one im2col + GEMM per layer.
class network_edge_backend : public edge_backend {
 public:
  /// Non-owning: the caller keeps `network` alive (serving_demo shares a
  /// freshly trained system with the offline evaluation).
  network_edge_backend(core::two_head_network& network,
                       core::score_method method);
  /// Owning: per-worker backend factories hand each worker its own
  /// network instance.
  network_edge_backend(std::unique_ptr<core::two_head_network> network,
                       core::score_method method);
  edge_inference infer(const std::vector<request>& batch) override;

 private:
  std::unique_ptr<core::two_head_network> owned_;
  core::two_head_network& network_;
  core::score_method method_;
};

/// Runs the big network on a single appealed input. Not thread-safe
/// (inference forwards touch per-layer state): give each thread that
/// scores — a channel's coalescing thread, a transport's failure path, a
/// stub worker — its own backend + network instance.
class network_cloud_backend : public cloud_backend {
 public:
  /// Non-owning: the caller keeps `network` alive.
  explicit network_cloud_backend(nn::sequential& network);
  /// Owning: factories hand the backend its own network instance.
  explicit network_cloud_backend(std::unique_ptr<nn::sequential> network);
  std::size_t infer(const request& r) override;

  /// Batched scoring for the cloud-side scheduler (stub_server's worker
  /// pool): stacks the inputs — which must all share one shape — into a
  /// single [N, ...] forward and returns one argmax per input. Because
  /// each row's accumulation order is independent of the batch around
  /// it, the predictions are bit-identical to N infer() calls; the batch
  /// just pays one im2col + GEMM per layer instead of N.
  std::vector<std::size_t> infer_batch(const std::vector<const tensor*>& inputs);

 private:
  std::unique_ptr<nn::sequential> owned_;
  nn::sequential& network_;
};

}  // namespace appeal::serve
