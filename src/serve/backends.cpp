#include "serve/backends.hpp"

#include <cstring>

#include "nn/inference_workspace.hpp"
#include "tensor/tensor_ops.hpp"
#include "util/error.hpp"

namespace appeal::serve {

namespace {

/// Stacks per-request [C, H, W] inputs into one [N, C, H, W] batch drawn
/// from the edge worker's thread-local inference workspace (each engine
/// worker is its own thread, so each has its own arena).
tensor stack_inputs(const std::vector<request>& batch) {
  APPEAL_CHECK(!batch.empty(), "cannot stack an empty batch");
  const tensor& first = batch.front().input;
  APPEAL_CHECK(!first.empty(), "network backend requires request inputs");
  const std::size_t per_item = first.size();
  std::vector<std::size_t> dims{batch.size()};
  for (std::size_t d = 0; d < first.dims().rank(); ++d) {
    dims.push_back(first.dims().dim(d));
  }
  tensor out = nn::inference_workspace::local().acquire(shape(dims));
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const tensor& item = batch[i].input;
    APPEAL_CHECK(item.size() == per_item,
                 "all batch inputs must share one shape");
    std::memcpy(out.data() + i * per_item, item.data(),
                per_item * sizeof(float));
  }
  return out;
}

}  // namespace

tensor cloud_backend::prefix_feature(const tensor& /*input*/,
                                     std::uint32_t /*cut_id*/) {
  return {};
}

replay_edge_backend::replay_edge_backend(std::vector<std::size_t> predictions,
                                         std::vector<double> scores)
    : predictions_(std::move(predictions)), scores_(std::move(scores)) {
  APPEAL_CHECK(predictions_.size() == scores_.size(),
               "replay predictions/scores must be parallel");
  APPEAL_CHECK(!predictions_.empty(), "replay backend requires data");
}

edge_inference replay_edge_backend::infer(const std::vector<request>& batch) {
  edge_inference out;
  out.predictions.reserve(batch.size());
  out.scores.reserve(batch.size());
  for (const request& r : batch) {
    APPEAL_CHECK(r.key < predictions_.size(),
                 "request key outside the replay table");
    out.predictions.push_back(predictions_[r.key]);
    out.scores.push_back(scores_[r.key]);
  }
  return out;
}

replay_cloud_backend::replay_cloud_backend(std::vector<std::size_t> predictions)
    : predictions_(std::move(predictions)) {
  APPEAL_CHECK(!predictions_.empty(), "replay backend requires data");
}

std::size_t replay_cloud_backend::infer(const request& r) {
  APPEAL_CHECK(r.key < predictions_.size(),
               "request key outside the replay table");
  return predictions_[r.key];
}

std::size_t oracle_cloud_backend::infer(const request& r) {
  APPEAL_CHECK(r.label != request::no_label,
               "oracle cloud requires ground-truth labels");
  return r.label;
}

network_edge_backend::network_edge_backend(core::two_head_network& network,
                                           core::score_method method)
    : network_(network), method_(method) {}

namespace {

core::two_head_network& checked_deref(
    const std::unique_ptr<core::two_head_network>& p) {
  APPEAL_CHECK(p != nullptr, "network_edge_backend requires a network");
  return *p;
}

}  // namespace

network_edge_backend::network_edge_backend(
    std::unique_ptr<core::two_head_network> network, core::score_method method)
    : owned_(std::move(network)),
      network_(checked_deref(owned_)),
      method_(method) {}

edge_inference network_edge_backend::infer(const std::vector<request>& batch) {
  nn::inference_workspace& ws = nn::inference_workspace::local();
  tensor inputs = stack_inputs(batch);
  core::two_head_output fwd = network_.forward(inputs, /*training=*/false);
  ws.recycle(std::move(inputs));
  edge_inference out;
  out.predictions = ops::argmax_rows(fwd.logits);
  if (method_ == core::score_method::appealnet_q) {
    out.scores = core::q_to_scores(fwd.q);
  } else {
    out.scores =
        core::confidence_scores(method_, ops::softmax_rows(fwd.logits));
  }
  ws.recycle(std::move(fwd.logits));
  ws.recycle(std::move(fwd.q_logits));
  return out;
}

namespace {

nn::sequential& checked_deref_sequential(
    const std::unique_ptr<nn::sequential>& p) {
  APPEAL_CHECK(p != nullptr, "network_cloud_backend requires a network");
  return *p;
}

}  // namespace

network_cloud_backend::network_cloud_backend(nn::sequential& network)
    : network_(network) {}

network_cloud_backend::network_cloud_backend(
    std::unique_ptr<nn::sequential> network)
    : owned_(std::move(network)), network_(checked_deref_sequential(owned_)) {}

std::vector<std::size_t> network_cloud_backend::infer_batch(
    const std::vector<const tensor*>& inputs) {
  APPEAL_CHECK(!inputs.empty(), "cannot infer an empty batch");
  const tensor& first = *inputs.front();
  APPEAL_CHECK(!first.empty(), "network backend requires request inputs");
  std::vector<std::size_t> dims{inputs.size()};
  for (std::size_t d = 0; d < first.dims().rank(); ++d) {
    dims.push_back(first.dims().dim(d));
  }
  nn::inference_workspace& ws = nn::inference_workspace::local();
  tensor batch = ws.acquire(shape(dims));
  const std::size_t per_item = first.size();
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    APPEAL_CHECK(inputs[i]->size() == per_item,
                 "all batch inputs must share one shape");
    std::memcpy(batch.data() + i * per_item, inputs[i]->data(),
                per_item * sizeof(float));
  }
  tensor logits = network_.forward(batch, /*training=*/false);
  ws.recycle(std::move(batch));
  std::vector<std::size_t> predictions = ops::argmax_rows(logits);
  ws.recycle(std::move(logits));
  return predictions;
}

std::size_t network_cloud_backend::infer(const request& r) {
  APPEAL_CHECK(!r.input.empty(), "network backend requires request inputs");
  std::vector<std::size_t> dims{1};
  for (std::size_t d = 0; d < r.input.dims().rank(); ++d) {
    dims.push_back(r.input.dims().dim(d));
  }
  nn::inference_workspace& ws = nn::inference_workspace::local();
  tensor input = ws.acquire(shape(dims));
  std::memcpy(input.data(), r.input.data(), r.input.size() * sizeof(float));
  tensor logits = network_.forward(input, /*training=*/false);
  ws.recycle(std::move(input));
  const std::size_t prediction = ops::argmax_rows(logits).front();
  ws.recycle(std::move(logits));
  return prediction;
}

}  // namespace appeal::serve
