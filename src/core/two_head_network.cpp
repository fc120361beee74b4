#include "core/two_head_network.hpp"

#include <cmath>

#include "nn/activations.hpp"
#include "nn/fold.hpp"
#include "nn/inference_workspace.hpp"
#include "nn/init.hpp"
#include "nn/serialize.hpp"
#include "tensor/tensor_ops.hpp"
#include "util/error.hpp"

namespace appeal::core {

two_head_network::two_head_network(const two_head_config& cfg) : config_(cfg) {
  models::backbone bb = models::make_backbone(cfg.spec);
  extractor_ = std::move(bb.features);
  feature_dim_ = bb.feature_dim;

  approx_head_ = std::make_unique<nn::sequential>();
  if (cfg.approx_hidden > 0) {
    approx_head_->emplace<nn::linear>(feature_dim_, cfg.approx_hidden);
    approx_head_->emplace<nn::relu>();
    approx_head_->emplace<nn::linear>(cfg.approx_hidden,
                                      cfg.spec.num_classes);
  } else {
    approx_head_->emplace<nn::linear>(feature_dim_, cfg.spec.num_classes);
  }

  predictor_head_ = std::make_unique<nn::linear>(feature_dim_, 1);

  util::rng gen(cfg.init_seed);
  nn::initialize_model(*extractor_, gen);
  nn::initialize_model(*approx_head_, gen);
  nn::initialize_model(*predictor_head_, gen);
}

two_head_output two_head_network::forward(const tensor& images,
                                          bool training) {
  tensor features = extractor_->forward(images, training);
  two_head_output out;
  out.logits = approx_head_->forward(features, training);

  tensor raw = predictor_head_->forward(features, training);  // [N, 1]
  if (!training) {
    // Both heads have consumed the features — return the buffer to the
    // worker's arena.
    nn::inference_workspace::local().recycle(std::move(features));
  }
  const std::size_t n = raw.dims().dim(0);
  raw.reshape(shape{n});
  out.q_logits = std::move(raw);
  out.q.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.q[i] = 1.0F / (1.0F + std::exp(-out.q_logits[i]));
  }
  last_forward_had_predictor_ = true;
  return out;
}

tensor two_head_network::forward_approximator(const tensor& images,
                                              bool training) {
  tensor features = extractor_->forward(images, training);
  last_forward_had_predictor_ = false;
  tensor logits = approx_head_->forward(features, training);
  if (!training) {
    nn::inference_workspace::local().recycle(std::move(features));
  }
  return logits;
}

std::size_t two_head_network::prepare_for_inference() {
  if (folded_for_inference_) return 0;
  folded_for_inference_ = true;
  // Fold batchnorms into convs first so conv-bn-relu chains become
  // conv-relu, then absorb the clamps into the conv store epilogues.
  std::size_t changed = nn::fold_conv_batchnorm(*extractor_);
  changed += nn::fuse_conv_activation(*extractor_);
  changed += nn::fuse_conv_activation(*approx_head_);
  return changed;
}

void two_head_network::backward(const tensor& grad_logits,
                                const tensor& grad_q_logits) {
  APPEAL_CHECK(last_forward_had_predictor_,
               "two_head_network::backward requires a preceding forward() "
               "(not forward_approximator())");
  APPEAL_CHECK(grad_q_logits.dims().rank() == 1,
               "grad_q_logits must be rank-1 [N]");
  const std::size_t n = grad_q_logits.dims().dim(0);

  tensor grad_features = approx_head_->backward(grad_logits);
  const tensor grad_q_2d = grad_q_logits.reshaped(shape{n, 1});
  ops::add_inplace(grad_features, predictor_head_->backward(grad_q_2d));
  extractor_->backward(grad_features);
}

void two_head_network::backward_approximator(const tensor& grad_logits) {
  APPEAL_CHECK(!last_forward_had_predictor_,
               "backward_approximator requires a preceding "
               "forward_approximator()");
  extractor_->backward(approx_head_->backward(grad_logits));
}

std::vector<nn::parameter*> two_head_network::approximator_parameters() {
  std::vector<nn::parameter*> out = extractor_->parameters();
  for (nn::parameter* p : approx_head_->parameters()) out.push_back(p);
  return out;
}

std::vector<nn::parameter*> two_head_network::all_parameters() {
  std::vector<nn::parameter*> out = approximator_parameters();
  for (nn::parameter* p : predictor_head_->parameters()) out.push_back(p);
  return out;
}

std::vector<nn::named_tensor> two_head_network::state() {
  std::vector<nn::named_tensor> out = extractor_->state("extractor");
  for (nn::named_tensor& nt : approx_head_->state("approx_head")) {
    out.push_back(nt);
  }
  for (nn::named_tensor& nt : predictor_head_->state("predictor_head")) {
    out.push_back(nt);
  }
  return out;
}

void two_head_network::save(const std::string& path) {
  nn::save_tensors(state(), path);
}

void two_head_network::load(const std::string& path) {
  nn::load_tensors(state(), path);
}

std::uint64_t two_head_network::flops(const shape& single_input) const {
  const shape features{single_input.dim(0), feature_dim_};
  return extractor_->flops(single_input) + approx_head_->flops(features) +
         predictor_head_->flops(features);
}

std::uint64_t two_head_network::approximator_flops(
    const shape& single_input) const {
  const shape features{single_input.dim(0), feature_dim_};
  return extractor_->flops(single_input) + approx_head_->flops(features);
}

}  // namespace appeal::core
