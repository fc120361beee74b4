// The AppealNet two-head architecture (paper Section V-A, Fig. 2).
//
// A shared feature extractor feeds two heads:
//   - the approximator head outputs class logits (p(y|x) after softmax),
//   - the predictor head — a single fully-connected layer, as in the paper —
//     outputs one raw score per input whose sigmoid is q(1|x), the
//     probability the input is "easy" (the little network suffices).
// Backward sums the two heads' gradients at the feature junction.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "models/model_zoo.hpp"
#include "nn/linear.hpp"
#include "nn/sequential.hpp"
#include "util/rng.hpp"

namespace appeal::core {

/// Configuration of the two-head little network.
struct two_head_config {
  models::model_spec spec;          // edge backbone (family, width, classes…)
  std::size_t approx_hidden = 0;    // >0 adds a hidden FC layer to the
                                    // approximator head (paper: "several
                                    // cascaded fully-connected layers")
  std::uint64_t init_seed = 0x11;
};

/// Two-head forward result.
struct two_head_output {
  tensor logits;    // [N, K] approximator logits
  tensor q_logits;  // [N] raw predictor scores (pre-sigmoid)
  std::vector<float> q;  // sigmoid(q_logits), the paper's q(1|x)
};

/// The little network (f1, q) of the paper.
class two_head_network {
 public:
  explicit two_head_network(const two_head_config& cfg);

  /// Runs extractor + both heads.
  two_head_output forward(const tensor& images, bool training);

  /// Runs extractor + approximator head only (no predictor cost) — the
  /// phase-1 pretraining path and the baseline little-model path.
  tensor forward_approximator(const tensor& images, bool training);

  /// One-time deployment optimization: folds every conv+batchnorm pair in
  /// the extractor (nn::fold_conv_batchnorm). Outputs are unchanged up to
  /// float rounding; training after this call is meaningless. Idempotent.
  /// Returns the number of folded pairs (0 on repeat calls).
  std::size_t prepare_for_inference();

  /// Backward for a forward() call: joins both heads' gradients.
  /// `grad_q_logits` must be [N].
  void backward(const tensor& grad_logits, const tensor& grad_q_logits);

  /// Backward for a forward_approximator() call.
  void backward_approximator(const tensor& grad_logits);

  /// Parameters of extractor + approximator head (phase-1 training set).
  std::vector<nn::parameter*> approximator_parameters();

  /// All parameters (extractor + both heads) for joint training.
  std::vector<nn::parameter*> all_parameters();

  /// Persistent state for serialization.
  std::vector<nn::named_tensor> state();

  void save(const std::string& path);
  void load(const std::string& path);

  /// Forward cost of the full two-head model for a [N=1] input, in FLOPs.
  /// The predictor head adds one FC layer — the paper's "minimal overhead".
  std::uint64_t flops(const shape& single_input) const;

  /// Cost of the approximator path alone (extractor + approximator head).
  std::uint64_t approximator_flops(const shape& single_input) const;

  const two_head_config& config() const { return config_; }
  std::size_t feature_dim() const { return feature_dim_; }
  nn::sequential& extractor() { return *extractor_; }
  nn::sequential& approximator_head() { return *approx_head_; }
  nn::linear& predictor_head() { return *predictor_head_; }

 private:
  two_head_config config_;
  std::size_t feature_dim_;
  std::unique_ptr<nn::sequential> extractor_;
  std::unique_ptr<nn::sequential> approx_head_;
  std::unique_ptr<nn::linear> predictor_head_;
  bool last_forward_had_predictor_ = false;
  bool folded_for_inference_ = false;
};

}  // namespace appeal::core
