// Sequential layer container.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "nn/layer.hpp"

namespace appeal::nn {

/// Ordered chain of layers; forward runs front-to-back, backward back-to-
/// front. Owns its children.
class sequential : public layer {
 public:
  sequential() = default;

  /// Appends an already-constructed layer.
  void append(layer_ptr child);

  /// Constructs a layer of type T in place and appends it.
  template <typename T, typename... Args>
  T& emplace(Args&&... args) {
    auto child = std::make_unique<T>(std::forward<Args>(args)...);
    T& ref = *child;
    append(std::move(child));
    return ref;
  }

  std::size_t size() const { return children_.size(); }
  bool empty() const { return children_.empty(); }
  layer& child(std::size_t i);
  const layer& child(std::size_t i) const;

  /// Removes and returns child i. Graph-rewrite support (conv+batchnorm
  /// folding); later children shift down one slot.
  layer_ptr remove_child(std::size_t i);

  /// Swaps child i for `with` and returns the old child — rewrite support
  /// for layer substitution (quantized kernels, calibration observers).
  layer_ptr replace_child(std::size_t i, layer_ptr with);

  /// Runs children [begin, end) — forward() is forward_range over the
  /// whole chain, so running the children one range at a time performs
  /// literally the same arithmetic as one full forward (bit-exact).
  tensor forward_range(const tensor& input, std::size_t begin,
                       std::size_t end, bool training);

  const char* kind() const override { return "sequential"; }
  tensor forward(const tensor& input, bool training) override;
  tensor backward(const tensor& grad_output) override;
  std::vector<parameter*> parameters() override;
  std::vector<named_parameter> named_parameters(
      const std::string& prefix) override;
  std::vector<named_tensor> state(const std::string& prefix) override;
  shape output_shape(const shape& input) const override;
  std::uint64_t flops(const shape& input) const override;

  /// Per-child FLOPs and output shapes — model summary support.
  struct child_report {
    std::string name;  // "<index>:<kind>"
    shape output;
    std::uint64_t flops = 0;
  };
  std::vector<child_report> summarize(const shape& input) const;

 private:
  std::vector<layer_ptr> children_;
};

}  // namespace appeal::nn
