#include "nn/sequential.hpp"

#include "nn/inference_workspace.hpp"
#include "util/error.hpp"

namespace appeal::nn {

void sequential::append(layer_ptr child) {
  APPEAL_CHECK(child != nullptr, "sequential::append(nullptr)");
  children_.push_back(std::move(child));
}

layer& sequential::child(std::size_t i) {
  APPEAL_CHECK(i < children_.size(), "sequential child index out of range");
  return *children_[i];
}

const layer& sequential::child(std::size_t i) const {
  APPEAL_CHECK(i < children_.size(), "sequential child index out of range");
  return *children_[i];
}

layer_ptr sequential::remove_child(std::size_t i) {
  APPEAL_CHECK(i < children_.size(), "sequential child index out of range");
  layer_ptr out = std::move(children_[i]);
  children_.erase(children_.begin() + static_cast<std::ptrdiff_t>(i));
  return out;
}

layer_ptr sequential::replace_child(std::size_t i, layer_ptr with) {
  APPEAL_CHECK(i < children_.size(), "sequential child index out of range");
  APPEAL_CHECK(with != nullptr, "sequential::replace_child(nullptr)");
  layer_ptr out = std::move(children_[i]);
  children_[i] = std::move(with);
  return out;
}

tensor sequential::forward_range(const tensor& input, std::size_t begin,
                                 std::size_t end, bool training) {
  APPEAL_CHECK(begin <= end && end <= children_.size(),
               "sequential::forward_range bounds out of range");
  if (begin == end) return input;
  if (!training) {
    // Inference: each child's input becomes garbage the moment the next
    // child has produced its output — recycle it into the thread's
    // workspace so the whole chain allocates nothing once warm. The
    // caller's `input` is never recycled (not ours to reuse).
    inference_workspace& ws = inference_workspace::local();
    tensor current = children_[begin]->forward(input, false);
    for (std::size_t i = begin + 1; i < end; ++i) {
      tensor next = children_[i]->forward(current, false);
      ws.recycle(std::move(current));
      current = std::move(next);
    }
    return current;
  }
  tensor current = input;
  for (std::size_t i = begin; i < end; ++i) {
    current = children_[i]->forward(current, training);
  }
  return current;
}

tensor sequential::forward(const tensor& input, bool training) {
  return forward_range(input, 0, children_.size(), training);
}

tensor sequential::backward(const tensor& grad_output) {
  tensor current = grad_output;
  for (std::size_t i = children_.size(); i-- > 0;) {
    current = children_[i]->backward(current);
  }
  return current;
}

std::vector<parameter*> sequential::parameters() {
  std::vector<parameter*> out;
  for (const layer_ptr& child : children_) {
    for (parameter* p : child->parameters()) out.push_back(p);
  }
  return out;
}

std::vector<named_parameter> sequential::named_parameters(
    const std::string& prefix) {
  std::vector<named_parameter> out;
  for (std::size_t i = 0; i < children_.size(); ++i) {
    const std::string child_prefix =
        (prefix.empty() ? "" : prefix + ".") + std::to_string(i);
    for (named_parameter& np : children_[i]->named_parameters(child_prefix)) {
      out.push_back(np);
    }
  }
  return out;
}

std::vector<named_tensor> sequential::state(const std::string& prefix) {
  std::vector<named_tensor> out;
  for (std::size_t i = 0; i < children_.size(); ++i) {
    const std::string child_prefix =
        (prefix.empty() ? "" : prefix + ".") + std::to_string(i);
    for (named_tensor& nt : children_[i]->state(child_prefix)) {
      out.push_back(nt);
    }
  }
  return out;
}

shape sequential::output_shape(const shape& input) const {
  shape current = input;
  for (const layer_ptr& child : children_) {
    current = child->output_shape(current);
  }
  return current;
}

std::uint64_t sequential::flops(const shape& input) const {
  std::uint64_t total = 0;
  shape current = input;
  for (const layer_ptr& child : children_) {
    total += child->flops(current);
    current = child->output_shape(current);
  }
  return total;
}

std::vector<sequential::child_report> sequential::summarize(
    const shape& input) const {
  std::vector<child_report> out;
  shape current = input;
  for (std::size_t i = 0; i < children_.size(); ++i) {
    child_report report;
    report.flops = children_[i]->flops(current);
    current = children_[i]->output_shape(current);
    report.output = current;
    report.name = std::to_string(i) + ":" + children_[i]->kind();
    out.push_back(std::move(report));
  }
  return out;
}

}  // namespace appeal::nn
