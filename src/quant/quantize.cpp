#include "quant/quantize.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <utility>

#include "nn/conv2d.hpp"
#include "nn/linear.hpp"
#include "nn/residual.hpp"
#include "nn/sequential.hpp"
#include "obs/metrics.hpp"
#include "quant/qlayers.hpp"
#include "util/error.hpp"

namespace appeal::quant {

namespace {

/// Samples per calibration forward: the engine's max_batch_size in every
/// served configuration, so calibration touches the served working set.
constexpr std::size_t kCalibrationChunk = 16;

/// Pass-through wrapper that records the min/max of everything flowing
/// into its inner layer during the calibration forward. The observed
/// range becomes the layer's per-tensor activation grid.
class range_observer final : public nn::layer {
 public:
  range_observer() = default;

  void adopt(nn::layer_ptr inner) { inner_ = std::move(inner); }
  nn::layer& inner() { return *inner_; }

  const char* kind() const override { return "range_observer"; }

  tensor forward(const tensor& input, bool training) override {
    const float* p = input.data();
    const std::size_t n = input.size();
    for (std::size_t i = 0; i < n; ++i) {
      lo_ = std::min(lo_, p[i]);
      hi_ = std::max(hi_, p[i]);
    }
    seen_ = seen_ || n > 0;
    return inner_->forward(input, training);
  }
  tensor backward(const tensor& grad_output) override {
    return inner_->backward(grad_output);
  }
  shape output_shape(const shape& input) const override {
    return inner_->output_shape(input);
  }
  std::uint64_t flops(const shape& input) const override {
    return inner_->flops(input);
  }
  std::vector<nn::parameter*> parameters() override {
    return inner_->parameters();
  }

  bool seen() const { return seen_; }

  /// The activation grid for the observed range. Zero is pulled into the
  /// range so im2col's zero padding (and a ReLU-clipped floor) lands
  /// EXACTLY on the zero_point code — otherwise a post-ReLU min > 0 would
  /// shrink the grid and clamp the true maximum.
  nn::quant_params activation_params() const {
    const float span[2] = {std::min(lo_, 0.0F), std::max(hi_, 0.0F)};
    return nn::choose_quant_params(std::span<const float>(span, 2), 8,
                                   /*symmetric=*/false);
  }

 private:
  nn::layer_ptr inner_;
  float lo_ = std::numeric_limits<float>::max();
  float hi_ = std::numeric_limits<float>::lowest();
  bool seen_ = false;
};

/// One rewrite site: a dense conv2d or a linear sitting in `parent`'s
/// slot `index`. Depthwise/grouped convs are recorded (for the skipped
/// count) but never rewritten.
struct candidate {
  nn::sequential* parent = nullptr;
  std::size_t index = 0;
  std::string path;
  bool is_conv = false;
  bool dense = true;
  range_observer* observer = nullptr;
};

void collect_candidates(nn::sequential& seq, const std::string& prefix,
                        std::vector<candidate>& out) {
  for (std::size_t i = 0; i < seq.size(); ++i) {
    nn::layer& child = seq.child(i);
    const std::string path = prefix + "." + std::to_string(i);
    if (auto* conv = dynamic_cast<nn::conv2d*>(&child)) {
      out.push_back({&seq, i, path, true, conv->groups() == 1, nullptr});
    } else if (dynamic_cast<nn::linear*>(&child) != nullptr) {
      out.push_back({&seq, i, path, false, true, nullptr});
    } else if (auto* nested = dynamic_cast<nn::sequential*>(&child)) {
      collect_candidates(*nested, path, out);
    } else if (auto* res = dynamic_cast<nn::residual*>(&child)) {
      collect_candidates(res->body(), path + ".body", out);
      if (res->has_projection()) {
        collect_candidates(res->projection(), path + ".proj", out);
      }
    }
  }
}

std::vector<candidate> discover(core::two_head_network& net) {
  std::vector<candidate> out;
  collect_candidates(net.extractor(), "extractor", out);
  collect_candidates(net.approximator_head(), "approx_head", out);
  return out;
}

}  // namespace

int quant_report::min_bits() const {
  int bits = 8;
  for (const layer_quant_info& info : layers) bits = std::min(bits, info.bits);
  return bits;
}

quant_report quantize_two_head(core::two_head_network& net,
                               const tensor& calibration,
                               std::span<const int> bits_per_layer) {
  APPEAL_CHECK(calibration.dims().rank() == 4 && calibration.batch() > 0,
               "quantize_two_head: calibration batch must be NCHW with N > 0");
  net.prepare_for_inference();

  std::vector<candidate> candidates = discover(net);
  std::size_t quantizable = 0;
  for (const candidate& c : candidates) {
    if (c.dense) ++quantizable;
  }
  APPEAL_CHECK(quantizable > 0,
               "quantize_two_head: no float conv2d/linear layers found — "
               "network already quantized?");
  APPEAL_CHECK(bits_per_layer.empty() || bits_per_layer.size() == quantizable,
               "quantize_two_head: bits_per_layer has " +
                   std::to_string(bits_per_layer.size()) + " entries for " +
                   std::to_string(quantizable) + " quantizable layers");

  // Install observers in front of every rewrite site, run the calibration
  // forward (full two-head, so the approximator head sees real features)
  // over consecutive chunks of the calibration batch, then swap each
  // observed float layer for its quantized twin. Every layer computes a
  // sample the same bits at any batch size and min/max ignores grouping,
  // so the chunked ranges equal those of one full-batch pass.
  for (candidate& c : candidates) {
    if (!c.dense) continue;
    auto obs = std::make_unique<range_observer>();
    c.observer = obs.get();
    nn::layer_ptr original = c.parent->replace_child(c.index, std::move(obs));
    c.observer->adopt(std::move(original));
  }
  const shape& dims = calibration.dims();
  const std::size_t samples = dims.batch();
  const std::size_t per_sample = calibration.size() / samples;
  for (std::size_t begin = 0; begin < samples; begin += kCalibrationChunk) {
    const std::size_t count = std::min(kCalibrationChunk, samples - begin);
    tensor chunk(shape{count, dims.channels(), dims.height(), dims.width()});
    std::copy_n(calibration.data() + begin * per_sample, count * per_sample,
                chunk.data());
    net.forward(chunk, /*training=*/false);
  }

  quant_report report;
  std::size_t k = 0;
  for (candidate& c : candidates) {
    if (!c.dense) {
      ++report.skipped;
      continue;
    }
    APPEAL_CHECK(c.observer->seen(),
                 "quantize_two_head: calibration never reached " + c.path);
    qlayer_params qp;
    qp.weight_bits = bits_per_layer.empty() ? 8
                                            : bits_per_layer[k];
    APPEAL_CHECK(qp.weight_bits >= 2 && qp.weight_bits <= 8,
                 "quantize_two_head: weight bits must be in [2, 8]");
    qp.act = c.observer->activation_params();

    layer_quant_info info;
    info.index = k++;
    info.path = c.path;
    info.bits = qp.weight_bits;
    nn::layer_ptr qlayer;
    if (c.is_conv) {
      auto& conv = dynamic_cast<nn::conv2d&>(c.observer->inner());
      auto q = std::make_unique<qconv2d>(conv, qp);
      info.kind = q->kind();
      info.weight_rmse = q->weight_rmse();
      info.weight_count = conv.weight().value.size();
      qlayer = std::move(q);
    } else {
      auto& lin = dynamic_cast<nn::linear&>(c.observer->inner());
      auto q = std::make_unique<qlinear>(lin, qp);
      info.kind = q->kind();
      info.weight_rmse = q->weight_rmse();
      info.weight_count = lin.weight().value.size();
      qlayer = std::move(q);
    }
    // Dropping the returned observer frees the float layer it adopted.
    c.parent->replace_child(c.index, std::move(qlayer));
    report.layers.push_back(std::move(info));
    ++report.quantized;
  }
  return report;
}

std::size_t count_quantizable_layers(core::two_head_network& net) {
  net.prepare_for_inference();
  std::size_t n = 0;
  for (const candidate& c : discover(net)) {
    if (c.dense) ++n;
  }
  return n;
}

void publish_edge_bits(const quant_report& report,
                       const std::string& deployment) {
  obs::default_registry()
      .get_gauge("appeal_edge_bits", {{"deployment", deployment}},
                 "narrowest weight bit-width deployed on the edge path")
      .set(static_cast<double>(report.min_bits()));
}

}  // namespace appeal::quant
