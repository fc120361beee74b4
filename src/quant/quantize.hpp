// Post-training quantization of a two-head network onto the int8 kernels.
//
// quantize_two_head() is the deployment entry point for the quantized
// edge path (deployment_config::edge_precision = int8 | auto). It
// prepares the network (batchnorm folding + activation fusion), runs the
// calibration images through it in consecutive chunks of 16 samples (the
// served max_batch_size) with lightweight range observers installed in
// front of every dense conv2d / linear, then rewrites each observed layer
// into quant::qconv2d / quant::qlinear at the requested per-layer
// bit-width. The chunking changes no bit of any activation grid: every
// layer computes a sample the same bits at any batch size, and a min/max
// range does not depend on how the samples are grouped. It keeps peak
// memory at one chunk's activations instead of the whole batch's. Depthwise and grouped convolutions stay float —
// their GEMMs are too thin for the int8 packing to win, and they are a
// tiny share of the MACs. The predictor (appeal) head also stays float:
// it is one tiny FC layer, and its score feeds the routing threshold, so
// it keeps full precision while still SEEING quantized features — the δ
// recalibration in quant/recalibrate.hpp accounts for that shift.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/two_head_network.hpp"

namespace appeal::quant {

/// One rewritten layer, in discovery order (extractor front-to-back, then
/// the approximator head). `index` is the autotuner's handle into
/// bits_per_layer.
struct layer_quant_info {
  std::size_t index = 0;
  std::string path;          // e.g. "extractor.4" or "approx_head.1"
  std::string kind;          // "qconv2d" | "qlinear"
  int bits = 8;
  double weight_rmse = 0.0;  // distortion at the deployed bit-width
  std::size_t weight_count = 0;
};

struct quant_report {
  std::vector<layer_quant_info> layers;
  std::size_t quantized = 0;  // layers running on the int8 kernel
  std::size_t skipped = 0;    // candidates left float (depthwise/grouped)
  /// Narrowest weight grid deployed — what the appeal_edge_bits gauge
  /// reports.
  int min_bits() const;
};

/// Quantizes `net` IN PLACE. `calibration` is a small representative
/// image batch [N, C, H, W] used to set the per-tensor activation grids.
/// `bits_per_layer` is aligned with discovery order (layer_quant_info::
/// index); empty means 8 bits everywhere. Idempotent preparation, but the
/// rewrite itself must run on a float network — quantizing twice throws.
quant_report quantize_two_head(core::two_head_network& net,
                               const tensor& calibration,
                               std::span<const int> bits_per_layer = {});

/// Number of quantizable layers in a network of this architecture —
/// the length of the autotuner's bit vector.
std::size_t count_quantizable_layers(core::two_head_network& net);

/// Publishes the deployed per-network bit-width to observability:
/// appeal_edge_bits{deployment=...} = min over layers (8 when the report
/// is empty / the edge runs fp32 the gauge is simply not set here).
void publish_edge_bits(const quant_report& report,
                       const std::string& deployment);

}  // namespace appeal::quant
