// The cloud-side big network, buildable anywhere on the link.
//
// The edge process (bench_serving, serving_demo) and the cloud process
// (tools/cloud_stub) must construct bit-identical big models from the
// same few knobs: nn/serialize loads by qualified name with exact shape
// checks, so both sides need the same architecture before weights load.
// This header is that shared recipe — a canonical spec (the paper's
// ResNet cloud model at bench geometry), deterministic initialization,
// optional serialized weights, and the conv+BN deployment fold — plus the
// batched scorer the stub's worker pool runs cloud batches through.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "models/model_spec.hpp"
#include "nn/sequential.hpp"
#include "serve/transport/stub_server.hpp"

namespace appeal::serve {

/// How to build (and optionally restore) one big network.
struct cloud_model_config {
  models::model_spec spec;
  /// Deterministic weight init: the same seed on both ends of the link
  /// yields the same model even with no weights file.
  std::uint64_t init_seed = 0xB16;
  /// Serialized weights (nn/serialize format, e.g. from
  /// tools/train_cloud_model or serving_demo --save_big). Empty keeps the
  /// seeded initialization. Architecture mismatches throw (load_model
  /// matches tensors by name and shape).
  std::string weights_path;
  /// Fold conv+batchnorm pairs after loading (the standard deployment
  /// rewrite; turn off only to save weights in trainable form).
  bool fold = true;

  cloud_model_config() : spec(default_big_spec()) {}

  /// The canonical cloud model of the serving benches: the ResNet family
  /// (the paper's cloud side) at depth 2, 16x16 inputs, 10 classes —
  /// matching bench_serving's workload and serving_demo's big_spec.
  static models::model_spec default_big_spec();
};

/// Builds the big classifier: make_classifier(spec) with seeded init,
/// then weights (if any), then the conv+BN fold. Ready for
/// network_cloud_backend or make_network_scorer_factory.
std::unique_ptr<nn::sequential> make_cloud_model(const cloud_model_config& cfg);

/// Scorer factory for stub_server: each worker gets its own model built
/// from `cfg` (forwards use thread-local workspaces; instances are not
/// shared across workers). Appeals score as ONE stacked batch per
/// same-shape group — network_cloud_backend's batch path — so a cloud
/// batch pays one im2col + GEMM per layer. Appeals without a tensor
/// payload answer key % num_classes (replay workloads carry no pixels;
/// the convention the argmax scorer uses).
stub_server::scorer_factory make_network_scorer_factory(
    const cloud_model_config& cfg);

}  // namespace appeal::serve
