#include "serve/cloud_model.hpp"

#include <map>
#include <utility>
#include <vector>

#include "models/model_zoo.hpp"
#include "nn/fold.hpp"
#include "nn/serialize.hpp"
#include "serve/backends.hpp"
#include "util/rng.hpp"

namespace appeal::serve {

models::model_spec cloud_model_config::default_big_spec() {
  models::model_spec spec;
  spec.family = models::model_family::resnet;
  spec.depth = 2;
  spec.image_size = 16;
  spec.num_classes = 10;
  return spec;
}

std::unique_ptr<nn::sequential> make_cloud_model(
    const cloud_model_config& cfg) {
  util::rng gen(cfg.init_seed);
  std::unique_ptr<nn::sequential> net = models::make_classifier(cfg.spec, gen);
  if (!cfg.weights_path.empty()) {
    nn::load_model(*net, cfg.weights_path);
  }
  if (cfg.fold) {
    nn::fold_conv_batchnorm(*net);
  }
  return net;
}

stub_server::scorer_factory make_network_scorer_factory(
    const cloud_model_config& cfg) {
  return [cfg](std::size_t) -> stub_server::batch_scorer_fn {
    // One model per worker (never shared across threads), owned by its
    // backend; forwards draw from the calling worker's thread-local
    // inference workspace.
    auto backend =
        std::make_shared<network_cloud_backend>(make_cloud_model(cfg));
    const std::size_t classes = cfg.spec.num_classes;
    return [backend,
            classes](const std::vector<const wire::appeal_record*>& batch) {
      std::vector<std::size_t> out(batch.size(), 0);
      // One stacked forward per input shape (appeals from one deployment
      // share a shape; a stub serving several deployments still batches
      // within each).
      std::map<std::vector<std::size_t>, std::vector<std::size_t>> groups;
      for (std::size_t i = 0; i < batch.size(); ++i) {
        const wire::appeal_record& a = *batch[i];
        if (a.input.empty()) {
          // No pixels on the wire (replay workloads): the argmax-scorer
          // convention keeps the stub usable under them.
          out[i] =
              classes == 0 ? 0 : static_cast<std::size_t>(a.key % classes);
        } else {
          groups[a.input.dims().dims()].push_back(i);
        }
      }
      for (const auto& [dims, indices] : groups) {
        std::vector<const tensor*> inputs;
        inputs.reserve(indices.size());
        for (const std::size_t i : indices) {
          inputs.push_back(&batch[i]->input);
        }
        const std::vector<std::size_t> predictions =
            backend->infer_batch(inputs);
        for (std::size_t j = 0; j < indices.size(); ++j) {
          out[indices[j]] = predictions[j];
        }
      }
      return out;
    };
  };
}

}  // namespace appeal::serve
