#include "serve/pipeline/pipeline_node.hpp"

namespace appeal::serve::pipeline {

namespace {

obs::counter& node_counter(const char* family, const std::string& deployment,
                           const std::string& node, const char* help) {
  obs::label_set labels;
  if (!deployment.empty()) labels.emplace_back("deployment", deployment);
  labels.emplace_back("node", node);
  return obs::default_registry().get_counter(family, std::move(labels), help);
}

}  // namespace

pipeline_node::pipeline_node(std::string name, const std::string& deployment)
    : name_(std::move(name)),
      metric_in_(node_counter("appeal_node_in_total", deployment, name_,
                              "requests that entered this pipeline node")),
      metric_out_(node_counter("appeal_node_out_total", deployment, name_,
                               "requests this node forwarded downstream")),
      metric_egress_(
          node_counter("appeal_node_egress_total", deployment, name_,
                       "requests that left the graph at this node")) {}

}  // namespace appeal::serve::pipeline
