// The benchmark's workloads: what each serves, its offline reference
// answers, and the serving stack (in-process stub + server + one
// deployment) it runs on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/two_head_network.hpp"
#include "loadgen.hpp"
#include "serve/cloud_model.hpp"
#include "serve/server.hpp"
#include "serve/transport/stub_server.hpp"
#include "spans.hpp"

namespace perfbench {

struct workload_config {
  std::string name;
  std::string edge = "replay";      // replay | fp32 | int8
  double skip_rate = 0.9;           // share of requests kept on the edge
  std::size_t stub_workers = 1;
  std::size_t pool = 4096;          // distinct inputs, reused cyclically
  double low_rps = 0.0;
  double high_rps = 0.0;
  double slo_hint_rps = 0.0;        // where the slo search starts
  double limit_ms = 0.0;            // the slo search's p99 limit
};

/// The seeded input pool plus the answer the served system must give for
/// each entry at the fixed δ.
struct reference {
  request_pool pool;
  std::vector<std::size_t> little;  // edge prediction per entry
  std::vector<double> scores;       // edge appeal score per entry
  std::vector<std::size_t> big;     // cloud prediction (appealed entries)
  double delta = 0.0;
  appeal::tensor calibration;       // int8 rewrite sample (int8 only)

  std::size_t expected_class(std::size_t item) const {
    return pool.to_cloud[item] != 0 ? big[item] : little[item];
  }
};

/// Builds the pool from `seed` and computes every reference answer
/// offline: the little network (or replay table) over every entry, δ at
/// the workload's skip rate, and the synthetic big model for the entries
/// the little network sends to the cloud.
reference build_reference(const workload_config& cfg, std::uint64_t seed);

/// The canonical edge network served by the network workloads.
appeal::core::two_head_config edge_net_config();

/// The edge network `cfg` serves: the int8 rewrite calibrated on
/// `calibration`, or the folded fp32 network (also for replay workloads,
/// whose layer rows time it).
std::unique_ptr<appeal::core::two_head_network> make_edge_net(
    const workload_config& cfg, const appeal::tensor& calibration);

/// The canonical cloud ResNet at the edge network's input geometry (timed
/// layer by layer in the traced run).
appeal::serve::cloud_model_config cloud_model();

/// One deployment (1 shard, 2 edge workers, fixed δ) appealing over a
/// Unix-domain socket to an in-process stub_server. With `spans` set,
/// every edge backend, stub scorer and the local fallback are wrapped in
/// span-recording decorators.
class serving_stack {
 public:
  serving_stack(const workload_config& cfg, const reference& ref,
                std::uint64_t seed, const std::string& endpoint,
                span_log* spans);
  ~serving_stack();

  serving_stack(const serving_stack&) = delete;
  serving_stack& operator=(const serving_stack&) = delete;

  appeal::serve::server& server() { return *server_; }
  appeal::serve::deployment& deployment() { return *deployment_; }
  appeal::serve::stub_server& stub() { return *stub_; }

 private:
  std::unique_ptr<appeal::serve::stub_server> stub_;
  std::unique_ptr<appeal::serve::server> server_ =
      std::make_unique<appeal::serve::server>();
  appeal::serve::deployment* deployment_ = nullptr;
};

}  // namespace perfbench
