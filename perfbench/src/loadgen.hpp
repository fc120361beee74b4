// Open-loop load generator: a seeded Poisson schedule submitted from one
// thread, completions observed by one collector thread.
//
// Every request is timed from its due time on the schedule, so a stall in
// the server charges every request queued behind it, and the generator's
// own lateness (sent - due) is reported. The collector never waits on
// futures in submit order: it sweeps every outstanding request for
// completion and blocks (bounded) on the oldest request expected to stay
// on the edge, so a fast edge answer is not charged for a slower appeal
// submitted before it.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "serve/server.hpp"

namespace perfbench {

using clock = std::chrono::steady_clock;

/// What the generator needs from a workload: how to build the request for
/// pool item `item`, and which route the offline reference expects (the
/// collector blocks on expected-edge requests first).
struct request_pool {
  std::string model;
  std::vector<appeal::tensor> images;  // empty: requests carry no tensor
  std::vector<std::size_t> labels;
  std::vector<char> to_cloud;

  std::size_t size() const { return labels.size(); }
  appeal::serve::inference_request make(std::size_t item) const;
};

struct phase_plan {
  double rate = 0.0;       // requests per second
  double seconds = 0.0;    // schedule length
  std::uint64_t seed = 0;  // Poisson schedule seed
  std::size_t first_item = 0;  // pool position of the first request
  /// Stop submitting once the generator runs this late (0 = never); a
  /// probe far beyond capacity then ends early instead of queueing.
  double abort_lag_ms = 0.0;
};

/// One request of a phase, in submit order.
struct request_record {
  std::size_t item = 0;
  clock::time_point due;
  clock::time_point sent;       // just before server::submit
  clock::time_point submitted;  // server::submit returned
  clock::time_point done;       // completion observed by the collector
  appeal::serve::response resp;
};

struct phase_run {
  std::vector<request_record> records;  // every request actually submitted
  bool aborted = false;
  double wall_seconds = 0.0;  // first due time -> last completion
  double cpu_seconds = 0.0;   // process CPU time over the phase
  std::size_t next_item = 0;  // pool position after the last request
};

/// Runs one open-loop phase against `srv` and returns once every
/// submitted request has completed.
phase_run run_phase(appeal::serve::server& srv, const request_pool& pool,
                    const phase_plan& plan);

double ms_between(clock::time_point from, clock::time_point to);

/// Process CPU time (user + system), seconds.
double process_cpu_seconds();

}  // namespace perfbench
