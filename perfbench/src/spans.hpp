// Spans recorded from outside the program, around the public calls the
// benchmark hands it: each worker's edge_backend::infer, the stub's batch
// scorer, and the channel's local fallback cloud_backend. Nothing inside
// src/ is instrumented; the decorators below forward every call unchanged
// and only stamp its start, end and the request keys it carried.
//
// Spans stay in memory during the traced phase; the benchmark attributes
// them to requests afterwards and writes them out when it ends.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "loadgen.hpp"
#include "serve/backends.hpp"
#include "serve/transport/stub_server.hpp"

namespace perfbench {

/// One call into a layer: which boundary, when, and for which requests.
struct call_span {
  const char* name = "";  // "edge_infer" | "stub_score" | "fallback"
  clock::time_point start;
  clock::time_point end;
  std::vector<std::uint64_t> keys;
};

class span_log {
 public:
  void record(call_span&& span);
  /// Moves out everything recorded so far.
  std::vector<call_span> take();

 private:
  std::mutex mutex_;
  std::vector<call_span> spans_;  // guarded by mutex_
};

std::unique_ptr<appeal::serve::edge_backend> traced(
    std::unique_ptr<appeal::serve::edge_backend> inner, span_log& log);

std::unique_ptr<appeal::serve::cloud_backend> traced(
    std::unique_ptr<appeal::serve::cloud_backend> inner, span_log& log);

appeal::serve::stub_server::scorer_factory traced(
    appeal::serve::stub_server::scorer_factory inner, span_log& log);

}  // namespace perfbench
