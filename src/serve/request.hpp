// In-flight request/response types of the online serving engine.
//
// A request enters through server::submit() (or engine::submit() when the
// engine is used standalone), passes admission control at the queue
// boundary, waits in the request_queue, is pulled into a dynamic batch by
// an edge worker, and completes on the edge (score >= δ, or degraded
// admission), through the cloud_channel after a simulated appeal, or
// immediately with a non-ok status (shed admission, expired deadline).
// The embedded promise is fulfilled exactly once, at completion.
#pragma once

#include <chrono>
#include <cstdint>
#include <future>
#include <limits>
#include <memory>
#include <string>

#include "obs/trace.hpp"
#include "tensor/tensor.hpp"

namespace appeal::serve {

/// Where a completed request was answered. `edge_degraded` means the
/// admission controller forced an edge answer (no cloud appeal allowed)
/// because the queue was saturated.
enum class route { edge, cloud, edge_degraded };

/// How a request left the system. Only `ok` responses carry a meaningful
/// prediction; `shed` was refused at admission, `expired` missed its
/// deadline — either before reaching an edge worker (route::edge) or,
/// after an appeal, before a cloud scorer reached it (route::cloud; the
/// cloud shed it and answered `expired` on the wire).
enum class request_status { ok, shed, expired };

/// SLO class of a request. Interactive traffic gets the full queue
/// capacity and pops ahead of batch traffic; batch traffic is admitted
/// only below the admission controller's batch headroom.
enum class priority_class { interactive, batch };

/// Final answer handed back to the client.
struct response {
  std::uint64_t id = 0;
  std::size_t predicted_class = 0;
  request_status status = request_status::ok;
  route taken = route::edge;
  double score = 0.0;      // edge confidence score (higher = easier)
  double delta = 0.0;      // threshold in force at decision time
  double queue_ms = 0.0;   // enqueue -> pulled into a batch
  double link_ms = 0.0;    // uplink + cloud time (0 on the edge)
  /// Cloud-reported work-queue wait + scoring time for appealed requests
  /// over a socket transport (0 on the edge and under the simulator) —
  /// the honest number to hold against the cost model's cloud term.
  double cloud_ms = 0.0;
  double latency_ms = 0.0; // enqueue -> completion, wall clock
};

/// Client-facing submission: what `server::submit` accepts. `model` names
/// a registered deployment; `deadline` (zero = none) is relative to the
/// submit call and expires the request if no edge worker reaches it in
/// time.
struct inference_request {
  std::string model;
  tensor input;                  // [C, H, W]; may be empty for replay backends
  std::uint64_t key = 0;         // routing/affinity key; replay sample id
  std::size_t label = std::numeric_limits<std::size_t>::max();
  priority_class priority = priority_class::interactive;
  std::chrono::nanoseconds deadline{0};  // 0 = no deadline
};

/// One in-flight inference request (move-only: it carries its promise).
struct request {
  /// Sentinel for "ground truth unknown" — such requests are excluded
  /// from the online-accuracy statistic.
  static constexpr std::size_t no_label = std::numeric_limits<std::size_t>::max();
  /// Sentinel for "no deadline".
  static constexpr std::chrono::steady_clock::time_point no_deadline =
      std::chrono::steady_clock::time_point::max();

  std::uint64_t id = 0;
  tensor input;                  // [C, H, W]; may be empty for replay backends
  std::uint64_t key = 0;         // sample id used by replay backends
  std::size_t label = no_label;  // ground truth when known (stats only)
  priority_class priority = priority_class::interactive;
  bool force_edge = false;       // degraded admission: never appeal
  std::chrono::steady_clock::time_point deadline = no_deadline;
  std::chrono::steady_clock::time_point enqueue_time;
  std::chrono::steady_clock::time_point dequeue_time;
  std::promise<response> promise;
  /// Sampled trace span riding the request (null for the unsampled
  /// majority). Stages are stamped at each boundary; the engine
  /// finalizes and hands it to the trace collector at completion.
  std::unique_ptr<obs::trace_span> trace;
};

}  // namespace appeal::serve
