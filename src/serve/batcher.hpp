// Dynamic batch formation: take what is queued, wait only when it pays.
//
// The batcher blocks for the first request, then takes everything
// already queued, up to `max_batch_size`, under one lock. A partial
// batch waits for batch-mates only when the queue's arrival rate says it
// fills within `max_wait` — (max_batch_size − taken) × mean enqueue gap
// ≤ max_wait — and otherwise dispatches at once (flush reason `idle`).
// A lone request on a quiet system so never waits out `max_wait`, while
// near saturation batches still fill and amortize the edge model's fixed
// per-batch cost. (Never waiting costs throughput when service time is
// near zero: batches stay small and worker wake-ups take the CPU the
// producers need.)
//
// Deadline awareness: a wait is capped at the tightest deadline in the
// forming batch minus `deadline_margin` (a budget for the inference
// that still has to happen), so a near-deadline request never waits out
// a max_wait that guarantees its expiry at the worker — flushing exactly
// AT the deadline would still shed it.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/request_queue.hpp"

namespace appeal::serve {

/// Flush policy of the dynamic batcher.
struct batch_policy {
  std::size_t max_batch_size = 16;
  /// The longest a request waits for batch-mates.
  std::chrono::microseconds max_wait{500};
  /// How far BEFORE the tightest member deadline the flush fires — the
  /// service-time allowance that lets the capping request actually run
  /// instead of being shed the instant it reaches a worker.
  std::chrono::microseconds deadline_margin{1000};
};

/// Why a batch was emitted (exposed for tests and stats): full; a
/// partial batch dispatched without waiting (`idle`); a wait that ran
/// out; or the queue closed.
enum class flush_reason { batch_full, idle, wait_expired, queue_closed };

/// One formed batch.
struct batch {
  std::vector<request> requests;
  flush_reason reason = flush_reason::queue_closed;
  bool empty() const { return requests.empty(); }
};

/// Pulls dynamic batches off a request_queue. Each edge worker owns a
/// batcher over the shared queue; the engine lets only one of them form
/// a batch at a time.
class batcher {
 public:
  batcher(request_queue& queue, const batch_policy& policy);

  /// Blocks for the next batch. An empty batch (reason `queue_closed`)
  /// means the queue is closed and drained — the worker should exit.
  batch next_batch();

 private:
  /// True when the rest of the batch should arrive within max_wait at the
  /// queue's current arrival rate.
  bool expect_fill(std::size_t taken) const;

  request_queue& queue_;
  batch_policy policy_;
  /// Registry instruments shared by every batcher (one per edge worker):
  /// emitted batch sizes, and flushes indexed by flush_reason as
  /// {reason=full|idle|timeout|closed}.
  obs::histogram& metric_batch_size_;
  std::array<obs::counter*, 4> metric_flush_;
};

}  // namespace appeal::serve
