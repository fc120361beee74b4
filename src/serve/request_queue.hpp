// Bounded thread-safe priority FIFO of in-flight requests.
//
// Two lanes: interactive requests always pop ahead of batch requests
// (FIFO within a lane); capacity covers both lanes together. Producers
// choose their admission semantics — push() blocks while the queue is
// full (the `block` admission policy), try_push() never blocks and
// reports `full` so the admission controller can shed or degrade
// instead. Consumers (the batcher, on behalf of edge workers) pop with a
// deadline so batch formation can time out. close() wakes everyone; pops
// drain remaining items first.
//
// Every push also folds the gap since the previous request's
// enqueue_time into an EWMA (α = 1/16) under the lock it already holds;
// the batcher reads it to judge whether a partial batch would fill
// within its wait bound.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "serve/request.hpp"

namespace appeal::serve {

class request_queue {
 public:
  explicit request_queue(std::size_t capacity);

  /// Outcome of a deadline pop (pop_many).
  enum class pop_result { item, timed_out, closed };

  /// Outcome of a non-blocking push.
  enum class push_result { ok, full, closed };

  /// Blocks while the queue holds `limit` or more items (0 = the
  /// configured capacity; admission policies pass the batch-class
  /// headroom here). Returns false (request untouched apart from the
  /// move) when the queue is closed.
  bool push(request&& r, std::size_t limit = 0);

  /// Non-blocking push. `limit` overrides the admission bound for this
  /// call (0 = the configured capacity): admission policies use a lower
  /// bound for batch-class traffic and a higher one for degraded
  /// (edge-only) overflow. On `full` or `closed` the request is left
  /// valid in the caller's hands.
  push_result try_push(request&& r, std::size_t limit = 0);

  /// Blocks until an item arrives, the deadline passes, or the queue is
  /// closed *and* drained; then moves everything already queued
  /// (interactive lane first) onto the back of `out` until it holds
  /// `max` requests, all under one lock. Returns `item` when it moved at
  /// least one request and the queue is still open, `timed_out` when it
  /// moved none, and `closed` once the queue is closed and has nothing
  /// left — possibly after moving its last requests.
  pop_result pop_many(std::vector<request>& out, std::size_t max,
                      std::chrono::steady_clock::time_point deadline);

  /// Non-blocking pop; true when an item was available.
  bool try_pop(request& out);

  /// EWMA of the gaps between successive pushes' enqueue_times (a racing
  /// producer's earlier stamp counts as a zero gap). duration::max() until
  /// two requests have been pushed: no estimate, no evidence a batch
  /// would fill. Lock-free read.
  std::chrono::nanoseconds mean_enqueue_gap() const {
    return std::chrono::nanoseconds(
        mean_gap_ns_.load(std::memory_order_relaxed));
  }

  /// Closes the queue: future pushes fail, pops drain then report closed.
  void close();

  std::size_t size() const;
  std::size_t capacity() const { return capacity_; }

 private:
  // Callers hold mutex_.
  std::size_t size_locked() const {
    return interactive_.size() + batch_.size();
  }
  std::deque<request>& lane(priority_class p) {
    return p == priority_class::interactive ? interactive_ : batch_;
  }
  bool pop_locked(request& out);
  void push_locked(request&& r);

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<request> interactive_;
  std::deque<request> batch_;
  // Written under mutex_, read lock-free by mean_enqueue_gap().
  std::atomic<std::int64_t> mean_gap_ns_{
      std::chrono::nanoseconds::max().count()};
  std::chrono::steady_clock::time_point last_enqueue_{};
  bool any_pushed_ = false;
  bool closed_ = false;
};

}  // namespace appeal::serve
