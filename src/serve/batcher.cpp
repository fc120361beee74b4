#include "serve/batcher.hpp"

#include "util/error.hpp"

namespace appeal::serve {

namespace {

obs::counter& flush_counter(const char* reason) {
  return obs::default_registry().get_counter(
      "appeal_batch_flush_total", {{"reason", reason}},
      "batches emitted, by what triggered the flush");
}

}  // namespace

batcher::batcher(request_queue& queue, const batch_policy& policy)
    : queue_(queue),
      policy_(policy),
      metric_batch_size_(obs::default_registry().get_histogram(
          "appeal_batch_size", {}, "requests per emitted batch")),
      metric_flush_full_(flush_counter("full")),
      metric_flush_timeout_(flush_counter("timeout")),
      metric_flush_closed_(flush_counter("closed")) {
  APPEAL_CHECK(policy.max_batch_size > 0, "max_batch_size must be positive");
  APPEAL_CHECK(policy.max_wait.count() >= 0, "max_wait must be non-negative");
  APPEAL_CHECK(policy.deadline_margin.count() >= 0,
               "deadline_margin must be non-negative");
}

batch batcher::next_batch() {
  using clock = std::chrono::steady_clock;
  batch out;
  // Instruments only real batches: the empty queue-closed batch is the
  // worker-exit signal, not a flush.
  const auto record = [this](const batch& b) {
    if (b.empty()) return;
    metric_batch_size_.observe(static_cast<double>(b.requests.size()));
    switch (b.reason) {
      case flush_reason::batch_full:
        metric_flush_full_.add(1);
        break;
      case flush_reason::wait_expired:
        metric_flush_timeout_.add(1);
        break;
      case flush_reason::queue_closed:
        metric_flush_closed_.add(1);
        break;
    }
  };

  // Block indefinitely for the first request (poll in coarse slices so a
  // close() during the wait is picked up promptly even on platforms with
  // spurious-wakeup-free condvars).
  request first;
  for (;;) {
    const auto result =
        queue_.pop_until(first, clock::now() + std::chrono::milliseconds(50));
    if (result == request_queue::pop_result::item) break;
    if (result == request_queue::pop_result::closed) {
      out.reason = flush_reason::queue_closed;
      record(out);
      return out;
    }
  }
  first.dequeue_time = clock::now();
  // Flush when max_wait elapses — or sooner, if a request already in the
  // forming batch would expire first. Waiting out the full window past a
  // member's deadline guarantees the worker sheds it; flushing a service
  // margin BEFORE the tightest deadline gives it a chance to run in time
  // (flushing exactly at the deadline would still arrive expired).
  auto flush_at = first.dequeue_time + policy_.max_wait;
  const auto cap_at_deadline = [this, &flush_at](const request& r) {
    if (r.deadline == request::no_deadline) return;
    const auto capped = r.deadline - policy_.deadline_margin;
    if (capped < flush_at) flush_at = capped;
  };
  cap_at_deadline(first);
  out.requests.push_back(std::move(first));

  while (out.requests.size() < policy_.max_batch_size) {
    request next;
    const auto result = queue_.pop_until(next, flush_at);
    if (result == request_queue::pop_result::item) {
      next.dequeue_time = clock::now();
      cap_at_deadline(next);
      out.requests.push_back(std::move(next));
      continue;
    }
    out.reason = result == request_queue::pop_result::closed
                     ? flush_reason::queue_closed
                     : flush_reason::wait_expired;
    record(out);
    return out;
  }
  out.reason = flush_reason::batch_full;
  record(out);
  return out;
}

}  // namespace appeal::serve
