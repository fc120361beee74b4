#include "serve/batcher.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace appeal::serve {

namespace {

using clock = std::chrono::steady_clock;

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
      metric_flush_{&flush_counter("full"), &flush_counter("idle"),
                    &flush_counter("timeout"), &flush_counter("closed")} {
  APPEAL_CHECK(policy.max_batch_size > 0, "max_batch_size must be positive");
  APPEAL_CHECK(policy.max_wait.count() >= 0, "max_wait must be non-negative");
  APPEAL_CHECK(policy.deadline_margin.count() >= 0,
               "deadline_margin must be non-negative");
}

bool batcher::expect_fill(std::size_t taken) const {
  const std::chrono::nanoseconds gap = queue_.mean_enqueue_gap();
  if (gap == std::chrono::nanoseconds::max()) return false;  // no estimate
  const double fill_ns = static_cast<double>(policy_.max_batch_size - taken) *
                         static_cast<double>(gap.count());
  return fill_ns <= static_cast<double>(
                        std::chrono::nanoseconds(policy_.max_wait).count());
}

batch batcher::next_batch() {
  using pop_result = request_queue::pop_result;
  batch out;
  std::vector<request>& reqs = out.requests;
  const std::size_t max = policy_.max_batch_size;
  // Flush no later than a service margin BEFORE the tightest member
  // deadline: waiting out max_wait past it guarantees the worker sheds
  // the request, and flushing exactly at it would still arrive expired.
  auto flush_at = clock::time_point::max();
  const auto take = [&](clock::time_point until) {
    const std::size_t before = reqs.size();
    const pop_result result = queue_.pop_many(reqs, max, until);
    const clock::time_point now = clock::now();
    for (std::size_t i = before; i < reqs.size(); ++i) {
      reqs[i].dequeue_time = now;
      if (reqs[i].deadline != request::no_deadline) {
        flush_at = std::min(flush_at, reqs[i].deadline - policy_.deadline_margin);
      }
    }
    return result;
  };

  // Block for the first request, then take everything already queued
  // (poll in coarse slices so a close() during the wait is picked up
  // promptly even on platforms with spurious-wakeup-free condvars).
  pop_result result;
  do {
    result = take(clock::now() + std::chrono::milliseconds(50));
  } while (result == pop_result::timed_out);
  if (result == pop_result::closed) {
    out.reason = flush_reason::queue_closed;
  } else if (reqs.size() == max) {
    out.reason = flush_reason::batch_full;
  } else if (policy_.max_wait.count() == 0 || !expect_fill(reqs.size())) {
    out.reason = flush_reason::idle;
  } else {
    flush_at = std::min(flush_at, reqs.front().dequeue_time + policy_.max_wait);
    while (reqs.size() < max && (result = take(flush_at)) == pop_result::item) {
    }
    out.reason = reqs.size() == max            ? flush_reason::batch_full
                 : result == pop_result::closed ? flush_reason::queue_closed
                                                : flush_reason::wait_expired;
  }
  // Instruments only real batches: the empty queue-closed batch is the
  // worker-exit signal, not a flush.
  if (!out.empty()) {
    metric_batch_size_.observe(static_cast<double>(reqs.size()));
    metric_flush_[static_cast<std::size_t>(out.reason)]->add(1);
  }
  return out;
}

}  // namespace appeal::serve
