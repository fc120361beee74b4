#include "serve/request_queue.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace appeal::serve {

request_queue::request_queue(std::size_t capacity) : capacity_(capacity) {
  APPEAL_CHECK(capacity > 0, "request_queue capacity must be positive");
}

bool request_queue::push(request&& r, std::size_t limit) {
  if (limit == 0) limit = capacity_;
  std::unique_lock<std::mutex> lock(mutex_);
  not_full_.wait(lock,
                 [&] { return closed_ || size_locked() < limit; });
  if (closed_) return false;
  push_locked(std::move(r));
  lock.unlock();
  not_empty_.notify_one();
  return true;
}

request_queue::push_result request_queue::try_push(request&& r,
                                                   std::size_t limit) {
  if (limit == 0) limit = capacity_;
  std::unique_lock<std::mutex> lock(mutex_);
  if (closed_) return push_result::closed;
  if (size_locked() >= limit) return push_result::full;
  push_locked(std::move(r));
  lock.unlock();
  not_empty_.notify_one();
  return push_result::ok;
}

void request_queue::push_locked(request&& r) {
  if (any_pushed_) {
    const std::int64_t gap = std::max<std::int64_t>(
        0, std::chrono::duration_cast<std::chrono::nanoseconds>(
               r.enqueue_time - last_enqueue_)
               .count());
    const std::int64_t mean = mean_gap_ns_.load(std::memory_order_relaxed);
    mean_gap_ns_.store(
        mean == std::chrono::nanoseconds::max().count()
            ? gap
            : mean + (gap - mean) / 16,
        std::memory_order_relaxed);
  }
  any_pushed_ = true;
  last_enqueue_ = std::max(last_enqueue_, r.enqueue_time);
  lane(r.priority).push_back(std::move(r));
}

bool request_queue::pop_locked(request& out) {
  if (!interactive_.empty()) {
    out = std::move(interactive_.front());
    interactive_.pop_front();
  } else if (!batch_.empty()) {
    out = std::move(batch_.front());
    batch_.pop_front();
  } else {
    return false;
  }
  return true;
}

request_queue::pop_result request_queue::pop_many(
    std::vector<request>& out, std::size_t max,
    std::chrono::steady_clock::time_point deadline) {
  std::unique_lock<std::mutex> lock(mutex_);
  not_empty_.wait_until(lock, deadline,
                        [&] { return closed_ || size_locked() > 0; });
  const std::size_t before = out.size();
  request r;
  while (out.size() < max && pop_locked(r)) out.push_back(std::move(r));
  const bool drained_closed = closed_ && size_locked() == 0;
  lock.unlock();
  // Producers wait on heterogeneous limits (batch headroom vs full
  // capacity), so notify_one could wake a waiter whose predicate is
  // still false and strand another whose predicate just became true.
  if (out.size() > before) not_full_.notify_all();
  if (drained_closed) return pop_result::closed;
  return out.size() > before ? pop_result::item : pop_result::timed_out;
}

bool request_queue::try_pop(request& out) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (!pop_locked(out)) return false;
  lock.unlock();
  not_full_.notify_all();  // heterogeneous producer limits; see pop_many
  return true;
}

void request_queue::close() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }
  not_full_.notify_all();
  not_empty_.notify_all();
}

std::size_t request_queue::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return size_locked();
}

}  // namespace appeal::serve
