// Tests for the dynamic batcher: size-triggered, idle and
// timeout-triggered flushes, the arrival-rate rule that decides between
// the last two, the deadline cap on a wait, and close/drain semantics.
// (request_queue has its own suite in test_serve_queue.cpp.)
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "serve/batcher.hpp"
#include "serve/request_queue.hpp"
#include "util/error.hpp"

namespace {

using namespace appeal;
using namespace std::chrono_literals;

serve::request make_request(std::uint64_t id) {
  serve::request r;
  r.id = id;
  r.key = id;
  r.enqueue_time = std::chrono::steady_clock::now();
  return r;
}

/// Feeds the queue's arrival-rate estimate `count` enqueues spaced `gap`
/// apart, ending now, then empties the queue again.
void prime_arrivals(serve::request_queue& queue,
                    std::chrono::nanoseconds gap, std::size_t count = 8) {
  const auto end = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < count; ++i) {
    serve::request r = make_request(1000 + i);
    r.enqueue_time = end - gap * static_cast<long>(count - 1 - i);
    ASSERT_TRUE(queue.push(std::move(r)));
  }
  serve::request out;
  while (queue.try_pop(out)) {
  }
}

TEST(batcher, size_triggered_flush_does_not_wait) {
  serve::request_queue queue(32);
  serve::batch_policy policy;
  policy.max_batch_size = 4;
  policy.max_wait = std::chrono::microseconds(10'000'000);  // "forever"
  serve::batcher form(queue, policy);

  for (std::uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(queue.push(make_request(i)));
  }
  const auto before = std::chrono::steady_clock::now();
  const serve::batch b = form.next_batch();
  const auto took = std::chrono::steady_clock::now() - before;

  EXPECT_EQ(b.requests.size(), 4U);
  EXPECT_EQ(b.reason, serve::flush_reason::batch_full);
  // A full queue must flush immediately, far below the 10 s wait bound.
  EXPECT_LT(took, 1s);
}

TEST(batcher, timeout_triggered_flush_emits_partial_batch) {
  serve::request_queue queue(32);
  serve::batch_policy policy;
  policy.max_batch_size = 16;
  policy.max_wait = std::chrono::microseconds(5000);  // 5 ms
  serve::batcher form(queue, policy);

  // Fast arrivals predict a fill within max_wait, so the batcher waits;
  // nothing more comes and the wait runs out.
  prime_arrivals(queue, std::chrono::microseconds(1));
  ASSERT_TRUE(queue.push(make_request(7)));
  const serve::batch b = form.next_batch();
  EXPECT_EQ(b.requests.size(), 1U);
  EXPECT_EQ(b.reason, serve::flush_reason::wait_expired);
  EXPECT_EQ(b.requests.front().id, 7U);
}

TEST(batcher, close_flushes_remainder_then_reports_closed) {
  serve::request_queue queue(32);
  serve::batch_policy policy;
  policy.max_batch_size = 16;
  policy.max_wait = std::chrono::microseconds(10'000'000);
  serve::batcher form(queue, policy);

  ASSERT_TRUE(queue.push(make_request(1)));
  ASSERT_TRUE(queue.push(make_request(2)));
  queue.close();

  const serve::batch partial = form.next_batch();
  EXPECT_EQ(partial.requests.size(), 2U);
  EXPECT_EQ(partial.reason, serve::flush_reason::queue_closed);

  const serve::batch done = form.next_batch();
  EXPECT_TRUE(done.empty());
  EXPECT_EQ(done.reason, serve::flush_reason::queue_closed);
}

TEST(batcher, tight_deadline_caps_the_flush_wait) {
  // A request whose deadline lands inside the max_wait window must not
  // wait out the whole window (that would guarantee expiry at the
  // worker): the flush fires at the tightest member deadline instead.
  serve::request_queue queue(32);
  serve::batch_policy policy;
  policy.max_batch_size = 16;
  policy.max_wait = std::chrono::microseconds(10'000'000);  // "forever"
  serve::batcher form(queue, policy);

  prime_arrivals(queue, std::chrono::microseconds(1));
  serve::request tight = make_request(11);
  tight.deadline = std::chrono::steady_clock::now() + 20ms;
  ASSERT_TRUE(queue.push(std::move(tight)));
  const auto before = std::chrono::steady_clock::now();
  const serve::batch b = form.next_batch();
  const auto took = std::chrono::steady_clock::now() - before;

  EXPECT_EQ(b.requests.size(), 1U);
  EXPECT_EQ(b.reason, serve::flush_reason::wait_expired);
  EXPECT_LT(took, 5s) << "flush must not wait out max_wait";
  // The request is still alive at flush time (the whole point): its
  // deadline had not passed when the batch formed.
  EXPECT_EQ(b.requests.front().id, 11U);
}

TEST(batcher, late_arrival_with_tight_deadline_shortens_the_window) {
  // The first request has no deadline; a follower with a tight one joins
  // the forming batch and must pull the flush forward for everyone.
  serve::request_queue queue(32);
  serve::batch_policy policy;
  policy.max_batch_size = 16;
  policy.max_wait = std::chrono::microseconds(10'000'000);
  serve::batcher form(queue, policy);

  prime_arrivals(queue, std::chrono::microseconds(1));
  ASSERT_TRUE(queue.push(make_request(1)));
  std::thread producer([&queue] {
    std::this_thread::sleep_for(5ms);
    serve::request tight = make_request(2);
    tight.deadline = std::chrono::steady_clock::now() + 20ms;
    ASSERT_TRUE(queue.push(std::move(tight)));
  });
  const auto before = std::chrono::steady_clock::now();
  const serve::batch b = form.next_batch();
  const auto took = std::chrono::steady_clock::now() - before;
  producer.join();

  EXPECT_EQ(b.requests.size(), 2U);
  EXPECT_EQ(b.reason, serve::flush_reason::wait_expired);
  EXPECT_LT(took, 5s) << "the follower's deadline must cap the flush";
}

TEST(batcher, lone_request_dispatches_without_waiting) {
  // No arrival-rate estimate yet (one enqueue): nothing says the batch
  // would fill, so the request goes at once instead of waiting 10 s.
  serve::request_queue queue(32);
  serve::batch_policy policy;
  policy.max_batch_size = 16;
  policy.max_wait = std::chrono::microseconds(10'000'000);
  serve::batcher form(queue, policy);

  ASSERT_TRUE(queue.push(make_request(3)));
  const auto before = std::chrono::steady_clock::now();
  const serve::batch b = form.next_batch();
  const auto took = std::chrono::steady_clock::now() - before;

  EXPECT_EQ(b.requests.size(), 1U);
  EXPECT_EQ(b.reason, serve::flush_reason::idle);
  EXPECT_LT(took, 1s);
}

TEST(batcher, slow_arrivals_dispatch_what_is_queued) {
  // Gaps of 1 s: the 13 missing requests would take 13 s, past the
  // 10 ms wait bound, so the three queued ones go at once.
  serve::request_queue queue(32);
  serve::batch_policy policy;
  policy.max_batch_size = 16;
  policy.max_wait = std::chrono::microseconds(10'000);
  serve::batcher form(queue, policy);

  prime_arrivals(queue, std::chrono::seconds(1));
  for (std::uint64_t i = 0; i < 3; ++i) {
    serve::request r = make_request(i);
    r.enqueue_time += std::chrono::seconds(1) * static_cast<long>(i + 1);
    ASSERT_TRUE(queue.push(std::move(r)));
  }
  const serve::batch b = form.next_batch();
  EXPECT_EQ(b.requests.size(), 3U) << "takes everything already queued";
  EXPECT_EQ(b.reason, serve::flush_reason::idle);
  EXPECT_EQ(b.requests[0].id, 0U);
  EXPECT_EQ(b.requests[2].id, 2U);
}

TEST(batcher, fast_arrivals_wait_and_fill_the_batch) {
  // Gaps of 1 µs predict the batch fills in microseconds, well within
  // max_wait: the batcher waits for the late half instead of dispatching
  // the first half alone.
  serve::request_queue queue(32);
  serve::batch_policy policy;
  policy.max_batch_size = 8;
  policy.max_wait = std::chrono::microseconds(10'000'000);
  serve::batcher form(queue, policy);

  prime_arrivals(queue, std::chrono::microseconds(1));
  for (std::uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(queue.push(make_request(i)));
  }
  std::thread producer([&queue] {
    std::this_thread::sleep_for(20ms);
    for (std::uint64_t i = 4; i < 8; ++i) {
      ASSERT_TRUE(queue.push(make_request(i)));
    }
  });
  const serve::batch b = form.next_batch();
  producer.join();

  EXPECT_EQ(b.requests.size(), 8U);
  EXPECT_EQ(b.reason, serve::flush_reason::batch_full);
  for (std::uint64_t i = 0; i < 8; ++i) EXPECT_EQ(b.requests[i].id, i);
}

TEST(batcher, invalid_policy_throws) {
  serve::request_queue queue(4);
  serve::batch_policy policy;
  policy.max_batch_size = 0;
  EXPECT_THROW(serve::batcher(queue, policy), util::error);
}

}  // namespace
