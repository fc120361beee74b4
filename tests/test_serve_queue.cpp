// Dedicated request_queue suite: FIFO + priority-lane ordering,
// try_push admission limits, close/drain semantics, deadline batch pops,
// the enqueue-gap EWMA, and concurrent producers/consumers.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "serve/request_queue.hpp"
#include "util/error.hpp"

namespace {

using namespace appeal;
using namespace std::chrono_literals;

serve::request make_request(
    std::uint64_t id,
    serve::priority_class p = serve::priority_class::interactive) {
  serve::request r;
  r.id = id;
  r.key = id;
  r.priority = p;
  r.enqueue_time = std::chrono::steady_clock::now();
  return r;
}

TEST(serve_queue, fifo_and_size) {
  serve::request_queue queue(8);
  EXPECT_EQ(queue.size(), 0U);
  ASSERT_TRUE(queue.push(make_request(1)));
  ASSERT_TRUE(queue.push(make_request(2)));
  EXPECT_EQ(queue.size(), 2U);

  serve::request out;
  ASSERT_TRUE(queue.try_pop(out));
  EXPECT_EQ(out.id, 1U);
  ASSERT_TRUE(queue.try_pop(out));
  EXPECT_EQ(out.id, 2U);
  EXPECT_FALSE(queue.try_pop(out));
}

TEST(serve_queue, zero_capacity_throws) {
  EXPECT_THROW(serve::request_queue(0), util::error);
}

TEST(serve_queue, interactive_pops_ahead_of_batch) {
  serve::request_queue queue(8);
  ASSERT_TRUE(queue.push(make_request(1, serve::priority_class::batch)));
  ASSERT_TRUE(queue.push(make_request(2, serve::priority_class::batch)));
  ASSERT_TRUE(queue.push(make_request(3, serve::priority_class::interactive)));

  serve::request out;
  ASSERT_TRUE(queue.try_pop(out));
  EXPECT_EQ(out.id, 3U);  // interactive jumps the batch backlog
  ASSERT_TRUE(queue.try_pop(out));
  EXPECT_EQ(out.id, 1U);  // FIFO within the batch lane
  ASSERT_TRUE(queue.try_pop(out));
  EXPECT_EQ(out.id, 2U);
}

TEST(serve_queue, try_push_reports_full_without_blocking) {
  serve::request_queue queue(2);
  EXPECT_EQ(queue.try_push(make_request(1)),
            serve::request_queue::push_result::ok);
  EXPECT_EQ(queue.try_push(make_request(2)),
            serve::request_queue::push_result::ok);
  EXPECT_EQ(queue.try_push(make_request(3)),
            serve::request_queue::push_result::full);
  EXPECT_EQ(queue.size(), 2U);
}

TEST(serve_queue, try_push_limit_overrides_capacity) {
  serve::request_queue queue(2);
  ASSERT_TRUE(queue.push(make_request(1)));
  // A lower limit (batch headroom) refuses below capacity...
  EXPECT_EQ(queue.try_push(make_request(2), /*limit=*/1),
            serve::request_queue::push_result::full);
  // ...and a higher limit (degrade overflow) admits beyond it.
  ASSERT_TRUE(queue.push(make_request(2)));
  EXPECT_EQ(queue.try_push(make_request(3), /*limit=*/4),
            serve::request_queue::push_result::ok);
  EXPECT_EQ(queue.size(), 3U);
}

TEST(serve_queue, try_push_leaves_refused_request_usable) {
  serve::request_queue queue(1);
  ASSERT_TRUE(queue.push(make_request(1)));
  serve::request refused = make_request(42);
  std::future<serve::response> fut = refused.promise.get_future();
  EXPECT_EQ(queue.try_push(std::move(refused)),
            serve::request_queue::push_result::full);
  // The caller can still fulfill the promise (the shed path relies on it).
  EXPECT_EQ(refused.id, 42U);
  serve::response resp;
  resp.status = serve::request_status::shed;
  refused.promise.set_value(resp);
  EXPECT_EQ(fut.get().status, serve::request_status::shed);
}

TEST(serve_queue, close_fails_pushes_and_drains_pops) {
  serve::request_queue queue(4);
  ASSERT_TRUE(queue.push(make_request(1)));
  queue.close();
  EXPECT_FALSE(queue.push(make_request(2)));
  EXPECT_EQ(queue.try_push(make_request(3)),
            serve::request_queue::push_result::closed);

  // The pop that takes the last item of a closed queue already reports
  // closed; later pops report closed with nothing.
  std::vector<serve::request> out;
  const auto deadline = std::chrono::steady_clock::now() + 100ms;
  EXPECT_EQ(queue.pop_many(out, 4, deadline),
            serve::request_queue::pop_result::closed);
  ASSERT_EQ(out.size(), 1U);
  EXPECT_EQ(out[0].id, 1U);
  EXPECT_EQ(queue.pop_many(out, 4, deadline),
            serve::request_queue::pop_result::closed);
  EXPECT_EQ(out.size(), 1U);
}

TEST(serve_queue, pop_times_out_when_empty) {
  serve::request_queue queue(4);
  std::vector<serve::request> out;
  const auto deadline = std::chrono::steady_clock::now() + 10ms;
  EXPECT_EQ(queue.pop_many(out, 4, deadline),
            serve::request_queue::pop_result::timed_out);
  EXPECT_TRUE(out.empty());
}

TEST(serve_queue, pop_many_takes_up_to_max_interactive_first) {
  serve::request_queue queue(8);
  ASSERT_TRUE(queue.push(make_request(1, serve::priority_class::batch)));
  ASSERT_TRUE(queue.push(make_request(2, serve::priority_class::batch)));
  ASSERT_TRUE(queue.push(make_request(3)));
  std::vector<serve::request> out;
  out.push_back(make_request(0));  // appends, never overwrites
  const auto deadline = std::chrono::steady_clock::now() + 100ms;
  EXPECT_EQ(queue.pop_many(out, 3, deadline),
            serve::request_queue::pop_result::item);
  ASSERT_EQ(out.size(), 3U);
  EXPECT_EQ(out[1].id, 3U);  // interactive first
  EXPECT_EQ(out[2].id, 1U);
  EXPECT_EQ(queue.size(), 1U);
}

TEST(serve_queue, mean_enqueue_gap_is_an_ewma_of_enqueue_times) {
  using std::chrono::nanoseconds;
  serve::request_queue queue(8);
  const auto t0 = std::chrono::steady_clock::now();
  const auto push_at = [&](std::uint64_t id, nanoseconds offset) {
    serve::request r = make_request(id);
    r.enqueue_time = t0 + offset;
    ASSERT_TRUE(queue.push(std::move(r)));
  };
  EXPECT_EQ(queue.mean_enqueue_gap(), nanoseconds::max()) << "no estimate";
  push_at(1, nanoseconds(0));
  EXPECT_EQ(queue.mean_enqueue_gap(), nanoseconds::max()) << "one enqueue";
  push_at(2, nanoseconds(1600));
  EXPECT_EQ(queue.mean_enqueue_gap(), nanoseconds(1600)) << "first gap seeds";
  push_at(3, nanoseconds(1600 + 3200));
  EXPECT_EQ(queue.mean_enqueue_gap(), nanoseconds(1600 + 1600 / 16));
  // A racing producer's earlier stamp counts as a zero gap.
  push_at(4, nanoseconds(0));
  EXPECT_EQ(queue.mean_enqueue_gap(),
            nanoseconds(1700 - 1700 / 16));
}

TEST(serve_queue, push_blocks_until_capacity_frees) {
  serve::request_queue queue(1);
  ASSERT_TRUE(queue.push(make_request(1)));

  std::thread producer([&] { EXPECT_TRUE(queue.push(make_request(2))); });
  std::this_thread::sleep_for(20ms);  // producer should now be blocked
  serve::request out;
  ASSERT_TRUE(queue.try_pop(out));
  producer.join();
  EXPECT_EQ(queue.size(), 1U);
}

TEST(serve_queue, close_wakes_blocked_producer) {
  serve::request_queue queue(1);
  ASSERT_TRUE(queue.push(make_request(1)));
  std::thread producer([&] { EXPECT_FALSE(queue.push(make_request(2))); });
  std::this_thread::sleep_for(20ms);
  queue.close();
  producer.join();
}

TEST(serve_queue, concurrent_producers_consumers_deliver_everything) {
  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kConsumers = 3;
  constexpr std::size_t kPerProducer = 500;
  serve::request_queue queue(32);

  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (std::size_t i = 0; i < kPerProducer; ++i) {
        const auto id = static_cast<std::uint64_t>(p * kPerProducer + i);
        const auto pri = i % 3 == 0 ? serve::priority_class::batch
                                    : serve::priority_class::interactive;
        ASSERT_TRUE(queue.push(make_request(id, pri)));
      }
    });
  }

  std::atomic<std::size_t> popped{0};
  std::vector<std::atomic<bool>> seen(kProducers * kPerProducer);
  std::vector<std::thread> consumers;
  for (std::size_t c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      std::vector<serve::request> out;
      for (;;) {
        out.clear();
        const auto result = queue.pop_many(
            out, 4, std::chrono::steady_clock::now() + 50ms);
        for (const serve::request& r : out) {
          ASSERT_LT(r.id, seen.size());
          ASSERT_FALSE(seen[r.id].exchange(true)) << "duplicate delivery";
          popped.fetch_add(1);
        }
        if (result == serve::request_queue::pop_result::closed) return;
      }
    });
  }

  for (auto& t : producers) t.join();
  queue.close();
  for (auto& t : consumers) t.join();

  EXPECT_EQ(popped.load(), kProducers * kPerProducer);
  EXPECT_EQ(queue.size(), 0U);
}

}  // namespace
