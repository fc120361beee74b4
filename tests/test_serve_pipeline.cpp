// Pipeline-node framework tests: node_queue semantics, topological drain
// ordering, upstream backpressure propagation, per-node conservation
// ledgers against engine-level stats, and lossless shutdown with items
// still in flight.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/engine.hpp"
#include "serve/pipeline/node_queue.hpp"
#include "serve/pipeline/pipeline_node.hpp"
#include "util/rng.hpp"

namespace {

using namespace appeal;
using serve::pipeline::node_queue;

// ------------------------------------------------------------ node_queue

TEST(node_queue, fifo_and_capacity) {
  node_queue<int> q(2);
  EXPECT_EQ(q.capacity(), 2U);
  EXPECT_EQ(q.try_push(1), node_queue<int>::push_result::ok);
  EXPECT_EQ(q.try_push(2), node_queue<int>::push_result::ok);
  EXPECT_EQ(q.try_push(3), node_queue<int>::push_result::full);
  int out = 0;
  ASSERT_EQ(q.pop(out), node_queue<int>::pop_result::item);
  EXPECT_EQ(out, 1);
  ASSERT_EQ(q.pop(out), node_queue<int>::pop_result::item);
  EXPECT_EQ(out, 2);
}

TEST(node_queue, close_drains_before_reporting_closed) {
  node_queue<int> q(4);
  ASSERT_TRUE(q.push(7));
  ASSERT_TRUE(q.push(8));
  q.close();
  EXPECT_FALSE(q.push(9));
  EXPECT_EQ(q.try_push(9), node_queue<int>::push_result::closed);
  int out = 0;
  ASSERT_EQ(q.pop(out), node_queue<int>::pop_result::item);
  EXPECT_EQ(out, 7);
  ASSERT_EQ(q.pop(out), node_queue<int>::pop_result::item);
  EXPECT_EQ(out, 8);
  EXPECT_EQ(q.pop(out), node_queue<int>::pop_result::closed);
}

TEST(node_queue, full_push_blocks_until_pop) {
  node_queue<int> q(1);
  ASSERT_TRUE(q.push(1));
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    ASSERT_TRUE(q.push(2));  // blocks: queue is full
    pushed.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load()) << "push must block while the queue is full";
  int out = 0;
  ASSERT_EQ(q.pop(out), node_queue<int>::pop_result::item);
  producer.join();
  EXPECT_TRUE(pushed.load());
  ASSERT_EQ(q.pop(out), node_queue<int>::pop_result::item);
  EXPECT_EQ(out, 2);
}

// --------------------------------------------- graph lifecycle (toy nodes)

/// Minimal worker node moving ints from its input queue to an optional
/// downstream queue, recording when its input was closed.
class relay_node final : public serve::pipeline::pipeline_node {
 public:
  relay_node(const std::string& name, std::size_t depth,
             node_queue<int>* downstream, std::vector<std::string>& close_log,
             std::mutex& log_mutex)
      : pipeline_node(name, ""),
        input_(depth),
        downstream_(downstream),
        close_log_(close_log),
        log_mutex_(log_mutex) {}

  node_queue<int>& input() { return input_; }

  void start() override {
    thread_ = std::thread([this] {
      int item = 0;
      while (input_.pop(item) == node_queue<int>::pop_result::item) {
        count_in();
        if (downstream_ != nullptr) {
          if (!downstream_->push(std::move(item))) return;
          count_out();
        } else {
          count_egress();
        }
      }
    });
  }
  void close_input() override {
    {
      std::lock_guard<std::mutex> lock(log_mutex_);
      close_log_.push_back(name());
    }
    input_.close();
  }
  void join() override {
    if (thread_.joinable()) thread_.join();
  }

 private:
  node_queue<int> input_;
  node_queue<int>* downstream_;
  std::vector<std::string>& close_log_;
  std::mutex& log_mutex_;
  std::thread thread_;
};

TEST(pipeline_graph, drains_in_topological_order_and_loses_nothing) {
  std::vector<std::string> close_log;
  std::mutex log_mutex;
  relay_node sink("sink", 2, nullptr, close_log, log_mutex);
  relay_node mid("mid", 2, &sink.input(), close_log, log_mutex);
  relay_node head("head", 2, &mid.input(), close_log, log_mutex);

  serve::pipeline::pipeline_graph graph;
  graph.add(head);
  graph.add(mid);
  graph.add(sink);
  graph.start_all();

  const int n = 100;
  for (int i = 0; i < n; ++i) ASSERT_TRUE(head.input().push(int(i)));
  graph.drain_and_stop();

  EXPECT_EQ(close_log, (std::vector<std::string>{"head", "mid", "sink"}));
  // Nothing stranded: every node balanced, the head's intake reached the
  // sink's egress.
  for (const auto& s : graph.stats()) {
    EXPECT_EQ(s.in, s.out + s.egress) << "node " << s.name;
  }
  EXPECT_EQ(head.in_count(), static_cast<std::uint64_t>(n));
  EXPECT_EQ(sink.egress_count(), static_cast<std::uint64_t>(n));
  // Idempotent.
  graph.drain_and_stop();
  EXPECT_EQ(close_log.size(), 3U);
}

// ----------------------------------------------------- engine integration

struct population {
  std::vector<std::size_t> labels;
  std::vector<std::size_t> little;
  std::vector<std::size_t> big;
  std::vector<double> scores;
};

population make_population(std::size_t n, std::uint64_t seed) {
  util::rng gen(seed);
  population p;
  p.labels.resize(n);
  p.little.resize(n);
  p.big.resize(n);
  p.scores.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    p.labels[i] = i % 10;
    const bool little_right = gen.bernoulli(0.8);
    p.little[i] = little_right ? p.labels[i] : (p.labels[i] + 1) % 10;
    p.big[i] = gen.bernoulli(0.97) ? p.labels[i] : (p.labels[i] + 2) % 10;
    p.scores[i] = little_right ? 0.5 + 0.5 * gen.uniform()
                               : 0.7 * gen.uniform();
  }
  return p;
}

serve::engine_config fast_config() {
  serve::engine_config cfg;
  cfg.batching.max_batch_size = 16;
  cfg.batching.max_wait = std::chrono::microseconds(200);
  cfg.num_workers = 2;
  cfg.queue_capacity = 256;
  cfg.channel.time_scale = 0.0;
  return cfg;
}

/// Asserts the full conservation chain over an engine's node ledgers.
/// Call after shutdown(): a producer bumps its out-ledger only after the
/// hand-off push returns, so the books are guaranteed balanced once the
/// graph's threads are joined, not merely once every promise resolved.
void expect_conserved(const serve::engine& eng) {
  const std::vector<serve::pipeline::node_stats> nodes = eng.node_stats();
  ASSERT_EQ(nodes.size(), 4U);
  for (const auto& s : nodes) {
    EXPECT_EQ(s.in, s.out + s.egress) << "node " << s.name << " leaks";
  }
  for (std::size_t i = 0; i + 1 < nodes.size(); ++i) {
    EXPECT_EQ(nodes[i].out, nodes[i + 1].in)
        << nodes[i].name << " -> " << nodes[i + 1].name << " hand-off";
  }
  const serve::stats_snapshot s = eng.snapshot();
  std::uint64_t egress_total = 0;
  for (const auto& node : nodes) egress_total += node.egress;
  EXPECT_EQ(nodes.front().in, s.submitted);
  EXPECT_EQ(egress_total, s.submitted);
  EXPECT_EQ(egress_total, s.completed + s.shed + s.expired + s.cloud_expired);
}

TEST(pipeline_engine, node_ledgers_reconcile_with_engine_stats) {
  const std::size_t n = 4000;
  const population p = make_population(n, 61);
  serve::replay_edge_backend edge(p.little, p.scores);
  serve::replay_cloud_backend cloud(p.big);

  serve::engine_config cfg = fast_config();
  cfg.threshold.adapt = serve::threshold_config::mode::fixed;
  cfg.threshold.initial_delta = 0.55;
  serve::engine eng(cfg, serve::engine_resources::standalone(edge, cloud));

  std::vector<std::future<serve::response>> futures;
  futures.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    serve::inference_request req;
    req.key = i;
    req.label = p.labels[i];
    // A third of the traffic carries deadlines; the 1 µs ones expire in
    // the queue, so the expired-egress leg of the ledger is exercised.
    if (i % 3 == 0) {
      req.deadline = std::chrono::microseconds(i % 6 == 0 ? 1 : 10'000'000);
    }
    futures.push_back(eng.submit(std::move(req)));
  }
  eng.drain();
  eng.shutdown();

  for (auto& f : futures) f.get();  // every promise resolved
  expect_conserved(eng);

  const serve::stats_snapshot s = eng.snapshot();
  EXPECT_GT(s.expired, 0U);
  EXPECT_GT(s.appealed, 0U);
  // Edge-kept + degraded + expired all egress at the decide node; cloud
  // completions at the sink.
  const auto nodes = eng.node_stats();
  EXPECT_EQ(nodes[1].name, "edge_infer");
  EXPECT_EQ(nodes[1].egress, 0U) << "edge workers hand every request on";
  EXPECT_EQ(nodes[2].name, "appeal_decide");
  EXPECT_EQ(nodes[2].egress,
            s.edge_kept + s.edge_degraded + s.expired);
  EXPECT_EQ(nodes[3].name, "cloud_appeal");
  EXPECT_EQ(nodes[3].egress, s.appealed + s.cloud_expired);
  EXPECT_EQ(nodes[3].out, 0U) << "the sink forwards nothing";
}

/// Edge backend whose infer() blocks until released — wedges the edge
/// stage so upstream queues fill and admission must react.
class gated_edge_backend : public serve::edge_backend {
 public:
  gated_edge_backend(std::vector<std::size_t> predictions,
                     std::vector<double> scores)
      : replay_(std::move(predictions), std::move(scores)) {}

  serve::edge_inference infer(
      const std::vector<serve::request>& batch) override {
    std::unique_lock<std::mutex> lock(mutex_);
    entered_.fetch_add(1, std::memory_order_relaxed);
    cv_.wait(lock, [&] { return open_; });
    lock.unlock();
    return replay_.infer(batch);
  }

  void open() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      open_ = true;
    }
    cv_.notify_all();
  }
  std::size_t entered() const {
    return entered_.load(std::memory_order_relaxed);
  }

 private:
  serve::replay_edge_backend replay_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool open_ = false;
  std::atomic<std::size_t> entered_{0};
};

TEST(pipeline_engine, backpressure_reaches_admission_when_a_stage_wedges) {
  const std::size_t n = 600;
  const population p = make_population(n, 67);
  gated_edge_backend edge(p.little, p.scores);
  serve::replay_cloud_backend cloud(p.big);

  serve::engine_config cfg = fast_config();
  cfg.threshold.adapt = serve::threshold_config::mode::fixed;
  cfg.threshold.initial_delta = 0.55;
  cfg.num_workers = 1;
  // Tiny everything: with the edge wedged, the one batch in its worker
  // and a 16-deep request queue are all the system can hold — the rest
  // must shed at the front door.
  cfg.queue_capacity = 16;
  cfg.batching.max_batch_size = 4;
  cfg.admission.policy = serve::admission_policy::shed;
  serve::engine eng(cfg, serve::engine_resources::standalone(edge, cloud));

  std::vector<std::future<serve::response>> futures;
  futures.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    futures.push_back(eng.submit(tensor(), i, p.labels[i]));
  }
  // The wedge held: at most one batch entered the edge stage, and the
  // bounded queues forced admission to shed instead of buffering.
  EXPECT_LE(edge.entered(), 1U);
  EXPECT_GT(eng.admission().shed(), 0U)
      << "backpressure never reached the admission controller";

  edge.open();
  eng.drain();
  eng.shutdown();
  std::size_t ok = 0;
  std::size_t shed = 0;
  for (auto& f : futures) {
    const serve::response r = f.get();
    if (r.status == serve::request_status::shed) {
      ++shed;
    } else {
      ++ok;
    }
  }
  EXPECT_EQ(ok + shed, n);
  EXPECT_GT(ok, 0U);
  EXPECT_GT(shed, 0U);
  expect_conserved(eng);
  const auto nodes = eng.node_stats();
  EXPECT_EQ(nodes[0].name, "ingress");
  EXPECT_EQ(nodes[0].egress, static_cast<std::uint64_t>(shed));
}

TEST(pipeline_engine, shutdown_with_in_flight_items_loses_nothing) {
  const std::size_t n = 2000;
  const population p = make_population(n, 71);
  serve::replay_edge_backend edge(p.little, p.scores);
  serve::replay_cloud_backend cloud(p.big);

  serve::engine_config cfg = fast_config();
  cfg.threshold.adapt = serve::threshold_config::mode::fixed;
  cfg.threshold.initial_delta = 0.55;
  serve::engine eng(cfg, serve::engine_resources::standalone(edge, cloud));

  std::vector<std::future<serve::response>> futures;
  futures.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    futures.push_back(eng.submit(tensor(), i, p.labels[i]));
  }
  // No drain: shut down with the queues still loaded. The topological
  // close must flush every stage — a broken promise here would throw.
  eng.shutdown();
  for (auto& f : futures) {
    const serve::response r = f.get();
    EXPECT_EQ(r.status, serve::request_status::ok);
  }
  expect_conserved(eng);
  const serve::stats_snapshot s = eng.snapshot();
  EXPECT_EQ(s.completed, n);
}

TEST(pipeline_engine, unified_constructor_matches_legacy_shims) {
  const std::size_t n = 1000;
  const population p = make_population(n, 73);
  const double delta = 0.55;

  auto run = [&](serve::engine& eng) {
    for (std::size_t i = 0; i < n; ++i) {
      eng.submit(tensor(), i, p.labels[i]);
    }
    eng.drain();
    return eng.stats().snapshot();
  };

  serve::engine_config cfg = fast_config();
  cfg.threshold.adapt = serve::threshold_config::mode::fixed;
  cfg.threshold.initial_delta = delta;

  serve::replay_edge_backend edge(p.little, p.scores);
  serve::replay_cloud_backend cloud(p.big);
  serve::engine unified(cfg,
                        serve::engine_resources::standalone(edge, cloud));
  const serve::stats_snapshot a = run(unified);

  // A second independently-built standalone engine must serve the same
  // replay workload identically (resource wiring is stateless).
  serve::replay_edge_backend edge2(p.little, p.scores);
  serve::replay_cloud_backend cloud2(p.big);
  serve::engine again(cfg, serve::engine_resources::standalone(edge2, cloud2));
  const serve::stats_snapshot b = run(again);

  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.edge_kept, b.edge_kept);
  EXPECT_EQ(a.appealed, b.appealed);
  EXPECT_DOUBLE_EQ(a.online_accuracy, b.online_accuracy);

  serve::engine owning(
      cfg, serve::engine_resources::owning(
               cfg,
               [&p](std::size_t) {
                 return std::make_unique<serve::replay_edge_backend>(
                     p.little, p.scores);
               },
               [&p] {
                 return std::make_unique<serve::replay_cloud_backend>(p.big);
               }));
  const serve::stats_snapshot c = run(owning);
  EXPECT_EQ(a.edge_kept, c.edge_kept);
  EXPECT_EQ(a.appealed, c.appealed);
}

}  // namespace
