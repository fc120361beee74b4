// The engine's four request ledgers (ingress, edge_infer, appeal_decide,
// cloud_appeal): conservation against engine-level stats, backpressure
// from a wedged edge worker to admission, lossless shutdown with requests
// still in flight (also when every request appeals and cloud completions
// race the deciding worker), and the exported appeal_node_* counters of a
// two-worker engine balancing in the registry's Prometheus rendering.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "prometheus_sample.hpp"
#include "serve/engine.hpp"
#include "util/rng.hpp"

namespace {

using namespace appeal;
using appeal::testing::prometheus_sample;

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
/// Call after shutdown(): ingress counts a request only after pushing it
/// into the request_queue, where a worker may already have taken it, so
/// the books are guaranteed balanced once the edge workers are joined and
/// the channel drained, not merely once every promise resolved.
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

/// Holds every edge forward that reaches it until opened, so the request
/// queues fill and admission must react.
class edge_gate {
 public:
  void pass() {
    std::unique_lock<std::mutex> lock(mutex_);
    entered_.fetch_add(1, std::memory_order_relaxed);
    cv_.wait(lock, [&] { return open_; });
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
  std::mutex mutex_;
  std::condition_variable cv_;
  bool open_ = false;
  std::atomic<std::size_t> entered_{0};
};

/// Replay edge backend whose infer() waits at a gate first.
class gated_edge_backend : public serve::edge_backend {
 public:
  gated_edge_backend(edge_gate& gate, std::vector<std::size_t> predictions,
                     std::vector<double> scores)
      : gate_(gate), replay_(std::move(predictions), std::move(scores)) {}

  serve::edge_inference infer(
      const std::vector<serve::request>& batch) override {
    gate_.pass();
    return replay_.infer(batch);
  }

 private:
  edge_gate& gate_;
  serve::replay_edge_backend replay_;
};

TEST(pipeline_engine, backpressure_reaches_admission_when_a_stage_wedges) {
  const std::size_t n = 600;
  const population p = make_population(n, 67);
  edge_gate gate;
  gated_edge_backend edge(gate, p.little, p.scores);
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
  EXPECT_LE(gate.entered(), 1U);
  EXPECT_GT(eng.admission().shed(), 0U)
      << "backpressure never reached the admission controller";

  gate.open();
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

  // δ = 0.55 keeps most requests on the edge; δ = 1.0 appeals every one,
  // so cloud completions land on the channel's threads while the worker
  // that handed them off is still inside decide().
  for (const double delta : {0.55, 1.0}) {
    SCOPED_TRACE(delta);
    serve::replay_edge_backend edge(p.little, p.scores);
    serve::replay_cloud_backend cloud(p.big);
    serve::engine_config cfg = fast_config();
    cfg.threshold.adapt = serve::threshold_config::mode::fixed;
    cfg.threshold.initial_delta = delta;
    serve::engine eng(cfg, serve::engine_resources::standalone(edge, cloud));

    std::vector<std::future<serve::response>> futures;
    futures.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      futures.push_back(eng.submit(tensor(), i, p.labels[i]));
    }
    // No drain: shut down with the queues still loaded. Shutdown must
    // flush every stage — a broken promise here would throw.
    eng.shutdown();
    for (auto& f : futures) {
      const serve::response r = f.get();
      EXPECT_EQ(r.status, serve::request_status::ok);
    }
    expect_conserved(eng);
    const serve::stats_snapshot s = eng.snapshot();
    EXPECT_EQ(s.completed, n);
    EXPECT_EQ(eng.node_stats()[3].in, s.appealed);
    if (delta == 1.0) {
      EXPECT_EQ(s.appealed, n);
    }
  }
}

/// The exported appeal_node_* columns of each node, by node name.
using exported_ledgers = std::map<std::string, serve::pipeline::node_stats>;

exported_ledgers scrape_ledgers(const std::string& text,
                                const std::string& deployment,
                                const std::vector<std::string>& nodes) {
  exported_ledgers out;
  for (const std::string& node : nodes) {
    const std::string labels =
        "deployment=\"" + deployment + "\",node=\"" + node + "\"";
    serve::pipeline::node_stats& s = out[node];
    s.name = node;
    s.in = static_cast<std::uint64_t>(
        prometheus_sample(text, "appeal_node_in_total", labels));
    s.out = static_cast<std::uint64_t>(
        prometheus_sample(text, "appeal_node_out_total", labels));
    s.egress = static_cast<std::uint64_t>(
        prometheus_sample(text, "appeal_node_egress_total", labels));
  }
  return out;
}

TEST(pipeline_engine, exported_ledgers_conserve_across_two_edge_workers) {
  // The registry is process-wide and cumulative: a name of its own per
  // run keeps the rows this engine's alone (also under --gtest_repeat).
  static int runs = 0;
  const std::string name = "ledger-gate-" + std::to_string(runs++);
  const std::size_t n = 3000;
  const population p = make_population(n, 73);

  serve::engine_config cfg;
  cfg.batching.max_batch_size = 4;
  cfg.batching.max_wait = std::chrono::microseconds(200);
  cfg.num_workers = 2;
  cfg.queue_capacity = 8;
  cfg.admission.policy = serve::admission_policy::shed;
  cfg.channel.time_scale = 0.0;  // sim transport, no delays
  cfg.threshold.adapt = serve::threshold_config::mode::fixed;
  cfg.threshold.initial_delta = 0.55;
  cfg.stats.deployment = name;
  // Both workers' forwards wait at one gate until the first burst has
  // overflowed the small queue, so the shed leg is exercised for sure.
  edge_gate gate;
  serve::engine eng(
      cfg, serve::engine_resources::owning(
               [&](std::size_t) {
                 return std::make_unique<gated_edge_backend>(gate, p.little,
                                                             p.scores);
               },
               [&] {
                 return std::make_unique<serve::replay_cloud_backend>(p.big);
               }));

  std::vector<std::future<serve::response>> futures;
  futures.reserve(n);
  const auto submit = [&](std::size_t i) {
    serve::inference_request req;
    req.key = i;
    req.label = p.labels[i];
    // 1 µs deadlines expire in the queue (the expired leg); the long
    // ones never do.
    if (i % 4 == 0) {
      req.deadline = std::chrono::microseconds(i % 8 == 0 ? 1 : 10'000'000);
    }
    futures.push_back(eng.submit(std::move(req)));
  };
  const std::size_t burst = 200;
  for (std::size_t i = 0; i < burst; ++i) submit(i);
  gate.open();
  for (std::size_t i = burst; i < n; ++i) submit(i);
  eng.drain();
  eng.shutdown();
  for (auto& f : futures) f.get();

  const std::vector<std::string> order = {"ingress", "edge_infer",
                                          "appeal_decide", "cloud_appeal"};
  const std::string text = obs::default_registry().render_prometheus();
  const exported_ledgers exported = scrape_ledgers(text, name, order);

  for (const std::string& node : order) {
    const serve::pipeline::node_stats& s = exported.at(node);
    EXPECT_EQ(s.in, s.out + s.egress) << "node " << node << " leaks";
    EXPECT_GT(s.in, 0U) << node;
  }
  for (std::size_t k = 0; k + 1 < order.size(); ++k) {
    EXPECT_EQ(exported.at(order[k]).out, exported.at(order[k + 1]).in)
        << order[k] << " -> " << order[k + 1] << " hand-off";
  }
  std::uint64_t egress = 0;
  for (const std::string& node : order) egress += exported.at(node).egress;
  EXPECT_EQ(exported.at("ingress").in, egress);
  EXPECT_EQ(static_cast<double>(egress),
            prometheus_sample(text, "appeal_requests_total",
                              "deployment=\"" + name + "\""));
  EXPECT_EQ(egress, n);

  // Every egress leg ran: shed at ingress, edge-kept and expired at the
  // decision, appeals at the cloud step.
  const serve::stats_snapshot s = eng.snapshot();
  EXPECT_GT(s.shed, 0U);
  EXPECT_GT(s.expired, 0U);
  EXPECT_GT(s.edge_kept, 0U);
  EXPECT_GT(s.appealed, 0U);

  // The registry rows are the engine's own ledgers.
  const std::vector<serve::pipeline::node_stats> rows = eng.node_stats();
  ASSERT_EQ(rows.size(), order.size());
  for (std::size_t k = 0; k < order.size(); ++k) {
    const serve::pipeline::node_stats& row = rows[k];
    EXPECT_EQ(row.name, order[k]);
    const serve::pipeline::node_stats& got = exported.at(order[k]);
    EXPECT_EQ(got.in, row.in) << order[k];
    EXPECT_EQ(got.out, row.out) << order[k];
    EXPECT_EQ(got.egress, row.egress) << order[k];
  }
}

}  // namespace
