// End-to-end serving engine tests (the engine stays usable standalone,
// without the serve::server facade): every submitted request completes,
// stats are self-consistent (also read live, and against the registry
// instruments they are kept in), with a fixed δ the online accuracy/SR equal
// the offline core::threshold evaluation of the same population, owned
// factory backends (built concurrently, each on its worker's thread; a
// failed construction leaves no worker running), and deadline expiry.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/threshold.hpp"
#include "metrics/metrics.hpp"
#include "obs/metrics.hpp"
#include "serve/deployment.hpp"
#include "serve/engine.hpp"
#include "tensor/gemm.hpp"
#include "tensor/gemm_s8.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace {

using namespace appeal;

struct population {
  std::vector<std::size_t> labels;
  std::vector<std::size_t> little;
  std::vector<std::size_t> big;
  std::vector<double> scores;
};

/// Synthetic workload mirroring the offline test fixtures: a little model
/// that is right ~80% of the time, a big model right ~97%, and scores
/// correlated with little-correctness (easy inputs score high).
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
  cfg.channel.time_scale = 0.0;  // no simulated delays in unit tests
  return cfg;
}

TEST(engine, fixed_delta_matches_offline_evaluation) {
  const std::size_t n = 4000;
  const population p = make_population(n, 31);
  const double delta = 0.55;

  serve::replay_edge_backend edge(p.little, p.scores);
  serve::replay_cloud_backend cloud(p.big);

  serve::engine_config cfg = fast_config();
  cfg.threshold.adapt = serve::threshold_config::mode::fixed;
  cfg.threshold.initial_delta = delta;
  serve::engine eng(
      cfg, serve::engine_resources::standalone(edge, cloud));

  std::vector<std::future<serve::response>> futures;
  futures.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    futures.push_back(eng.submit(tensor(), i, p.labels[i]));
  }
  eng.drain();

  // Offline ground truth for the identical population and δ.
  core::accuracy_context ctx;
  ctx.little_accuracy = metrics::accuracy(p.little, p.labels);
  ctx.big_accuracy = metrics::accuracy(p.big, p.labels);
  const core::operating_point offline =
      core::evaluate_at_delta(p.little, p.big, p.labels, p.scores, delta, ctx);

  const serve::stats_snapshot s = eng.stats().snapshot();
  EXPECT_EQ(s.completed, n);
  EXPECT_EQ(s.edge_kept + s.appealed, n);
  EXPECT_EQ(s.labeled, n);
  EXPECT_NEAR(s.achieved_sr, offline.skipping_rate, 1e-12);
  EXPECT_NEAR(s.online_accuracy, offline.overall_accuracy, 1e-12);

  // Per-response invariants: the route follows the threshold rule and the
  // prediction comes from the routed model.
  for (std::size_t i = 0; i < n; ++i) {
    const serve::response r = futures[i].get();
    const std::size_t key = r.id;  // ids are submit order here
    ASSERT_LT(key, n);
    if (r.taken == serve::route::edge) {
      EXPECT_GE(r.score, delta);
    } else {
      EXPECT_LT(r.score, delta);
    }
    EXPECT_DOUBLE_EQ(r.delta, delta);
    EXPECT_GE(r.latency_ms, 0.0);
  }
}

TEST(engine, adaptive_mode_tracks_target_sr) {
  const std::size_t n = 6000;
  const population p = make_population(n, 37);

  serve::replay_edge_backend edge(p.little, p.scores);
  serve::replay_cloud_backend cloud(p.big);

  serve::engine_config cfg = fast_config();
  cfg.threshold.adapt = serve::threshold_config::mode::track_sr;
  cfg.threshold.target_sr = 0.85;
  cfg.threshold.initial_delta = 0.99;  // start far off target
  cfg.threshold.recalibrate_every = 128;
  cfg.threshold.window = 1024;
  serve::engine eng(
      cfg, serve::engine_resources::standalone(edge, cloud));

  // Warm the controller through its first recalibration windows, then
  // measure steady state only (the serving bench does the same): how
  // long the cold-start transient lasts depends on scheduling — under a
  // sanitizer it can stretch far enough to drag the overall SR outside
  // any fixed tolerance.
  const std::size_t warmup = 2000;
  for (std::size_t i = 0; i < warmup; ++i) {
    eng.submit(tensor(), i, p.labels[i]);
  }
  eng.drain();
  eng.reset_stats();
  for (std::size_t i = warmup; i < n; ++i) {
    eng.submit(tensor(), i, p.labels[i]);
  }
  eng.drain();

  const serve::stats_snapshot s = eng.stats().snapshot();
  EXPECT_EQ(s.completed, n - warmup);
  // 2% of target in steady state (the acceptance bound of the serving
  // bench).
  EXPECT_NEAR(s.achieved_sr, 0.85, 0.02);
  EXPECT_NEAR(eng.controller().observed_sr(), 0.85, 0.05);
  EXPECT_GT(eng.controller().recalibrations(), 0U);
}

TEST(engine, unlabeled_requests_are_excluded_from_accuracy) {
  const std::size_t n = 200;
  const population p = make_population(n, 41);
  serve::replay_edge_backend edge(p.little, p.scores);
  serve::replay_cloud_backend cloud(p.big);

  serve::engine_config cfg = fast_config();
  cfg.threshold.adapt = serve::threshold_config::mode::fixed;
  serve::engine eng(
      cfg, serve::engine_resources::standalone(edge, cloud));
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t label =
        i % 2 == 0 ? p.labels[i] : serve::request::no_label;
    eng.submit(tensor(), i, label);
  }
  eng.drain();
  const serve::stats_snapshot s = eng.stats().snapshot();
  EXPECT_EQ(s.completed, n);
  EXPECT_EQ(s.labeled, n / 2);
}

TEST(engine, owning_factory_constructor_serves_like_references) {
  const std::size_t n = 1000;
  const population p = make_population(n, 53);
  const double delta = 0.55;

  serve::engine_config cfg = fast_config();
  cfg.threshold.adapt = serve::threshold_config::mode::fixed;
  cfg.threshold.initial_delta = delta;
  serve::engine eng(
      cfg,
      serve::engine_resources::owning(
          [&p](std::size_t) {
            return std::make_unique<serve::replay_edge_backend>(p.little,
                                                                p.scores);
          },
          [&p] {
            return std::make_unique<serve::replay_cloud_backend>(p.big);
          }));

  for (std::size_t i = 0; i < n; ++i) {
    eng.submit(tensor(), i, p.labels[i]);
  }
  eng.drain();
  const serve::stats_snapshot s = eng.stats().snapshot();
  EXPECT_EQ(s.completed, n);
  EXPECT_EQ(s.edge_kept + s.appealed, n);
  EXPECT_GT(s.edge_kept, 0U);
  EXPECT_GT(s.appealed, 0U);

  // An engine over borrowed backends splits the same workload the same
  // way at the same δ: the resources only change who owns what.
  serve::replay_edge_backend edge(p.little, p.scores);
  serve::replay_cloud_backend cloud(p.big);
  serve::engine standalone(cfg,
                           serve::engine_resources::standalone(edge, cloud));
  for (std::size_t i = 0; i < n; ++i) {
    standalone.submit(tensor(), i, p.labels[i]);
  }
  standalone.drain();
  const serve::stats_snapshot r = standalone.stats().snapshot();
  EXPECT_EQ(r.edge_kept, s.edge_kept);
  EXPECT_EQ(r.appealed, s.appealed);
}

/// Replay backend that remembers the thread that built it and counts the
/// batches it serves on any other thread, and the instances still alive.
class thread_checked_edge : public serve::replay_edge_backend {
 public:
  thread_checked_edge(const population& p, std::atomic<int>& wrong_thread,
                      std::atomic<int>& alive)
      : replay_edge_backend(p.little, p.scores),
        builder_(std::this_thread::get_id()),
        wrong_thread_(wrong_thread),
        alive_(alive) {
    alive_.fetch_add(1);
  }
  ~thread_checked_edge() override { alive_.fetch_sub(1); }
  serve::edge_inference infer(const std::vector<serve::request>& batch)
      override {
    if (std::this_thread::get_id() != builder_) wrong_thread_.fetch_add(1);
    return replay_edge_backend::infer(batch);
  }

 private:
  std::thread::id builder_;
  std::atomic<int>& wrong_thread_;
  std::atomic<int>& alive_;
};

TEST(engine, workers_build_their_backends_concurrently_on_their_own_threads) {
  // Every factory call waits until all of them have started: a serial
  // build times out in the first call instead of hanging.
  const std::size_t n = 1000;
  const population p = make_population(n, 61);
  serve::engine_config cfg = fast_config();
  cfg.num_workers = 3;
  std::mutex mutex;
  std::condition_variable all_arrived;
  std::vector<std::thread::id> builders;
  std::size_t built = 0;
  std::atomic<int> wrong_thread{0};
  std::atomic<int> alive{0};
  const auto factory = [&](std::size_t worker) {
    std::unique_lock<std::mutex> lock(mutex);
    builders.push_back(std::this_thread::get_id());
    all_arrived.notify_all();
    EXPECT_TRUE(all_arrived.wait_for(lock, std::chrono::seconds(3), [&] {
      return builders.size() == cfg.num_workers;
    })) << "worker " << worker << " built alone: the builds ran serially";
    ++built;
    return std::make_unique<thread_checked_edge>(p, wrong_thread, alive);
  };
  {
    serve::engine eng(cfg, serve::engine_resources::owning(factory, [&p] {
                        return std::make_unique<serve::replay_cloud_backend>(
                            p.big);
                      }));
    {
      // The constructor returned only once every backend existed.
      std::lock_guard<std::mutex> lock(mutex);
      EXPECT_EQ(built, cfg.num_workers);
      ASSERT_EQ(builders.size(), cfg.num_workers);
      for (std::size_t i = 0; i < builders.size(); ++i) {
        EXPECT_NE(builders[i], std::this_thread::get_id());
        for (std::size_t j = i + 1; j < builders.size(); ++j) {
          EXPECT_NE(builders[i], builders[j]);
        }
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      eng.submit(tensor(), i, p.labels[i]);
    }
    eng.drain();
    EXPECT_EQ(eng.stats().snapshot().completed, n);
    EXPECT_EQ(alive.load(), static_cast<int>(cfg.num_workers));
  }
  EXPECT_EQ(wrong_thread.load(), 0)
      << "a backend served a batch on a thread other than its builder's";
  EXPECT_EQ(alive.load(), 0);
}

TEST(engine, failed_construction_leaves_no_worker_running) {
  // Worker 1's factory throws: construction rethrows its error after
  // joining every worker, so the backends the others built are gone by
  // the time the exception arrives.
  const population p = make_population(16, 67);
  serve::engine_config cfg = fast_config();
  cfg.num_workers = 3;
  std::atomic<int> wrong_thread{0};
  std::atomic<int> alive{0};
  const auto factory = [&](std::size_t worker)
      -> std::unique_ptr<serve::edge_backend> {
    if (worker == 1) throw util::error("worker 1 cannot build");
    return std::make_unique<thread_checked_edge>(p, wrong_thread, alive);
  };
  const auto cloud = [&p] {
    return std::make_unique<serve::replay_cloud_backend>(p.big);
  };
  try {
    serve::engine eng(cfg, serve::engine_resources::owning(factory, cloud));
    ADD_FAILURE() << "engine construction did not throw";
  } catch (const util::error& e) {
    EXPECT_NE(std::string(e.what()).find("worker 1 cannot build"),
              std::string::npos)
        << e.what();
  }
  EXPECT_EQ(alive.load(), 0);

  serve::deployment_config dep;
  dep.shard = cfg;
  EXPECT_THROW(serve::deployment("failing", dep,
                                 [&](std::size_t, std::size_t worker) {
                                   return factory(worker);
                                 },
                                 cloud),
               util::error);
  EXPECT_EQ(alive.load(), 0);

  // The workers start building before the channel connects; a channel
  // that cannot be built (a socket transport without an endpoint) joins
  // them too.
  serve::engine_config no_endpoint = cfg;
  no_endpoint.channel.transport = serve::transport_kind::uds;
  EXPECT_THROW(serve::engine(no_endpoint,
                             serve::engine_resources::owning(
                                 [&](std::size_t) {
                                   return std::make_unique<thread_checked_edge>(
                                       p, wrong_thread, alive);
                                 },
                                 cloud)),
               util::error);
  EXPECT_EQ(alive.load(), 0);
  EXPECT_EQ(wrong_thread.load(), 0);
}

TEST(engine, expired_deadline_skips_inference) {
  const std::size_t n = 64;
  const population p = make_population(n, 59);
  serve::replay_edge_backend edge(p.little, p.scores);
  serve::replay_cloud_backend cloud(p.big);

  serve::engine_config cfg = fast_config();
  cfg.threshold.adapt = serve::threshold_config::mode::fixed;
  // A wide batching wait guarantees the queue dwell exceeds the deadline.
  cfg.num_workers = 1;
  cfg.batching.max_batch_size = n;
  cfg.batching.max_wait = std::chrono::microseconds(20'000);
  serve::engine eng(
      cfg, serve::engine_resources::standalone(edge, cloud));

  std::vector<std::future<serve::response>> futures;
  for (std::size_t i = 0; i < n; ++i) {
    serve::inference_request req;
    req.key = i;
    req.label = p.labels[i];
    req.deadline = std::chrono::microseconds(i % 2 == 0 ? 1 : 10'000'000);
    futures.push_back(eng.submit(std::move(req)));
  }
  eng.drain();

  std::size_t expired = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const serve::response r = futures[i].get();
    if (r.status == serve::request_status::expired) {
      ++expired;
      EXPECT_EQ(i % 2, 0U) << "only the 1 µs deadlines may expire";
    }
  }
  EXPECT_GT(expired, 0U);
  const serve::stats_snapshot s = eng.stats().snapshot();
  EXPECT_EQ(s.expired, expired);
  EXPECT_EQ(s.completed + s.expired, n);
  // Expired requests are excluded from SR/accuracy denominators.
  EXPECT_EQ(s.labeled, s.completed);
}

TEST(engine, lone_request_skips_the_batch_wait) {
  // An idle worker dispatches a partial batch at once when the arrival
  // rate says it would not fill: a lone request never waits out
  // max_wait for batch-mates that are not coming.
  const population p = make_population(4, 47);
  serve::replay_edge_backend edge(p.little, p.scores);
  serve::replay_cloud_backend cloud(p.big);
  serve::engine_config cfg = fast_config();
  cfg.batching.max_wait = std::chrono::microseconds(10'000'000);
  serve::engine eng(cfg, serve::engine_resources::standalone(edge, cloud));

  std::future<serve::response> f = eng.submit(tensor(), 0, p.labels[0]);
  ASSERT_EQ(f.wait_for(std::chrono::seconds(1)), std::future_status::ready)
      << "a lone request waited for batch-mates";
  EXPECT_EQ(f.get().status, serve::request_status::ok);
}

/// Replay backend that blocks any batch holding key 0 until released —
/// wedges exactly one edge worker.
class wedge_key0_backend : public serve::edge_backend {
 public:
  wedge_key0_backend(std::vector<std::size_t> predictions,
                     std::vector<double> scores)
      : replay_(std::move(predictions), std::move(scores)) {}

  serve::edge_inference infer(
      const std::vector<serve::request>& batch) override {
    for (const serve::request& r : batch) {
      if (r.key != 0) continue;
      std::unique_lock<std::mutex> lock(mutex_);
      wedged_ = true;
      cv_.notify_all();
      cv_.wait(lock, [&] { return open_; });
    }
    return replay_.infer(batch);
  }

  bool wait_wedged(std::chrono::milliseconds timeout) {
    std::unique_lock<std::mutex> lock(mutex_);
    return cv_.wait_for(lock, timeout, [&] { return wedged_; });
  }
  void open() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      open_ = true;
    }
    cv_.notify_all();
  }

 private:
  serve::replay_edge_backend replay_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool wedged_ = false;
  bool open_ = false;
};

TEST(engine, wedged_worker_leaves_the_other_serving) {
  // A worker holds the form mutex only while forming a batch, never
  // through the forward: with one worker stuck in infer(), the other
  // still forms and serves new requests.
  const population p = make_population(4, 53);
  wedge_key0_backend edge(p.little, p.scores);
  serve::replay_cloud_backend cloud(p.big);
  serve::engine_config cfg = fast_config();
  cfg.threshold.adapt = serve::threshold_config::mode::fixed;
  cfg.threshold.initial_delta = 0.0;  // keep everything on the edge
  serve::engine eng(cfg, serve::engine_resources::standalone(edge, cloud));

  std::future<serve::response> stuck = eng.submit(tensor(), 0, p.labels[0]);
  ASSERT_TRUE(edge.wait_wedged(std::chrono::seconds(5)));
  std::future<serve::response> f = eng.submit(tensor(), 1, p.labels[1]);
  EXPECT_EQ(f.wait_for(std::chrono::seconds(5)), std::future_status::ready)
      << "the free worker did not serve the new request";
  EXPECT_EQ(stuck.wait_for(std::chrono::milliseconds(0)),
            std::future_status::timeout);
  edge.open();
  eng.drain();
  EXPECT_EQ(stuck.get().status, serve::request_status::ok);
  EXPECT_EQ(f.get().taken, serve::route::edge);
}

TEST(engine, submit_after_shutdown_throws) {
  const population p = make_population(16, 43);
  serve::replay_edge_backend edge(p.little, p.scores);
  serve::replay_cloud_backend cloud(p.big);
  serve::engine_config cfg = fast_config();
  serve::engine eng(
      cfg, serve::engine_resources::standalone(edge, cloud));
  eng.submit(tensor(), 0, p.labels[0]);
  eng.shutdown();
  EXPECT_THROW(eng.submit(tensor(), 1, p.labels[1]), util::error);
}

TEST(engine, simulated_link_delay_shows_up_in_cloud_latency) {
  const std::size_t n = 64;
  const population p = make_population(n, 47);
  serve::replay_edge_backend edge(p.little, p.scores);
  serve::replay_cloud_backend cloud(p.big);

  serve::engine_config cfg = fast_config();
  cfg.num_workers = 1;
  cfg.threshold.adapt = serve::threshold_config::mode::fixed;
  cfg.threshold.initial_delta = 2.0;  // appeal everything
  cfg.channel.time_scale = 0.05;      // 5% of the modeled delays
  serve::engine eng(
      cfg, serve::engine_resources::standalone(edge, cloud));

  std::vector<std::future<serve::response>> futures;
  for (std::size_t i = 0; i < n; ++i) {
    futures.push_back(eng.submit(tensor(), i, p.labels[i]));
  }
  eng.drain();

  const double min_link_ms =
      (cfg.link.comm_round_trip_ms + cfg.link.input_kb * cfg.link.comm_ms_per_kb) *
      cfg.channel.time_scale;
  for (auto& f : futures) {
    const serve::response r = f.get();
    EXPECT_EQ(r.taken, serve::route::cloud);
    EXPECT_GE(r.link_ms, min_link_ms * 0.9);
    EXPECT_GE(r.latency_ms, r.link_ms * 0.5);
  }
  const serve::stats_snapshot s = eng.stats().snapshot();
  EXPECT_EQ(s.appealed, n);
  EXPECT_GT(s.mean_link_ms, 0.0);
}

// A scrape names the GEMM kernel this host runs, for both precisions.
TEST(engine, exports_the_gemm_kernels_in_force) {
  const population p = make_population(16, 47);
  serve::replay_edge_backend edge(p.little, p.scores);
  serve::replay_cloud_backend cloud(p.big);
  serve::engine eng(fast_config(),
                    serve::engine_resources::standalone(edge, cloud));
  const std::string text = obs::default_registry().render_prometheus();
  for (const auto& [precision, kernel] :
       {std::pair{"fp32", ops::sgemm_kernel_name()},
        std::pair{"int8", ops::qgemm_kernel_name()}}) {
    const std::string line = std::string("appeal_gemm_kernel_info{kernel=\"") +
                             kernel + "\",precision=\"" + precision +
                             "\"} 1\n";
    EXPECT_NE(text.find(line), std::string::npos) << line;
  }
  eng.shutdown();
}

/// The stats ledger lives in the registry: snapshots taken while four
/// client threads drive the engine must add up, and after the drain every
/// snapshot count equals its registry instrument minus the value it had
/// when the engine (and its baseline) was built. TSan runs this suite.
TEST(engine, live_snapshots_add_up_and_match_the_registry) {
  const std::size_t n = 4000;
  const population p = make_population(n, 61);
  serve::replay_edge_backend edge(p.little, p.scores);
  serve::replay_cloud_backend cloud(p.big);

  const obs::label_set label = {{"deployment", "ledger-test"}};
  obs::metrics_registry& reg = obs::default_registry();
  const auto counter = [&](const char* name) {
    return reg.get_counter(name, label).value();
  };
  const auto summary_count = [&](const char* name) {
    return reg.get_histogram(name, label).snapshot().total;
  };
  const char* const kCounters[] = {
      "appeal_requests_total",      "appeal_completed_total",
      "appeal_edge_total",          "appeal_edge_degraded_total",
      "appeal_appealed_total",      "appeal_shed_total",
      "appeal_expired_total",       "appeal_cloud_expired_requests_total",
      "appeal_labeled_total",       "appeal_labeled_correct_total",
      "appeal_cloud_labeled_total", "appeal_cloud_labeled_correct_total"};
  std::vector<std::uint64_t> base;
  for (const char* name : kCounters) base.push_back(counter(name));
  const std::uint64_t latency_base = summary_count("appeal_latency_ms");
  const std::uint64_t queue_base = summary_count("appeal_queue_wait_ms");
  const std::uint64_t link_base = summary_count("appeal_link_ms");

  serve::engine_config cfg = fast_config();
  cfg.threshold.adapt = serve::threshold_config::mode::fixed;
  cfg.threshold.initial_delta = 0.55;
  cfg.stats.deployment = "ledger-test";
  serve::engine eng(cfg, serve::engine_resources::standalone(edge, cloud));

  std::atomic<bool> done{false};
  std::size_t live_snapshots = 0;
  std::thread reader([&] {
    std::size_t last_completed = 0;
    do {
      const serve::stats_snapshot s = eng.snapshot();
      EXPECT_EQ(s.edge_kept + s.edge_degraded + s.appealed, s.completed);
      EXPECT_EQ(s.completed + s.shed + s.expired + s.cloud_expired,
                s.submitted);
      EXPECT_LE(s.achieved_sr, 1.0);
      EXPECT_GE(s.completed, last_completed);
      last_completed = s.completed;
      ++live_snapshots;
    } while (!done.load());
  });
  constexpr std::size_t kClients = 4;
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (std::size_t i = c; i < n; i += kClients) {
        serve::inference_request req;
        req.key = i;
        // Every 8th request is unlabeled, every 16th has an already
        // blown deadline and expires.
        req.label = i % 8 == 3 ? serve::request::no_label : p.labels[i];
        if (i % 16 == 5) req.deadline = std::chrono::microseconds(-1);
        eng.submit(std::move(req));
      }
    });
  }
  for (auto& t : clients) t.join();
  eng.drain();
  done.store(true);
  reader.join();
  EXPECT_GT(live_snapshots, 0U);

  const serve::stats_snapshot s = eng.snapshot();
  const auto delta = [&](std::size_t i) {
    return static_cast<std::size_t>(counter(kCounters[i]) - base[i]);
  };
  EXPECT_EQ(s.submitted, n);
  EXPECT_EQ(s.submitted, delta(0));
  EXPECT_EQ(s.completed, delta(1));
  EXPECT_EQ(s.edge_kept + s.edge_degraded, delta(2));
  EXPECT_EQ(s.edge_degraded, delta(3));
  EXPECT_EQ(s.appealed, delta(4));
  EXPECT_EQ(s.shed, delta(5));
  EXPECT_EQ(s.expired, delta(6));
  EXPECT_EQ(s.cloud_expired, delta(7));
  EXPECT_EQ(s.labeled, delta(8));
  EXPECT_EQ(s.labeled_correct, delta(9));
  EXPECT_EQ(s.cloud_labeled, delta(10));
  EXPECT_EQ(s.cloud_labeled_correct, delta(11));
  EXPECT_EQ(s.completed, summary_count("appeal_latency_ms") - latency_base);
  EXPECT_EQ(s.completed, summary_count("appeal_queue_wait_ms") - queue_base);
  EXPECT_EQ(s.appealed, summary_count("appeal_link_ms") - link_base);
  EXPECT_GT(s.expired, 0U);
  EXPECT_GT(s.appealed, 0U);
  EXPECT_LT(s.labeled, s.completed);
}

}  // namespace
