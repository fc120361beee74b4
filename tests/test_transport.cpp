// Transport-layer tests: UDS and TCP loopback against an in-process
// stub_server, cloud_channel coalescing (window and opportunistic),
// demux under adversarial response reordering, the simulator transport's
// counters, and graceful local fallback when the link dies mid-run.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <mutex>
#include <thread>
#include <unistd.h>
#include <vector>

#include "collab/cost_model.hpp"
#include "nn/serialize.hpp"
#include "obs/exporter.hpp"
#include "obs/metrics.hpp"
#include "serve/backends.hpp"
#include "serve/cloud_channel.hpp"
#include "serve/cloud_model.hpp"
#include "serve/engine.hpp"
#include "serve/transport/fault_transport.hpp"
#include "serve/transport/socket_transport.hpp"
#include "serve/transport/stub_server.hpp"
#include "serve/transport/synthetic_scorer.hpp"
#include "util/error.hpp"
#include "util/net.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace appeal;
using namespace appeal::serve;

std::string unique_uds_path(const char* tag) {
  static std::atomic<int> counter{0};
  return "/tmp/appeal-test-" + std::to_string(::getpid()) + "-" + tag + "-" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

/// Scorer the stub-side tests share: a deterministic function of the key.
std::size_t key_scorer(const wire::appeal_record& a) {
  return static_cast<std::size_t>(a.key % 10);
}

request make_request(std::uint64_t key) {
  request r;
  r.id = key;
  r.key = key;
  r.enqueue_time = std::chrono::steady_clock::now();
  return r;
}

/// Collects transport completions for assertions.
struct completion_sink {
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<cloud_transport::completion> all;

  cloud_transport::completion_sink fn() {
    return [this](std::vector<cloud_transport::completion>&& batch) {
      std::lock_guard<std::mutex> lock(mutex);
      for (const auto& c : batch) all.push_back(c);
      cv.notify_all();
    };
  }

  void wait_for(std::size_t n) {
    std::unique_lock<std::mutex> lock(mutex);
    ASSERT_TRUE(cv.wait_for(lock, std::chrono::seconds(10),
                            [&] { return all.size() >= n; }))
        << "timed out with " << all.size() << "/" << n << " completions";
  }
};

void exercise_socket_transport(transport_kind kind,
                               const std::string& listen_endpoint) {
  stub_server_config server_cfg;
  server_cfg.kind = kind;
  server_cfg.endpoint = listen_endpoint;
  stub_server server(server_cfg, key_scorer);
  server.start();
  const std::string endpoint =
      kind == transport_kind::tcp
          ? "127.0.0.1:" + std::to_string(server.tcp_port())
          : listen_endpoint;

  socket_transport transport(kind, endpoint);
  completion_sink sink;
  std::atomic<bool> failed{false};
  transport.start(sink.fn(), [&] { failed = true; });

  const std::size_t n = 9;
  std::vector<request> requests;
  for (std::size_t i = 0; i < n; ++i) requests.push_back(make_request(i));
  std::vector<const request*> batch;
  std::vector<std::uint64_t> ids;
  for (std::size_t i = 0; i < n; ++i) {
    batch.push_back(&requests[i]);
    ids.push_back(100 + i);
  }
  // Two frames over one connection: a batch of n-1 and a single.
  transport.send_batch({batch.begin(), batch.end() - 1},
                       {ids.begin(), ids.end() - 1}, "test");
  transport.send_batch({batch.back()}, {ids.back()}, "test");
  sink.wait_for(n);

  for (const auto& c : sink.all) {
    ASSERT_GE(c.id, 100U);
    EXPECT_EQ(c.prediction, (c.id - 100) % 10) << "wrong demuxed prediction";
  }
  const transport_counters tc = transport.counters();
  EXPECT_EQ(tc.batches_sent, 2U);
  EXPECT_EQ(tc.appeals_sent, n);
  EXPECT_GT(tc.bytes_sent, 0U);
  EXPECT_GT(tc.bytes_received, 0U);
  transport.stop();
  EXPECT_FALSE(failed.load()) << "clean stop must not fire on_failure";
  server.stop();
  const stub_server_counters sc = server.counters();
  EXPECT_EQ(sc.appeals, n);
  EXPECT_EQ(sc.connections, 1U);
}

TEST(transport, uds_loopback_round_trip) {
  exercise_socket_transport(transport_kind::uds, unique_uds_path("uds"));
}

TEST(transport, tcp_loopback_round_trip) {
  // Port 0: the stub binds an ephemeral port the test reads back.
  exercise_socket_transport(transport_kind::tcp, "127.0.0.1:0");
}

TEST(transport, demux_survives_reordered_split_responses) {
  // Adversarial cloud: reads one appeal batch, answers it in REVERSE
  // order, one response frame per appeal. The channel must still hand
  // every request its own prediction.
  const std::string path = unique_uds_path("reorder");
  net::fd listener = net::listen_uds(path);
  std::thread cloud([&] {
    net::fd conn = net::accept_connection(listener);
    ASSERT_TRUE(conn.valid());
    wire::frame_splitter splitter;
    std::uint8_t chunk[4096];
    std::vector<wire::appeal_record> seen;
    while (seen.size() < 6) {
      const std::size_t n = net::read_some(conn, chunk, sizeof(chunk));
      ASSERT_GT(n, 0U);
      splitter.feed(chunk, n);
      while (std::optional<wire::frame> f = splitter.next()) {
        for (wire::appeal_record& a : wire::decode_appeal_batch(*f)) {
          seen.push_back(std::move(a));
        }
      }
    }
    for (auto it = seen.rbegin(); it != seen.rend(); ++it) {
      wire::response_record r;
      r.id = it->id;
      r.prediction = static_cast<std::size_t>(it->key * 7 % 10);
      const std::vector<std::uint8_t> one = wire::encode_response_batch({r});
      net::write_all(conn, one.data(), one.size());
    }
    // Hold the connection open until the client is done reading.
    (void)net::read_some(conn, chunk, sizeof(chunk));
  });

  {
    replay_cloud_backend fallback(std::vector<std::size_t>(16, 0));
    link_config cfg;
    cfg.transport = transport_kind::uds;
    cfg.endpoint = path;
    cfg.coalesce_window_ms = 200.0;  // pack all 6 into one frame
    cfg.max_batch_appeals = 6;
    cloud_channel channel(fallback, collab::cost_model{}, cfg, "reorder");

    std::mutex mutex;
    std::vector<std::pair<std::uint64_t, std::size_t>> done;
    for (std::uint64_t key = 0; key < 6; ++key) {
      channel.appeal(make_request(key),
                     [&](request&& r, const appeal_outcome& out) {
                       std::lock_guard<std::mutex> lock(mutex);
                       done.emplace_back(r.key, out.prediction);
                     });
    }
    channel.drain();
    ASSERT_EQ(done.size(), 6U);
    for (const auto& [key, prediction] : done) {
      EXPECT_EQ(prediction, key * 7 % 10) << "demux crossed appeals";
    }
    const link_counters lc = channel.counters();
    EXPECT_EQ(lc.wire.batches_sent, 1U) << "window should coalesce the burst";
    EXPECT_EQ(lc.wire.appeals_sent, 6U);
    EXPECT_EQ(lc.local_fallbacks, 0U);
  }
  listener.shutdown();
  cloud.join();
  ::unlink(path.c_str());
}

TEST(transport, sim_transport_counts_equivalent_wire_bytes) {
  std::vector<std::size_t> predictions;
  for (std::size_t i = 0; i < 8; ++i) predictions.push_back(i % 3);
  replay_cloud_backend backend(predictions);
  link_config cfg;
  cfg.time_scale = 0.0;
  cloud_channel channel(backend, collab::cost_model{}, cfg, "sim");
  std::atomic<std::size_t> completions{0};
  for (std::uint64_t key = 0; key < 8; ++key) {
    channel.appeal(make_request(key),
                   [&](request&&, const appeal_outcome& out) {
                     EXPECT_LT(out.prediction, 3U);
                     completions.fetch_add(1);
                   });
  }
  channel.drain();
  EXPECT_EQ(completions.load(), 8U);
  const link_counters lc = channel.counters();
  EXPECT_EQ(lc.wire.appeals_sent, 8U);
  EXPECT_GE(lc.wire.batches_sent, 1U);
  EXPECT_LE(lc.wire.batches_sent, 8U);
  // Every appeal carries at least its fixed wire fields.
  EXPECT_GE(lc.wire.bytes_sent, 8 * 44U);
  EXPECT_EQ(lc.completed, 8U);
  EXPECT_EQ(lc.local_fallbacks, 0U);
}

TEST(transport, channel_coalesces_bursts_under_window) {
  stub_server_config server_cfg;
  server_cfg.kind = transport_kind::uds;
  server_cfg.endpoint = unique_uds_path("coalesce");
  stub_server server(server_cfg, key_scorer);
  server.start();

  replay_cloud_backend fallback(std::vector<std::size_t>(64, 0));
  link_config cfg;
  cfg.transport = transport_kind::uds;
  cfg.endpoint = server_cfg.endpoint;
  cfg.coalesce_window_ms = 500.0;  // generous: CI machines stall
  cfg.max_batch_appeals = 16;
  cloud_channel channel(fallback, collab::cost_model{}, cfg, "burst");

  std::atomic<std::size_t> completions{0};
  for (std::uint64_t key = 0; key < 16; ++key) {
    channel.appeal(make_request(key),
                   [&](request&& r, const appeal_outcome& out) {
                     EXPECT_EQ(out.prediction, r.key % 10);
                     EXPECT_GE(out.link_ms, 0.0);
                     completions.fetch_add(1);
                   });
  }
  channel.drain();
  EXPECT_EQ(completions.load(), 16U);
  const link_counters lc = channel.counters();
  EXPECT_EQ(lc.wire.appeals_sent, 16U);
  // The window holds the frame open until the batch cap: one full batch
  // (the burst outruns the 500 ms window by orders of magnitude).
  EXPECT_EQ(lc.wire.batches_sent, 1U);
  EXPECT_DOUBLE_EQ(lc.wire.mean_appeals_per_batch(), 16.0);
}

TEST(transport, link_failure_falls_back_to_local_backend) {
  // All fallback answers come from a backend that always says class 7,
  // while the stub answers key % 10 — so the source of every completion
  // is observable.
  replay_cloud_backend fallback(std::vector<std::size_t>(64, 7));
  link_config cfg;
  cfg.transport = transport_kind::uds;
  cfg.endpoint = unique_uds_path("fail");
  stub_server_config scfg;
  scfg.kind = transport_kind::uds;
  scfg.endpoint = cfg.endpoint;
  stub_server stub(scfg, key_scorer);
  stub.start();

  cloud_channel channel(fallback, collab::cost_model{}, cfg, "failover");
  std::atomic<std::size_t> completions{0};
  // One appeal through the live stub proves the link worked...
  {
    std::promise<std::size_t> first;
    channel.appeal(make_request(3),
                   [&](request&&, const appeal_outcome& out) {
                     completions.fetch_add(1);
                     first.set_value(out.prediction);
                   });
    EXPECT_EQ(first.get_future().get(), 3U);
  }
  // ...then the cloud dies mid-run.
  stub.stop();
  for (std::uint64_t key = 10; key < 20; ++key) {
    channel.appeal(make_request(key),
                   [&](request&&, const appeal_outcome& out) {
                     EXPECT_EQ(out.prediction, 7U) << "must come from fallback";
                     completions.fetch_add(1);
                   });
  }
  channel.drain();  // must not hang: every appeal completes locally
  EXPECT_EQ(completions.load(), 11U);
  const link_counters lc = channel.counters();
  EXPECT_EQ(lc.completed, 11U);
  EXPECT_EQ(lc.local_fallbacks, 10U);
}

TEST(transport, silent_peer_trips_response_watchdog) {
  // A cloud that stays connected but never answers must not wedge
  // drain(): the response watchdog declares the link dead and the local
  // backend (always class 7) completes every outstanding appeal.
  const std::string path = unique_uds_path("blackhole");
  net::fd listener = net::listen_uds(path);
  std::atomic<bool> closing{false};
  std::thread black_hole([&] {
    net::fd conn = net::accept_connection(listener);
    if (!conn.valid()) return;
    std::uint8_t chunk[4096];
    while (!closing.load() && net::read_some(conn, chunk, sizeof(chunk)) > 0) {
    }
  });

  {
    replay_cloud_backend fallback(std::vector<std::size_t>(16, 7));
    link_config cfg;
    cfg.transport = transport_kind::uds;
    cfg.endpoint = path;
    cfg.response_timeout_ms = 200.0;
    cloud_channel channel(fallback, collab::cost_model{}, cfg, "blackhole");
    std::atomic<std::size_t> completions{0};
    for (std::uint64_t key = 0; key < 4; ++key) {
      channel.appeal(make_request(key),
                     [&](request&&, const appeal_outcome& out) {
                       EXPECT_EQ(out.prediction, 7U);
                       completions.fetch_add(1);
                     });
    }
    channel.drain();  // must terminate within the watchdog budget
    EXPECT_EQ(completions.load(), 4U);
    EXPECT_EQ(channel.counters().local_fallbacks, 4U);
  }
  closing.store(true);
  listener.shutdown();
  black_hole.join();
  ::unlink(path.c_str());
}

TEST(transport, engine_serves_identically_over_sim_and_uds) {
  // The scheduler-level invariant behind the CI loopback gate: a fixed-δ
  // engine routes and scores the same workload identically whether the
  // cloud answers over the simulator or a real socket, because the
  // stub's synthetic scorer IS the simulator's replay table.
  const std::size_t n = 512;
  const std::uint64_t seed = 1234;
  std::vector<std::size_t> labels(n), little(n), big(n);
  std::vector<double> scores(n);
  util::rng gen(seed);
  for (std::size_t i = 0; i < n; ++i) {
    labels[i] = i % 10;
    const bool right = gen.bernoulli(0.8);
    little[i] = right ? labels[i] : (labels[i] + 1) % 10;
    big[i] = transport::synthetic_big_prediction(i, labels[i], 10, seed);
    scores[i] = right ? 0.5 + 0.5 * gen.uniform() : 0.7 * gen.uniform();
  }

  const auto run = [&](const link_config& channel_cfg) {
    replay_edge_backend edge(little, scores);
    replay_cloud_backend cloud(big);
    engine_config cfg;
    cfg.batching.max_batch_size = 16;
    cfg.batching.max_wait = std::chrono::microseconds(200);
    cfg.num_workers = 2;
    cfg.threshold.adapt = threshold_config::mode::fixed;
    cfg.threshold.initial_delta = 0.55;
    cfg.channel = channel_cfg;
    engine eng(cfg, engine_resources::standalone(edge, cloud));
    for (std::size_t i = 0; i < n; ++i) {
      eng.submit(tensor(), i, labels[i]);
    }
    eng.drain();
    return eng.snapshot();
  };

  link_config sim_cfg;
  sim_cfg.time_scale = 0.0;
  const stats_snapshot sim = run(sim_cfg);

  stub_server_config scfg;
  scfg.kind = transport_kind::uds;
  scfg.endpoint = unique_uds_path("engine");
  stub_server stub(scfg, [&](const wire::appeal_record& a) {
    return transport::synthetic_big_prediction(
        a.key, static_cast<std::size_t>(a.label), 10, seed);
  });
  stub.start();
  link_config uds_cfg;
  uds_cfg.transport = transport_kind::uds;
  uds_cfg.endpoint = scfg.endpoint;
  uds_cfg.coalesce_window_ms = 0.2;
  const stats_snapshot uds = run(uds_cfg);
  stub.stop();

  EXPECT_EQ(sim.completed, uds.completed);
  EXPECT_EQ(sim.appealed, uds.appealed);
  EXPECT_DOUBLE_EQ(sim.achieved_sr, uds.achieved_sr);
  EXPECT_DOUBLE_EQ(sim.online_accuracy, uds.online_accuracy);
  EXPECT_EQ(uds.link.local_fallbacks, 0U);
  EXPECT_EQ(uds.link.wire.appeals_sent, uds.appealed);
}

/// The names of this process's live threads, from /proc/self/task/*/comm.
std::vector<std::string> thread_names() {
  std::vector<std::string> names;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    std::ifstream comm(task.path() / "comm");
    std::string name;
    if (std::getline(comm, name)) names.push_back(name);
  }
  return names;
}

TEST(transport, serving_threads_are_named_by_role) {
  // Every long-lived serving thread names itself, so a per-thread CPU
  // sample (/proc/<pid>/task/*/stat) reads as a split by role: the
  // engine's edge workers, the channel's sender and socket reader, the
  // simulated link's timer, the stub's acceptor, connections and scorers,
  // the shared pool's workers, and both metrics exporters.
  const std::size_t n = 64;
  std::vector<std::size_t> labels(n), little(n), big(n);
  std::vector<double> scores(n);
  for (std::size_t i = 0; i < n; ++i) {
    labels[i] = i % 10;
    little[i] = labels[i];
    big[i] = labels[i];
    scores[i] = i % 2 == 0 ? 0.9 : 0.1;  // half the requests appeal
  }
  replay_edge_backend edge(little, scores);
  replay_cloud_backend cloud(big);

  stub_server_config scfg;
  scfg.kind = transport_kind::uds;
  scfg.endpoint = unique_uds_path("names");
  scfg.workers = 2;
  stub_server stub(scfg, key_scorer);
  stub.start();
  util::thread_pool::set_shared_size(2);
  obs::metrics_registry registry;
  obs::metrics_http_server http(registry, "127.0.0.1:0");
  const std::string json_path = unique_uds_path("names") + ".json";
  obs::json_snapshot_writer json(registry, json_path,
                                 std::chrono::milliseconds(50));

  const auto make_config = [](const link_config& link) {
    engine_config cfg;
    cfg.num_workers = 2;
    cfg.threshold.adapt = threshold_config::mode::fixed;
    cfg.threshold.initial_delta = 0.5;
    cfg.channel = link;
    return cfg;
  };
  link_config uds_link;
  uds_link.transport = transport_kind::uds;
  uds_link.endpoint = scfg.endpoint;
  link_config sim_link;
  sim_link.time_scale = 0.0;
  {
    engine uds_engine(make_config(uds_link),
                      engine_resources::standalone(edge, cloud));
    engine sim_engine(make_config(sim_link),
                      engine_resources::standalone(edge, cloud));
    // A served appeal proves the stub accepted the connection.
    for (std::size_t i = 0; i < n; ++i) {
      uds_engine.submit(tensor(), i, labels[i]);
    }
    uds_engine.drain();
    ASSERT_GT(uds_engine.snapshot().link.wire.appeals_sent, 0U);

    const std::vector<std::string> names = thread_names();
    const auto count = [&](const std::string& prefix) {
      return std::count_if(names.begin(), names.end(),
                           [&](const std::string& name) {
                             return name.rfind(prefix, 0) == 0;
                           });
    };
    EXPECT_EQ(count("edge-0"), 2);  // one per engine
    EXPECT_EQ(count("edge-1"), 2);
    EXPECT_EQ(count("channel-send"), 2);
    EXPECT_EQ(count("channel-recv"), 1);
    EXPECT_EQ(count("sim-link"), 1);
    EXPECT_EQ(count("stub-accept"), 1);
    EXPECT_EQ(count("stub-conn-"), 1);
    EXPECT_EQ(count("stub-score-0"), 1);
    EXPECT_EQ(count("stub-score-1"), 1);
    EXPECT_EQ(count("pool-0"), 1);
    EXPECT_EQ(count("metrics-http"), 1);
    EXPECT_EQ(count("metrics-json"), 1);
    for (const std::string& name : names) EXPECT_LE(name.size(), 15U);
  }  // the engines close their links before the stub stops
  stub.stop();
  json.stop();
  util::thread_pool::set_shared_size(1);
  std::filesystem::remove(json_path);
}

wire::appeal_record make_appeal(std::uint64_t id, priority_class priority,
                                double deadline_ms) {
  wire::appeal_record a;
  a.id = id;
  a.key = id;
  a.priority = priority;
  a.deadline_ms = deadline_ms;
  return a;
}

TEST(transport, work_queue_pops_deadline_order_within_priority_lanes) {
  // Push order is adversarial; pop order must be: interactive lane first
  // (tightest deadline first, deadline-free appeals last, FIFO among
  // them), then the batch lane in the same order.
  cloud_work_queue queue;
  queue.push(make_appeal(0, priority_class::batch, 5.0), 0);
  queue.push(make_appeal(1, priority_class::interactive, -1.0), 0);
  queue.push(make_appeal(2, priority_class::interactive, 500.0), 0);
  queue.push(make_appeal(3, priority_class::batch, -1.0), 0);
  queue.push(make_appeal(4, priority_class::interactive, 50.0), 0);
  queue.push(make_appeal(5, priority_class::interactive, -1.0), 0);
  EXPECT_EQ(queue.size(), 6U);

  const std::vector<cloud_work_queue::item> all = queue.pop_batch(16);
  ASSERT_EQ(all.size(), 6U);
  std::vector<std::uint64_t> order;
  for (const cloud_work_queue::item& it : all) order.push_back(it.record.id);
  // interactive: 4 (50 ms) before 2 (500 ms), then 1 and 5 (no deadline,
  // arrival order); batch lane strictly behind: 0 (5 ms) before 3.
  EXPECT_EQ(order, (std::vector<std::uint64_t>{4, 2, 1, 5, 0, 3}));
  EXPECT_EQ(queue.size(), 0U);
}

TEST(transport, work_queue_pop_respects_batch_cap_and_drains_on_close) {
  cloud_work_queue queue;
  for (std::uint64_t id = 0; id < 5; ++id) {
    queue.push(make_appeal(id, priority_class::interactive,
                           static_cast<double>(10 * (5 - id))), 0);
  }
  const std::vector<cloud_work_queue::item> first = queue.pop_batch(3);
  ASSERT_EQ(first.size(), 3U);  // tightest three: ids 4, 3, 2
  EXPECT_EQ(first.front().record.id, 4U);
  queue.close();
  EXPECT_EQ(queue.pop_batch(16).size(), 2U);  // drains the rest...
  EXPECT_TRUE(queue.pop_batch(16).empty());   // ...then reports closed
}

TEST(transport, stub_sheds_blown_deadlines_as_cloud_expired) {
  // Appeal A (no deadline) occupies the stub's single scorer worker long
  // enough that appeal B's deadline blows while B waits in the cloud work
  // queue. The stub must shed B with an `expired` response — surfaced to
  // the client as request_status::expired on the cloud route and counted
  // as cloud_expired in serve_stats — instead of scoring it late.
  std::atomic<bool> scoring_started{false};
  stub_server_config scfg;
  scfg.kind = transport_kind::uds;
  scfg.endpoint = unique_uds_path("shed");
  scfg.workers = 1;
  stub_server stub(scfg, [&](const wire::appeal_record& a) -> std::size_t {
    scoring_started.store(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    return a.key % 10;
  });
  stub.start();

  replay_edge_backend edge(std::vector<std::size_t>(8, 1),
                           std::vector<double>(8, 0.1));  // always appeals
  replay_cloud_backend cloud(std::vector<std::size_t>(8, 7));
  engine_config cfg;
  cfg.batching.max_batch_size = 1;
  cfg.batching.max_wait = std::chrono::microseconds(100);
  cfg.num_workers = 1;
  cfg.threshold.adapt = threshold_config::mode::fixed;
  cfg.threshold.initial_delta = 0.5;
  cfg.channel.transport = transport_kind::uds;
  cfg.channel.endpoint = scfg.endpoint;
  engine eng(cfg, engine_resources::standalone(edge, cloud));

  std::future<response> a = eng.submit(tensor(), /*key=*/0, /*label=*/1);
  // B enters the cloud work queue only after A holds the worker; its
  // 50 ms budget is long enough to clear the edge but is gone well
  // before A's 300 ms of scoring ends.
  for (int i = 0; i < 200 && !scoring_started.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(scoring_started.load()) << "appeal A never reached the scorer";
  inference_request req;
  req.input = tensor();
  req.key = 1;
  req.label = 1;
  req.deadline = std::chrono::milliseconds(50);
  std::future<response> b = eng.submit(std::move(req));

  const response ra = a.get();
  EXPECT_EQ(ra.status, request_status::ok);
  EXPECT_EQ(ra.predicted_class, 0U);
  EXPECT_GT(ra.cloud_ms, 0.0) << "stub must report queue + scoring time";
  const response rb = b.get();
  EXPECT_EQ(rb.status, request_status::expired);
  EXPECT_EQ(rb.taken, route::cloud);

  eng.drain();
  const stats_snapshot s = eng.snapshot();
  EXPECT_EQ(s.cloud_expired, 1U);
  EXPECT_EQ(s.expired, 0U);
  EXPECT_EQ(s.appealed, 1U);
  eng.shutdown();
  stub.stop();
  EXPECT_EQ(stub.counters().expired, 1U);
  EXPECT_EQ(stub.counters().scored, 1U);
}

TEST(transport, full_work_queue_sheds_arrivals_as_overloaded) {
  // A scorer slower than the arrival rate must not buffer appeals
  // without bound: beyond max_queue_depth, arrivals are refused with an
  // `overloaded` answer (wire v4 backpressure) — distinct from `expired`,
  // which means a deadline died inside the queue. With retries disabled
  // the channel resolves every overload from the local fallback backend,
  // so the caller always gets a real prediction, never a bogus expiry.
  std::atomic<bool> scoring_started{false};
  stub_server_config scfg;
  scfg.kind = transport_kind::uds;
  scfg.endpoint = unique_uds_path("overload");
  scfg.workers = 1;
  scfg.max_cloud_batch = 1;
  scfg.max_queue_depth = 1;
  stub_server stub(scfg, [&](const wire::appeal_record& a) -> std::size_t {
    scoring_started.store(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    return a.key % 10;
  });
  stub.start();

  replay_cloud_backend fallback(std::vector<std::size_t>(16, 7));
  link_config cfg;
  cfg.transport = transport_kind::uds;
  cfg.endpoint = scfg.endpoint;
  cfg.max_retries = 0;  // overloads resolve locally, deterministically
  cloud_channel channel(fallback, collab::cost_model{}, cfg, "overload");

  std::atomic<std::size_t> ok{0};
  std::atomic<std::size_t> expired{0};
  std::atomic<std::size_t> fallback_answers{0};
  const auto on_done = [&](request&&, const appeal_outcome& out) {
    (out.expired ? expired : ok).fetch_add(1);
    if (!out.expired && out.prediction == 7U) fallback_answers.fetch_add(1);
  };
  channel.appeal(make_request(0), on_done);
  for (int i = 0; i < 200 && !scoring_started.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(scoring_started.load());
  // Burst while the worker sleeps: one appeal queues, three overflow.
  for (std::uint64_t key = 1; key < 5; ++key) {
    channel.appeal(make_request(key), on_done);
  }
  channel.drain();
  EXPECT_EQ(ok.load(), 5U);       // every appeal gets a real answer
  EXPECT_EQ(expired.load(), 0U);  // overload is not expiry
  EXPECT_EQ(fallback_answers.load(), 3U);  // the three refused appeals
  const link_counters lc = channel.counters();
  EXPECT_EQ(lc.overloaded, 3U);
  EXPECT_EQ(lc.local_fallbacks, 3U);
  EXPECT_EQ(lc.retries, 0U);
  // A streak of 3 overloads stays under breaker_threshold (4).
  EXPECT_EQ(channel.breaker(), breaker_state::closed);
  stub.stop();
  EXPECT_EQ(stub.counters().overloaded, 3U);
  EXPECT_EQ(stub.counters().scored, 2U);
}

TEST(transport, overloaded_appeals_retry_until_the_queue_drains) {
  // Same burst shape, but with retries enabled: every overloaded appeal
  // must eventually score on the wire (predictions are key % 10, never
  // the fallback's constant 7) once the worker drains the depth-1 queue.
  std::atomic<bool> scoring_started{false};
  stub_server_config scfg;
  scfg.kind = transport_kind::uds;
  scfg.endpoint = unique_uds_path("retry");
  scfg.workers = 1;
  scfg.max_cloud_batch = 1;
  scfg.max_queue_depth = 1;
  stub_server stub(scfg, [&](const wire::appeal_record& a) -> std::size_t {
    scoring_started.store(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(40));
    return a.key % 10;
  });
  stub.start();

  replay_cloud_backend fallback(std::vector<std::size_t>(16, 7));
  link_config cfg;
  cfg.transport = transport_kind::uds;
  cfg.endpoint = scfg.endpoint;
  cfg.max_retries = 8;
  cfg.retry_backoff_ms = 20.0;
  cfg.breaker_threshold = 100;  // keep the breaker out of this test
  cloud_channel channel(fallback, collab::cost_model{}, cfg, "retry");

  std::mutex mutex;
  std::map<std::uint64_t, std::size_t> got;
  const auto on_done = [&](request&& r, const appeal_outcome& out) {
    std::lock_guard<std::mutex> lock(mutex);
    got[r.key] = out.prediction;
  };
  channel.appeal(make_request(0), on_done);
  for (int i = 0; i < 200 && !scoring_started.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(scoring_started.load());
  for (std::uint64_t key = 1; key < 5; ++key) {
    channel.appeal(make_request(key), on_done);
  }
  channel.drain();  // waits for parked retries too
  ASSERT_EQ(got.size(), 5U);
  for (const auto& [key, prediction] : got) {
    EXPECT_EQ(prediction, key % 10) << "appeal " << key
                                    << " completed off the wire";
  }
  const link_counters lc = channel.counters();
  EXPECT_GE(lc.retries, 1U);
  EXPECT_GE(lc.overloaded, 3U);
  EXPECT_EQ(lc.local_fallbacks, 0U);
  EXPECT_EQ(lc.completed, 5U);
  stub.stop();
  EXPECT_EQ(stub.counters().scored, 5U);
}

TEST(transport, stub_death_mid_flight_completes_every_appeal_exactly_once) {
  // The chaos-gate regression: kill the cloud while appeals are in
  // flight. Every submitted appeal must complete exactly once via the
  // local fallback — never zero times (drain would wedge) and never
  // twice (double completion corrupts engine accounting).
  std::atomic<bool> scoring_started{false};
  stub_server_config scfg;
  scfg.kind = transport_kind::uds;
  scfg.endpoint = unique_uds_path("midflight");
  scfg.workers = 1;
  stub_server stub(scfg, [&](const wire::appeal_record& a) -> std::size_t {
    scoring_started.store(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    return a.key % 10;
  });
  stub.start();

  constexpr std::size_t n = 8;
  replay_cloud_backend fallback(std::vector<std::size_t>(n, 7));
  link_config cfg;
  cfg.transport = transport_kind::uds;
  cfg.endpoint = scfg.endpoint;
  cloud_channel channel(fallback, collab::cost_model{}, cfg, "midflight");

  std::array<std::atomic<int>, n> completions{};
  for (std::uint64_t key = 0; key < n; ++key) {
    channel.appeal(make_request(key),
                   [&](request&& r, const appeal_outcome&) {
                     completions[r.key].fetch_add(1);
                   });
  }
  for (int i = 0; i < 200 && !scoring_started.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(scoring_started.load()) << "no appeal reached the scorer";
  stub.stop();      // the cloud dies with appeals in flight
  channel.drain();  // must not wedge
  for (std::size_t key = 0; key < n; ++key) {
    EXPECT_EQ(completions[key].load(), 1) << "appeal " << key;
  }
  EXPECT_EQ(channel.counters().completed, n);
  // A hard link failure opens the breaker (half-open reconnects keep
  // failing against the dead endpoint, so it never re-closes here).
  EXPECT_NE(channel.breaker(), breaker_state::closed);
  EXPECT_GE(channel.counters().breaker_opens, 1U);
}

TEST(transport, breaker_recovers_after_the_cloud_returns) {
  // The full circuit: a live link dies (hard open), appeals complete
  // locally while the cloud is gone, a replacement stub binds the same
  // endpoint, and the half-open probe re-closes the breaker — appeals
  // score on the wire again instead of staying edge-only forever.
  const std::string path = unique_uds_path("recover");
  stub_server_config scfg;
  scfg.kind = transport_kind::uds;
  scfg.endpoint = path;
  auto stub1 = std::make_unique<stub_server>(scfg, key_scorer);
  stub1->start();

  replay_cloud_backend fallback(std::vector<std::size_t>(64, 7));
  link_config cfg;
  cfg.transport = transport_kind::uds;
  cfg.endpoint = path;
  cfg.breaker_open_ms = 100.0;  // short cool-off keeps the test fast
  cloud_channel channel(fallback, collab::cost_model{}, cfg, "recover");

  const auto ask = [&](std::uint64_t key) {
    std::promise<std::size_t> answered;
    channel.appeal(make_request(key),
                   [&](request&&, const appeal_outcome& out) {
                     answered.set_value(out.prediction);
                   });
    return answered.get_future().get();
  };
  EXPECT_EQ(ask(3), 3U);  // the wire works

  stub1->stop();
  stub1.reset();
  EXPECT_EQ(ask(14), 7U);  // link dead: the local fallback answers
  EXPECT_NE(channel.breaker(), breaker_state::closed);
  EXPECT_GE(channel.counters().breaker_opens, 1U);

  stub_server stub2(scfg, key_scorer);
  stub2.start();
  // Appeals keep completing while the breaker is open (locally, as 7);
  // once the cool-off elapses the half-open probe reaches stub2, closes
  // the breaker, and answers key % 10 over the wire again.
  bool recovered = false;
  for (int i = 0; i < 300 && !recovered; ++i) {
    recovered = ask(5) == 5U && channel.breaker() == breaker_state::closed;
    if (!recovered) std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_TRUE(recovered) << "breaker never re-closed after the stub returned";
  EXPECT_EQ(ask(6), 6U);  // and it stays recovered
  EXPECT_EQ(channel.breaker(), breaker_state::closed);
  stub2.stop();
}

TEST(transport, lost_frame_on_a_live_link_does_not_trip_the_breaker) {
  // One frame swallowed in transit while the peer keeps answering
  // everything else: the response watchdog must complete the lost
  // appeals locally WITHOUT retiring the link — only a peer silent for
  // the whole budget is dead. Chaos runs rely on this distinction:
  // under sustained random frame drop a healthy link would otherwise
  // cycle open/half-open forever, paying breaker_open_ms of all-local
  // serving per lost frame.
  const std::string path = unique_uds_path("lostframe");
  net::fd listener = net::listen_uds(path);
  std::atomic<bool> closing{false};
  std::thread cloud([&] {
    net::fd conn = net::accept_connection(listener);
    if (!conn.valid()) return;
    wire::frame_splitter splitter;
    std::uint8_t chunk[4096];
    while (!closing.load()) {
      const std::size_t n = net::read_some(conn, chunk, sizeof(chunk));
      if (n == 0) break;
      splitter.feed(chunk, n);
      while (std::optional<wire::frame> f = splitter.next()) {
        for (const wire::appeal_record& a : wire::decode_appeal_batch(*f)) {
          if (a.key == 3) continue;  // this frame is "lost in transit"
          wire::response_record r;
          r.id = a.id;
          r.prediction = static_cast<std::size_t>(a.key * 7 % 10);
          const std::vector<std::uint8_t> one =
              wire::encode_response_batch({r});
          net::write_all(conn, one.data(), one.size());
        }
      }
    }
  });

  {
    replay_cloud_backend fallback(std::vector<std::size_t>(512, 9));
    link_config cfg;
    cfg.transport = transport_kind::uds;
    cfg.endpoint = path;
    cfg.max_batch_appeals = 1;  // one frame per appeal
    cfg.response_timeout_ms = 200.0;
    cloud_channel channel(fallback, collab::cost_model{}, cfg, "lostframe");

    const auto ask = [&](std::uint64_t key) {
      std::promise<std::size_t> answered;
      channel.appeal(make_request(key),
                     [&](request&&, const appeal_outcome& out) {
                       answered.set_value(out.prediction);
                     });
      return answered.get_future().get();
    };
    EXPECT_EQ(ask(2), 4U);  // the wire works

    std::promise<std::size_t> lost_promise;
    std::future<std::size_t> lost = lost_promise.get_future();
    channel.appeal(make_request(3),
                   [&](request&&, const appeal_outcome& out) {
                     lost_promise.set_value(out.prediction);
                   });
    // Keep the link demonstrably alive while appeal 3 hangs, so the
    // watchdog sees fresh completions when its deadline passes.
    std::uint64_t key = 10;
    while (lost.wait_for(std::chrono::milliseconds(0)) !=
           std::future_status::ready) {
      EXPECT_EQ(ask(key), key * 7 % 10);
      ++key;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      ASSERT_LT(key, 200U) << "the lost appeal never completed";
    }
    EXPECT_EQ(lost.get(), 9U) << "lost frame must complete from the fallback";
    EXPECT_EQ(channel.breaker(), breaker_state::closed);
    const link_counters lc = channel.counters();
    EXPECT_EQ(lc.breaker_opens, 0U) << "a live link must not be retired";
    EXPECT_EQ(lc.local_fallbacks, 1U);
    EXPECT_EQ(ask(5), 5U);  // still on the wire afterwards
  }
  closing.store(true);
  listener.shutdown();
  cloud.join();
  ::unlink(path.c_str());
}

TEST(transport, channel_survives_a_cloud_that_is_down_at_startup) {
  // Deploying the edge while the cloud is unreachable must not throw
  // out of the channel constructor (it used to: the initial connect's
  // util::error escaped and took the whole process down). The channel
  // comes up with the breaker already open, answers locally from the
  // first appeal, and recovers through the ordinary half-open probe
  // once something binds the endpoint.
  const std::string path = unique_uds_path("coldstart");
  replay_cloud_backend fallback(std::vector<std::size_t>(64, 7));
  link_config cfg;
  cfg.transport = transport_kind::uds;
  cfg.endpoint = path;  // nothing is listening here
  cfg.breaker_open_ms = 100.0;
  cloud_channel channel(fallback, collab::cost_model{}, cfg, "coldstart");
  EXPECT_EQ(channel.breaker(), breaker_state::open);
  EXPECT_GE(channel.counters().breaker_opens, 1U);

  const auto ask = [&](std::uint64_t key) {
    std::promise<std::size_t> answered;
    channel.appeal(make_request(key),
                   [&](request&&, const appeal_outcome& out) {
                     answered.set_value(out.prediction);
                   });
    return answered.get_future().get();
  };
  EXPECT_EQ(ask(13), 7U);  // local fallback, immediately, no wedge

  stub_server_config scfg;
  scfg.kind = transport_kind::uds;
  scfg.endpoint = path;
  stub_server stub(scfg, key_scorer);
  stub.start();
  bool recovered = false;
  for (int i = 0; i < 300 && !recovered; ++i) {
    recovered = ask(5) == 5U && channel.breaker() == breaker_state::closed;
    if (!recovered) std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_TRUE(recovered) << "breaker never closed after the cloud appeared";
  stub.stop();
}

TEST(transport, work_queue_enforces_batch_lane_budget_and_capacity) {
  using admit = cloud_work_queue::admit;
  cloud_work_queue queue(/*capacity=*/3, /*batch_capacity=*/1);
  EXPECT_EQ(queue.push(make_appeal(0, priority_class::batch, -1.0), 0),
            admit::ok);
  // The batch lane's own budget fills before the shared capacity does.
  EXPECT_EQ(queue.push(make_appeal(1, priority_class::batch, -1.0), 0),
            admit::full);
  EXPECT_EQ(queue.push(make_appeal(2, priority_class::interactive, -1.0), 0),
            admit::ok);
  EXPECT_EQ(queue.push(make_appeal(3, priority_class::interactive, -1.0), 0),
            admit::ok);
  EXPECT_EQ(queue.push(make_appeal(4, priority_class::interactive, -1.0), 0),
            admit::full);  // shared capacity
  EXPECT_EQ(queue.size(), 3U);
  queue.close();
  EXPECT_EQ(queue.push(make_appeal(5, priority_class::interactive, -1.0), 0),
            admit::closed);
  EXPECT_EQ(queue.pop_batch(16).size(), 3U);  // close() still drains
}

TEST(transport, work_queue_projects_deadline_misses_from_drain_rate) {
  using admit = cloud_work_queue::admit;
  cloud_work_queue queue(/*capacity=*/0, /*batch_capacity=*/0,
                         /*shed_projected=*/true);
  // Warm the drain-rate EMA: the first pop arms the clock, the second
  // (≈40 ms later) yields the first per-item estimate.
  EXPECT_EQ(queue.push(make_appeal(0, priority_class::interactive, -1.0), 0),
            admit::ok);
  EXPECT_EQ(queue.pop_batch(1).size(), 1U);
  EXPECT_EQ(queue.push(make_appeal(1, priority_class::interactive, -1.0), 0),
            admit::ok);
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  EXPECT_EQ(queue.pop_batch(1).size(), 1U);

  const cloud_work_queue::queue_stats st = queue.stats();
  EXPECT_EQ(st.depth, 0U);
  EXPECT_EQ(st.drained, 2U);
  EXPECT_GT(st.ms_per_item, 0.0);
  EXPECT_DOUBLE_EQ(queue.estimated_wait_ms(), 0.0);  // empty queue

  // A deadline far below the projected wait is refused up front; a
  // generous one and a deadline-free appeal are admitted.
  EXPECT_EQ(queue.push(make_appeal(2, priority_class::interactive, 0.01), 0),
            admit::projected_miss);
  EXPECT_EQ(queue.push(make_appeal(3, priority_class::interactive, 1e6), 0),
            admit::ok);
  EXPECT_EQ(queue.push(make_appeal(4, priority_class::interactive, -1.0), 0),
            admit::ok);
  EXPECT_GT(queue.estimated_wait_ms(), 0.0);
  queue.close(/*discard=*/true);
}

/// Fake inner transport for fault-injection tests: records every frame
/// that gets through and exposes the completion sink so tests can push
/// synthetic completion batches upward.
struct recording_transport : cloud_transport {
  cloud_transport::completion_sink sink;
  std::vector<std::vector<std::uint64_t>> frames;  // wire ids, per frame
  std::atomic<bool> stopped{false};

  void start(cloud_transport::completion_sink on_complete,
             cloud_transport::failure_sink) override {
    sink = std::move(on_complete);
  }
  void send_batch(const std::vector<const request*>&,
                  const std::vector<std::uint64_t>& wire_ids,
                  const std::string&) override {
    frames.push_back(wire_ids);
  }
  void stop() override { stopped.store(true); }
  transport_counters counters() const override { return {}; }
};

TEST(transport, fault_spec_parses_every_key_and_rejects_garbage) {
  const fault_config cfg =
      parse_fault_spec("drop=0.25,delay_ms=2,trunc=0.1,dup=1,kill_at=3,seed=9");
  EXPECT_DOUBLE_EQ(cfg.drop, 0.25);
  EXPECT_DOUBLE_EQ(cfg.delay_ms, 2.0);
  EXPECT_DOUBLE_EQ(cfg.trunc, 0.1);
  EXPECT_DOUBLE_EQ(cfg.dup, 1.0);
  EXPECT_EQ(cfg.kill_at, 3U);
  EXPECT_EQ(cfg.seed, 9U);
  EXPECT_DOUBLE_EQ(parse_fault_spec("").drop, 0.0);  // empty = no faults

  EXPECT_THROW(parse_fault_spec("jitter=1"), util::error);    // unknown key
  EXPECT_THROW(parse_fault_spec("drop=1.5"), util::error);    // not a prob.
  EXPECT_THROW(parse_fault_spec("drop=abc"), util::error);    // not a number
  EXPECT_THROW(parse_fault_spec("drop"), util::error);        // no '='
  EXPECT_THROW(parse_fault_spec("delay_ms=-1"), util::error);
}

TEST(transport, fault_drops_are_seed_deterministic) {
  // Two decorators with the same seed must drop exactly the same frames;
  // a different seed must produce a different schedule.
  const auto kept_frames = [](std::uint64_t seed) {
    auto inner = std::make_unique<recording_transport>();
    recording_transport* raw = inner.get();
    fault_config cfg;
    cfg.drop = 0.5;
    cfg.seed = seed;
    fault_transport faulty(std::move(inner), cfg);
    faulty.start([](std::vector<cloud_transport::completion>&&) {}, [] {});
    request r;
    std::vector<std::uint64_t> kept;
    for (std::uint64_t id = 0; id < 64; ++id) {
      faulty.send_batch({&r}, {id}, "m");
    }
    EXPECT_EQ(faulty.faults().frames_seen, 64U);
    EXPECT_EQ(faulty.faults().dropped, 64U - raw->frames.size());
    EXPECT_GT(faulty.faults().dropped, 0U);
    EXPECT_GT(raw->frames.size(), 0U);
    for (const auto& f : raw->frames) kept.push_back(f.front());
    return kept;
  };
  EXPECT_EQ(kept_frames(7), kept_frames(7));
  EXPECT_NE(kept_frames(7), kept_frames(8));
}

TEST(transport, fault_kill_at_stops_the_inner_link_and_stays_dead) {
  auto inner = std::make_unique<recording_transport>();
  recording_transport* raw = inner.get();
  fault_config cfg;
  cfg.kill_at = 3;
  fault_transport faulty(std::move(inner), cfg);
  faulty.start([](std::vector<cloud_transport::completion>&&) {}, [] {});
  request r;
  faulty.send_batch({&r}, {1}, "m");
  faulty.send_batch({&r}, {2}, "m");
  EXPECT_EQ(raw->frames.size(), 2U);
  EXPECT_THROW(faulty.send_batch({&r}, {3}, "m"), util::error);
  EXPECT_TRUE(raw->stopped.load()) << "kill_at must take the inner link down";
  EXPECT_THROW(faulty.send_batch({&r}, {4}, "m"), util::error);  // stays dead
  EXPECT_EQ(raw->frames.size(), 2U);
  EXPECT_EQ(faulty.faults().killed, 1U);
}

TEST(transport, fault_dup_delivers_the_completion_batch_twice) {
  auto inner = std::make_unique<recording_transport>();
  recording_transport* raw = inner.get();
  fault_config cfg;
  cfg.dup = 1.0;
  fault_transport faulty(std::move(inner), cfg);
  std::vector<std::uint64_t> delivered;
  faulty.start(
      [&](std::vector<cloud_transport::completion>&& done) {
        for (const auto& c : done) delivered.push_back(c.id);
      },
      [] {});
  cloud_transport::completion c;
  c.id = 42;
  c.prediction = 2;
  raw->sink({c});
  EXPECT_EQ(delivered, (std::vector<std::uint64_t>{42, 42}));
  EXPECT_EQ(faulty.faults().duplicated, 1U);
}

TEST(transport, fault_trunc_forwards_only_the_frame_head) {
  auto inner = std::make_unique<recording_transport>();
  recording_transport* raw = inner.get();
  fault_config cfg;
  cfg.trunc = 1.0;
  fault_transport faulty(std::move(inner), cfg);
  faulty.start([](std::vector<cloud_transport::completion>&&) {}, [] {});
  request r;
  faulty.send_batch({&r, &r, &r, &r}, {0, 1, 2, 3}, "m");
  ASSERT_EQ(raw->frames.size(), 1U);
  EXPECT_EQ(raw->frames[0], (std::vector<std::uint64_t>{0, 1}));
  EXPECT_EQ(faulty.faults().truncated, 1U);
}

TEST(transport, network_scorer_matches_local_backend_bit_exact) {
  // The acceptance invariant behind `cloud_stub --scorer=network`: the
  // stub's batched scoring of serialized weights must equal the local
  // network_cloud_backend's per-appeal forwards bit for bit — through
  // save -> load -> conv+BN fold -> stacked batch inference -> the wire.
  cloud_model_config model_cfg;
  model_cfg.init_seed = 0xFEED;

  const std::string weights =
      "/tmp/appeal-test-bignet-" + std::to_string(::getpid()) + ".apnw";
  {
    cloud_model_config trainable = model_cfg;
    trainable.fold = false;  // saved in trainable form, like a real model
    nn::save_model(*make_cloud_model(trainable), weights);
  }
  model_cfg.weights_path = weights;

  const std::size_t n = 24;
  util::rng gen(99);
  std::vector<tensor> images;
  images.reserve(n);
  const std::size_t hw = model_cfg.spec.image_size;
  for (std::size_t i = 0; i < n; ++i) {
    images.push_back(tensor::rand_uniform(
        shape{model_cfg.spec.in_channels, hw, hw}, gen, -1.0F, 1.0F));
  }

  // Local reference: the simulator's cloud path (single-input forwards).
  std::unique_ptr<nn::sequential> local_net = make_cloud_model(model_cfg);
  network_cloud_backend local(*local_net);
  std::vector<std::size_t> expected(n);
  for (std::size_t i = 0; i < n; ++i) {
    request r = make_request(i);
    r.input = images[i];
    expected[i] = local.infer(r);
  }

  stub_server_config scfg;
  scfg.kind = transport_kind::uds;
  scfg.endpoint = unique_uds_path("network");
  scfg.workers = 2;
  scfg.max_cloud_batch = 8;
  stub_server stub(scfg, make_network_scorer_factory(model_cfg));
  stub.start();

  replay_cloud_backend fallback(std::vector<std::size_t>(n, 0));
  link_config cfg;
  cfg.transport = transport_kind::uds;
  cfg.endpoint = scfg.endpoint;
  cfg.coalesce_window_ms = 20.0;  // pack several appeals per frame
  cloud_channel channel(fallback, collab::cost_model{}, cfg, "bignet");
  std::mutex mutex;
  std::vector<std::size_t> got(n, static_cast<std::size_t>(-1));
  for (std::uint64_t key = 0; key < n; ++key) {
    request r = make_request(key);
    r.input = images[key];
    channel.appeal(std::move(r), [&](request&& done,
                                     const appeal_outcome& out) {
      EXPECT_FALSE(out.expired);
      EXPECT_GT(out.cloud_ms, 0.0);
      std::lock_guard<std::mutex> lock(mutex);
      got[done.key] = out.prediction;
    });
  }
  channel.drain();
  EXPECT_EQ(channel.counters().local_fallbacks, 0U);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(got[i], expected[i]) << "prediction diverged for input " << i;
  }
  stub.stop();
  EXPECT_EQ(stub.counters().scored, n);
  EXPECT_EQ(stub.counters().expired, 0U);
  ::unlink(weights.c_str());
}

}  // namespace
