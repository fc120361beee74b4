// Observability tests: registry instruments (counter/gauge/histogram
// semantics, the log-linear layout and its 1/64 quantile bound, quantile
// edge cases, concurrent writers — the TSan CI job
// runs this suite), Prometheus/JSON rendering, trace sampling and
// collection, the HTTP exporter round trip, and an end-to-end engine
// trace whose stages must reconcile with the measured latency.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "obs/exporter.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/engine.hpp"
#include "util/error.hpp"
#include "util/net.hpp"
#include "util/rng.hpp"

namespace {

using namespace appeal;

TEST(metrics, counter_merges_shards_across_threads) {
  obs::metrics_registry reg;
  obs::counter& c = reg.get_counter("test_total");
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kPerThread = 10000;
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([&c] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) c.add(1);
    });
  }
  for (auto& t : pool) t.join();
  EXPECT_EQ(c.value(), kThreads * kPerThread);
}

TEST(metrics, registry_find_or_create_is_by_name_and_labels) {
  obs::metrics_registry reg;
  obs::counter& a = reg.get_counter("x_total", {{"shard", "0"}});
  obs::counter& b = reg.get_counter("x_total", {{"shard", "1"}});
  obs::counter& a2 = reg.get_counter("x_total", {{"shard", "0"}});
  EXPECT_NE(&a, &b);
  EXPECT_EQ(&a, &a2);
  a.add(3);
  EXPECT_EQ(a2.value(), 3U);
  EXPECT_EQ(b.value(), 0U);
}

TEST(metrics, registry_rejects_kind_mismatches) {
  obs::metrics_registry reg;
  reg.get_counter("thing_total");
  EXPECT_THROW(reg.get_gauge("thing_total"), util::error);
  EXPECT_THROW(reg.get_histogram("thing_total"), util::error);
  obs::histogram& h = reg.get_histogram("lat_ms");
  EXPECT_EQ(&reg.get_histogram("lat_ms"), &h);
}

TEST(metrics, gauge_set_and_add) {
  obs::metrics_registry reg;
  obs::gauge& g = reg.get_gauge("depth");
  EXPECT_EQ(g.value(), 0.0);
  g.set(4.5);
  EXPECT_DOUBLE_EQ(g.value(), 4.5);
  g.add(-1.5);
  EXPECT_DOUBLE_EQ(g.value(), 3.0);
}

TEST(metrics, histogram_quantile_empty_is_zero) {
  const auto h = std::make_unique<obs::histogram>();
  const auto s = h->snapshot();
  EXPECT_EQ(s.total, 0U);
  EXPECT_EQ(s.quantile(0.5), 0.0);
  EXPECT_EQ(s.quantile(0.99), 0.0);
  EXPECT_EQ(s.mean(), 0.0);
}

TEST(metrics, histogram_single_bin_quantiles_all_land_there) {
  const auto h = std::make_unique<obs::histogram>();
  for (int i = 0; i < 100; ++i) h->observe(3.2);
  const auto s = h->snapshot();
  // Every observation is in one bucket; every quantile reads its
  // midpoint, which is within 1/64 of the value.
  const std::size_t b = obs::histogram::bucket_of(3.2);
  EXPECT_EQ(s.counts[b], 100U);
  const double mid = 0.5 * (obs::histogram::bucket_lower(b) +
                            obs::histogram::bucket_upper(b));
  EXPECT_DOUBLE_EQ(s.quantile(0.01), mid);
  EXPECT_DOUBLE_EQ(s.quantile(0.5), mid);
  EXPECT_DOUBLE_EQ(s.quantile(0.99), mid);
  EXPECT_NEAR(mid, 3.2, 3.2 / 64.0);
  EXPECT_EQ(s.overflow, 0U);
}

TEST(metrics, histogram_layout_is_contiguous_log_linear) {
  using h = obs::histogram;
  EXPECT_EQ(h::kBuckets, 992U);
  // 16 shards of 992 u64 buckets: about 0.12 MB per instrument.
  EXPECT_LE(sizeof(h), 130'000U);
  EXPECT_EQ(h::bucket_lower(0), 0.0);
  EXPECT_EQ(h::bucket_upper(h::kBuckets - 1), std::ldexp(1.0, h::kMaxExp));
  EXPECT_EQ(h::bucket_lower(h::kSubBuckets), std::ldexp(1.0, h::kMinExp));
  for (std::size_t b = 0; b < h::kBuckets; ++b) {
    const double lo = h::bucket_lower(b);
    const double hi = h::bucket_upper(b);
    ASSERT_LT(lo, hi) << "bucket " << b;
    EXPECT_EQ(h::bucket_of(lo), b) << "bucket " << b;
    EXPECT_EQ(h::bucket_of(std::nextafter(hi, 0.0)), b) << "bucket " << b;
    // Above the linear range, the midpoint is within 1/64 of every value
    // in the bucket.
    if (b >= h::kSubBuckets) {
      EXPECT_LE(hi - lo, lo / 32.0) << "bucket " << b;
    }
  }
}

TEST(metrics, histogram_quantiles_within_1_64_of_exact) {
  // Log-uniform latencies from 1 µs to 10 s (in ms).
  util::rng gen(2024);
  const auto h = std::make_unique<obs::histogram>();
  std::vector<double> values(100000);
  for (double& v : values) {
    v = std::pow(10.0, -3.0 + 7.0 * gen.uniform());
    h->observe(v);
  }
  std::sort(values.begin(), values.end());
  const auto s = h->snapshot();
  ASSERT_EQ(s.total, values.size());
  for (const double q : {0.5, 0.95, 0.99}) {
    const std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(values.size())));
    const double exact = values[rank - 1];
    EXPECT_LE(std::abs(s.quantile(q) - exact), exact / 64.0) << "q " << q;
  }
}

TEST(metrics, histogram_overflow_clamps_to_top_bin_and_counts) {
  const auto h = std::make_unique<obs::histogram>();
  const double top = std::ldexp(1.0, obs::histogram::kMaxExp);
  h->observe(5.0);
  h->observe(top);  // at the upper edge: clamps
  h->observe(1e9);  // far beyond: clamps
  h->observe(-7.0); // below zero: bucket 0, not overflow
  const auto s = h->snapshot();
  EXPECT_EQ(s.total, 4U);
  EXPECT_EQ(s.overflow, 2U);
  EXPECT_EQ(s.counts[0], 1U);
  EXPECT_EQ(s.counts[obs::histogram::bucket_of(5.0)], 1U);
  EXPECT_EQ(s.counts[obs::histogram::kBuckets - 1], 2U);
  // The sum keeps the raw values (so the mean shows the clamping too).
  EXPECT_DOUBLE_EQ(s.sum, 5.0 + top + 1e9 - 7.0);
}

TEST(metrics, histogram_nan_counts_as_overflow) {
  const auto h = std::make_unique<obs::histogram>();
  h->observe(std::numeric_limits<double>::quiet_NaN());
  h->observe(2.0);
  const auto s = h->snapshot();
  EXPECT_EQ(s.total, 2U);
  EXPECT_EQ(s.overflow, 1U);
  EXPECT_EQ(s.counts[obs::histogram::kBuckets - 1], 1U);
  EXPECT_DOUBLE_EQ(s.sum, 2.0);  // NaN stays out of the sum
}

TEST(metrics, histogram_since_subtracts_a_baseline_and_totals_agree) {
  const auto h = std::make_unique<obs::histogram>();
  h->observe(1.0);
  h->observe(1e9);  // overflow
  const auto base = h->snapshot();
  h->observe(1.0);
  h->observe(100.0);
  const auto d = h->snapshot().since(base);
  EXPECT_EQ(d.total, 2U);
  EXPECT_EQ(d.overflow, 0U);
  EXPECT_EQ(d.counts[obs::histogram::bucket_of(1.0)], 1U);
  EXPECT_EQ(d.counts[obs::histogram::bucket_of(100.0)], 1U);
  EXPECT_DOUBLE_EQ(d.quantile(0.5), 1.0 + 1.0 / 64.0);
  // The bucket-free totals agree with the full snapshot.
  const auto t = h->read_totals();
  EXPECT_EQ(t.total, 4U);
  EXPECT_EQ(t.overflow, 1U);
  const auto dt = t.since(base);
  EXPECT_EQ(dt.total, d.total);
  EXPECT_DOUBLE_EQ(dt.mean(), 50.5);
}

TEST(metrics, histogram_concurrent_observers_lose_nothing) {
  const auto h = std::make_unique<obs::histogram>();
  constexpr std::size_t kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([&h] {
      for (int i = 0; i < kPerThread; ++i) {
        h->observe(static_cast<double>(i % 100) + 0.5);
      }
    });
  }
  for (auto& t : pool) t.join();
  std::vector<std::uint64_t> want(obs::histogram::kBuckets, 0);
  for (int v = 0; v < 100; ++v) {
    want[obs::histogram::bucket_of(v + 0.5)] += kThreads * kPerThread / 100;
  }
  const auto s = h->snapshot();
  EXPECT_EQ(s.total, kThreads * kPerThread);
  EXPECT_EQ(s.counts, want);
}

TEST(metrics, concurrent_registration_yields_one_instrument) {
  obs::metrics_registry reg;
  constexpr std::size_t kThreads = 8;
  std::vector<obs::counter*> seen(kThreads);
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([&reg, &seen, t] {
      obs::counter& c =
          reg.get_counter("race_total", {{"k", "v"}});
      c.add(1);
      seen[t] = &c;
    });
  }
  for (auto& t : pool) t.join();
  for (std::size_t t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t], seen[0]);
  EXPECT_EQ(seen[0]->value(), kThreads);
}

TEST(metrics, prometheus_render_has_help_type_and_labels) {
  obs::metrics_registry reg;
  reg.get_counter("req_total", {{"deployment", "d"}}, "requests").add(5);
  reg.get_gauge("depth", {}, "queue depth").set(2.0);
  obs::histogram& h = reg.get_histogram("lat_ms", {}, "lat");
  h.observe(3.0);
  h.observe(7.0);
  const std::string text = reg.render_prometheus();
  EXPECT_NE(text.find("# HELP req_total requests"), std::string::npos);
  EXPECT_NE(text.find("# TYPE req_total counter"), std::string::npos);
  EXPECT_NE(text.find("req_total{deployment=\"d\"} 5"), std::string::npos);
  EXPECT_NE(text.find("depth 2"), std::string::npos);
  EXPECT_NE(text.find("lat_ms{quantile=\"0.5\"}"), std::string::npos);
  EXPECT_NE(text.find("lat_ms_count 2"), std::string::npos);
  EXPECT_NE(text.find("lat_ms_sum 10"), std::string::npos);
}

TEST(metrics, json_render_parses_shape) {
  obs::metrics_registry reg;
  reg.get_counter("a_total").add(1);
  reg.get_gauge("b").set(2.5);
  std::string json = reg.render_json();
  while (!json.empty() && json.back() == '\n') json.pop_back();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"a_total\""), std::string::npos);
  EXPECT_NE(json.find("\"b\""), std::string::npos);
}

TEST(trace, sampler_is_every_nth) {
  obs::trace_sampler s(0.25);  // period 4
  int sampled = 0;
  for (int i = 0; i < 100; ++i) {
    auto span = s.sample(i, std::chrono::steady_clock::now());
    if (span != nullptr) {
      ++sampled;
      EXPECT_NE(span->trace_id, 0U);
    }
  }
  EXPECT_EQ(sampled, 25);
  obs::trace_sampler off(0.0);
  EXPECT_EQ(off.sample(0, std::chrono::steady_clock::now()), nullptr);
  obs::trace_sampler all(1.0);
  EXPECT_NE(all.sample(0, std::chrono::steady_clock::now()), nullptr);
}

TEST(trace, span_set_clamps_negative_stages) {
  obs::trace_span span;
  span.set(obs::stage::wire_rx, -3.0);
  EXPECT_EQ(span.get(obs::stage::wire_rx), 0.0);
  span.set(obs::stage::edge_infer, 2.0);
  EXPECT_DOUBLE_EQ(span.stage_sum(), 2.0);
}

TEST(trace, collector_ring_bounds_and_jsonl) {
  obs::trace_collector col(4);
  for (std::uint64_t i = 0; i < 6; ++i) {
    obs::trace_span s;
    s.trace_id = i + 1;
    s.key = i;
    s.total_ms = 1.0;
    s.set(obs::stage::queue_wait, 0.25);
    col.record(std::move(s));
  }
  EXPECT_EQ(col.recorded(), 6U);
  const std::vector<obs::trace_span> snap = col.snapshot();
  ASSERT_EQ(snap.size(), 4U);  // oldest two evicted
  EXPECT_EQ(snap.front().trace_id, 3U);
  EXPECT_EQ(snap.back().trace_id, 6U);
  const std::string jsonl = col.render_jsonl();
  EXPECT_NE(jsonl.find("\"trace_id\":3"), std::string::npos);
  EXPECT_NE(jsonl.find("\"queue_wait\":0.25"), std::string::npos);
  col.clear();
  EXPECT_EQ(col.recorded(), 0U);
  EXPECT_TRUE(col.snapshot().empty());
}

TEST(trace, collector_feeds_only_on_path_stages) {
  obs::metrics_registry reg;
  obs::trace_collector col(16);
  col.attach_registry(&reg);
  obs::trace_span edge_kept;
  edge_kept.total_ms = 1.0;
  edge_kept.appealed = false;
  col.record(std::move(edge_kept));
  obs::trace_span appealed;
  appealed.total_ms = 5.0;
  appealed.appealed = true;
  col.record(std::move(appealed));
  // Cloud stages saw only the appealed span; edge stages saw both.
  EXPECT_EQ(reg.get_histogram("appeal_stage_ms", {{"stage", "cloud_queue"}})
                .snapshot()
                .total,
            1U);
  EXPECT_EQ(reg.get_histogram("appeal_stage_ms", {{"stage", "queue_wait"}})
                .snapshot()
                .total,
            2U);
}

TEST(exporter, http_metrics_round_trip) {
  obs::metrics_registry reg;
  reg.get_counter("exported_total").add(9);
  obs::metrics_http_server server(reg, "127.0.0.1:0");
  ASSERT_NE(server.port(), 0);

  net::fd conn = net::connect_tcp("127.0.0.1:" +
                                  std::to_string(server.port()));
  const std::string req =
      "GET /metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n";
  net::write_all(conn, reinterpret_cast<const std::uint8_t*>(req.data()),
                 req.size());
  std::string body;
  std::uint8_t buf[4096];
  for (;;) {
    const std::size_t n = net::read_some(conn, buf, sizeof(buf));
    if (n == 0) break;
    body.append(reinterpret_cast<const char*>(buf), n);
  }
  EXPECT_NE(body.find("200 OK"), std::string::npos);
  EXPECT_NE(body.find("exported_total 9"), std::string::npos);
  EXPECT_EQ(server.requests(), 1U);
  server.stop();
}

TEST(exporter, http_unknown_path_is_404) {
  obs::metrics_registry reg;
  obs::metrics_http_server server(reg, "127.0.0.1:0");
  net::fd conn = net::connect_tcp("127.0.0.1:" +
                                  std::to_string(server.port()));
  const std::string req = "GET /nope HTTP/1.1\r\n\r\n";
  net::write_all(conn, reinterpret_cast<const std::uint8_t*>(req.data()),
                 req.size());
  std::string head;
  std::uint8_t buf[512];
  const std::size_t n = net::read_some(conn, buf, sizeof(buf));
  if (n > 0) head.assign(reinterpret_cast<const char*>(buf), n);
  EXPECT_NE(head.find("404"), std::string::npos);
  server.stop();
}

/// End to end: a traced engine run over the sim transport. Every span's
/// stages must sum to its measured total (the `complete` residual stage
/// guarantees it by construction — this guards the construction).
TEST(trace, engine_spans_reconcile_with_measured_latency) {
  obs::default_collector().clear();
  serve::engine_config cfg;
  cfg.num_workers = 2;
  cfg.trace_sample_rate = 1.0;
  cfg.threshold.adapt = serve::threshold_config::mode::fixed;
  cfg.threshold.initial_delta = 0.5;
  cfg.channel.time_scale = 0.05;
  const std::size_t n = 200;
  std::vector<std::size_t> preds(n, 1);
  std::vector<double> scores(n);
  for (std::size_t i = 0; i < n; ++i) {
    scores[i] = i % 2 == 0 ? 0.9 : 0.1;  // half appeal
  }
  std::vector<std::size_t> big(n, 1);
  const std::uint64_t before = obs::default_collector().recorded();
  {
    serve::engine eng(
        cfg,
        serve::engine_resources::owning(
            [&](std::size_t) {
              return std::make_unique<serve::replay_edge_backend>(preds,
                                                                  scores);
            },
            [&] {
              return std::make_unique<serve::replay_cloud_backend>(big);
            }));
    std::vector<std::future<serve::response>> futures;
    futures.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      futures.push_back(eng.submit(tensor(shape{1}), i));
    }
    for (auto& f : futures) f.get();
    eng.drain();
  }
  const std::vector<obs::trace_span> spans =
      obs::default_collector().snapshot();
  ASSERT_GE(obs::default_collector().recorded() - before, n);
  std::size_t appealed = 0;
  for (const obs::trace_span& s : spans) {
    EXPECT_NEAR(s.stage_sum(), s.total_ms, 0.05 * s.total_ms + 1e-6)
        << "trace " << s.trace_id;
    if (s.appealed) {
      ++appealed;
      EXPECT_GT(s.get(obs::stage::wire_rx) + s.get(obs::stage::wire_tx) +
                    s.get(obs::stage::appeal_coalesce),
                0.0);
    }
  }
  EXPECT_GT(appealed, 0U);
  obs::default_collector().clear();
}

}  // namespace

