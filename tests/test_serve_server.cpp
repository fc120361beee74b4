// Multi-tenant server facade tests: two deployments with different
// (little, big) replay pairs served concurrently through one server,
// per-deployment stats matching the offline system_eval prediction,
// per-deployment admission counters in the registry, and non-blocking
// admission control (shed / edge_only) under saturating load.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "collab/system_eval.hpp"
#include "obs/metrics.hpp"
#include "prometheus_sample.hpp"
#include "serve/admission.hpp"
#include "serve/server.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using namespace appeal;
using appeal::testing::prometheus_sample;
using namespace std::chrono_literals;

struct population {
  std::vector<std::size_t> labels;
  std::vector<std::size_t> little;
  std::vector<std::size_t> big;
  std::vector<double> scores;
};

population make_population(std::size_t n, std::uint64_t seed,
                           double little_accuracy) {
  util::rng gen(seed);
  population p;
  p.labels.resize(n);
  p.little.resize(n);
  p.big.resize(n);
  p.scores.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    p.labels[i] = i % 10;
    const bool little_right = gen.bernoulli(little_accuracy);
    p.little[i] = little_right ? p.labels[i] : (p.labels[i] + 1) % 10;
    p.big[i] = gen.bernoulli(0.97) ? p.labels[i] : (p.labels[i] + 2) % 10;
    p.scores[i] = little_right ? 0.5 + 0.5 * gen.uniform()
                               : 0.7 * gen.uniform();
  }
  return p;
}

collab::sweep_point offline_point(const population& p, double target_sr) {
  collab::routed_split split;
  split.labels = p.labels;
  split.little_predictions = p.little;
  split.big_predictions = p.big;
  split.scores = p.scores;
  return collab::accuracy_vs_sr_curve(split, nullptr, {target_sr}).front();
}

serve::deployment_config replay_deployment_config(double delta) {
  serve::deployment_config cfg;
  cfg.shard.batching.max_batch_size = 16;
  cfg.shard.batching.max_wait = std::chrono::microseconds(200);
  cfg.shard.num_workers = 2;
  cfg.shard.queue_capacity = 256;
  cfg.shard.channel.time_scale = 0.0;  // no simulated delays
  cfg.shard.threshold.adapt = serve::threshold_config::mode::fixed;
  cfg.shard.threshold.initial_delta = delta;
  return cfg;
}

serve::edge_backend_factory replay_edge_factory(const population& p) {
  return [&p](std::size_t, std::size_t) {
    return std::make_unique<serve::replay_edge_backend>(p.little, p.scores);
  };
}

serve::cloud_backend_factory replay_cloud_factory(const population& p) {
  return [&p] {
    return std::make_unique<serve::replay_cloud_backend>(p.big);
  };
}

/// The registry is process-wide and cumulative: a name of its own per
/// call keeps a test's rows its own (also under --gtest_repeat).
std::string unique_name(const std::string& base) {
  static int calls = 0;
  return base + "-" + std::to_string(calls++);
}

double admission_sample(const std::string& text, const std::string& deployment,
                        const char* policy, const char* verdict) {
  return prometheus_sample(text, "appeal_admission_total",
                           "deployment=\"" + deployment + "\",policy=\"" +
                               policy + "\",verdict=\"" + verdict + "\"");
}

TEST(server, two_deployments_match_their_offline_predictions) {
  const std::size_t n = 4000;
  const population vision = make_population(n, 101, 0.8);
  const population speech = make_population(n, 202, 0.7);
  const collab::sweep_point vision_offline = offline_point(vision, 0.9);
  const collab::sweep_point speech_offline = offline_point(speech, 0.8);

  serve::server srv;
  srv.register_deployment("vision",
                          replay_deployment_config(vision_offline.delta),
                          replay_edge_factory(vision),
                          replay_cloud_factory(vision));
  srv.register_deployment("speech",
                          replay_deployment_config(speech_offline.delta),
                          replay_edge_factory(speech),
                          replay_cloud_factory(speech));
  EXPECT_EQ(srv.num_deployments(), 2U);

  // Both deployments are driven concurrently from a shared client pool.
  std::vector<std::future<serve::response>> vision_futs(n);
  std::vector<std::future<serve::response>> speech_futs(n);
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < 8; ++c) {
    clients.emplace_back([&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1);
        if (i >= n) return;
        serve::inference_request to_vision;
        to_vision.model = "vision";
        to_vision.key = i;
        to_vision.label = vision.labels[i];
        vision_futs[i] = srv.submit(std::move(to_vision));
        serve::inference_request to_speech;
        to_speech.model = "speech";
        to_speech.key = i;
        to_speech.label = speech.labels[i];
        to_speech.priority = serve::priority_class::batch;
        speech_futs[i] = srv.submit(std::move(to_speech));
      }
    });
  }
  for (auto& t : clients) t.join();
  srv.drain();

  // Per-deployment aggregation: each deployment's achieved SR and online
  // accuracy reproduce its own offline system_eval prediction.
  const serve::stats_snapshot v = srv.at("vision").snapshot();
  const serve::stats_snapshot s = srv.at("speech").snapshot();
  EXPECT_EQ(v.completed, n);
  EXPECT_EQ(s.completed, n);
  EXPECT_EQ(v.shed, 0U);
  EXPECT_EQ(s.shed, 0U);
  EXPECT_NEAR(v.achieved_sr, vision_offline.achieved_sr, 0.02);
  EXPECT_NEAR(s.achieved_sr, speech_offline.achieved_sr, 0.02);
  EXPECT_NEAR(v.online_accuracy, vision_offline.accuracy, 0.02);
  EXPECT_NEAR(s.online_accuracy, speech_offline.accuracy, 0.02);
  // The two tenants really are different systems behind one front door.
  EXPECT_NE(vision_offline.delta, speech_offline.delta);

  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(vision_futs[i].get().status, serve::request_status::ok);
    EXPECT_EQ(speech_futs[i].get().status, serve::request_status::ok);
  }

  const std::string report = srv.render_stats();
  EXPECT_NE(report.find("deployment 'vision'"), std::string::npos);
  EXPECT_NE(report.find("deployment 'speech'"), std::string::npos);
}

/// The engine's snapshot and its deployment's are one window over one
/// ledger: after a reset through either they must agree on the request
/// counters AND the cloud link's counters.
TEST(server, shard_and_deployment_snapshots_agree_after_reset) {
  const std::size_t n = 400;
  const population p = make_population(n, 303, 0.8);
  serve::server srv;
  serve::deployment& dep = srv.register_deployment(
      "windows", replay_deployment_config(0.6), replay_edge_factory(p),
      replay_cloud_factory(p));
  const auto serve_all = [&] {
    for (std::size_t i = 0; i < n; ++i) {
      serve::inference_request req;
      req.model = "windows";
      req.key = i;
      req.label = p.labels[i];
      srv.submit(std::move(req));
    }
    srv.drain();
  };
  const auto expect_agree = [&](const char* when) {
    const serve::stats_snapshot d = dep.snapshot();
    const serve::stats_snapshot s = dep.shard(0).snapshot();
    EXPECT_EQ(s.submitted, d.submitted) << when;
    EXPECT_EQ(s.completed, d.completed) << when;
    EXPECT_EQ(s.appealed, d.appealed) << when;
    EXPECT_EQ(s.link.completed, d.link.completed) << when;
    EXPECT_EQ(s.link.wire.appeals_sent, d.link.wire.appeals_sent) << when;
    EXPECT_EQ(s.link.wire.bytes_sent, d.link.wire.bytes_sent) << when;
    return d;
  };

  serve_all();
  dep.reset_stats();
  serve::stats_snapshot d = expect_agree("after deployment reset");
  EXPECT_EQ(d.completed, 0U);
  EXPECT_EQ(d.link.wire.appeals_sent, 0U);
  EXPECT_EQ(d.link.wire.bytes_sent, 0U);

  serve_all();
  d = expect_agree("after serving again");
  EXPECT_EQ(d.completed, n);
  EXPECT_GT(d.appealed, 0U);
  EXPECT_EQ(d.link.wire.appeals_sent, d.appealed);
  EXPECT_EQ(d.link.completed, d.appealed);

  dep.shard(0).reset_stats();
  d = expect_agree("after engine reset");
  EXPECT_EQ(d.completed, 0U);
  EXPECT_EQ(d.link.wire.appeals_sent, 0U);
  EXPECT_EQ(d.link.wire.bytes_sent, 0U);
}

/// Two deployments with the same admission policy export separate
/// appeal_admission_total rows, each counting only its own verdicts.
TEST(server, admission_verdicts_are_labeled_per_deployment) {
  const population p = make_population(200, 404, 0.8);
  const std::string first = unique_name("adm-first");
  const std::string second = unique_name("adm-second");
  serve::server srv;
  for (const std::string& name : {first, second}) {
    srv.register_deployment(name, replay_deployment_config(0.6),
                            replay_edge_factory(p), replay_cloud_factory(p));
  }
  const auto serve_n = [&](const std::string& name, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      serve::inference_request req;
      req.model = name;
      req.key = i;
      srv.submit(std::move(req));
    }
  };
  serve_n(first, 30);
  serve_n(second, 70);
  srv.drain();

  const std::string text = obs::default_registry().render_prometheus();
  EXPECT_EQ(admission_sample(text, first, "block", "admitted"), 30.0);
  EXPECT_EQ(admission_sample(text, second, "block", "admitted"), 70.0);
  EXPECT_EQ(admission_sample(text, first, "block", "shed"), 0.0);
  EXPECT_EQ(admission_sample(text, second, "block", "shed"), 0.0);
}

TEST(server, unknown_model_and_duplicate_registration_throw) {
  const population p = make_population(64, 7, 0.8);
  serve::server srv;
  srv.register_deployment("only", replay_deployment_config(0.5),
                          replay_edge_factory(p), replay_cloud_factory(p));
  EXPECT_THROW(srv.register_deployment("only",
                                       replay_deployment_config(0.5),
                                       replay_edge_factory(p),
                                       replay_cloud_factory(p)),
               util::error);
  serve::inference_request req;
  req.model = "missing";
  EXPECT_THROW(srv.submit(std::move(req)), util::error);
  EXPECT_EQ(srv.find("missing"), nullptr);
  EXPECT_NE(srv.find("only"), nullptr);
}

/// Each configuration that would deadlock or serve nothing is refused,
/// both by validate() and by the deployment constructor.
TEST(server, validate_rejects_configs_that_serve_nothing) {
  const population p = make_population(64, 13, 0.8);
  const serve::deployment_config good = replay_deployment_config(0.5);
  EXPECT_NO_THROW(serve::validate(good));

  std::vector<serve::deployment_config> bad(5, good);
  bad[0].shards = 0;
  bad[1].shards = 2;
  bad[2].shard.num_workers = 0;
  bad[3].shard.queue_capacity = 0;
  bad[4].shard.batching.max_batch_size = 0;
  for (const serve::deployment_config& cfg : bad) {
    EXPECT_THROW(serve::validate(cfg), util::error);
    EXPECT_THROW(serve::deployment("bad", cfg, replay_edge_factory(p),
                                   replay_cloud_factory(p)),
                 util::error);
  }
}

/// Saturating closed-loop load against a tiny queue with slow edge
/// workers: `shed` admission must answer immediately (status::shed)
/// instead of blocking the submitting thread.
TEST(server, shed_admission_never_blocks_under_saturation) {
  const std::size_t n = 500;
  const population p = make_population(n, 11, 0.8);

  // δ=0: every admitted request completes on the edge, so the only thing
  // pacing the system is the simulated edge compute below.
  serve::deployment_config cfg = replay_deployment_config(0.0);
  cfg.shard.num_workers = 2;
  cfg.shard.queue_capacity = 4;
  cfg.shard.batching.max_batch_size = 4;
  cfg.shard.admission.policy = serve::admission_policy::shed;
  // ~50 ms of simulated edge compute per batch: the workers cannot keep
  // up, so a blocking submit loop would take many seconds.
  cfg.shard.simulate_edge_compute = true;
  cfg.shard.channel.time_scale = 50.0 / cfg.shard.link.overall_latency_ms(1.0);

  const std::string slow = unique_name("slow");
  serve::server srv;
  srv.register_deployment(slow, cfg, replay_edge_factory(p),
                          replay_cloud_factory(p));

  util::stopwatch clock;
  std::vector<std::future<serve::response>> futs;
  futs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    serve::inference_request req;
    req.model = slow;
    req.key = i;
    req.label = p.labels[i];
    futs.push_back(srv.submit(std::move(req)));
  }
  const double submit_seconds = clock.elapsed_seconds();
  // 500 requests through 2 edge workers draining 4-request batches at
  // ~50 ms per batch would need > 3 s if submit blocked; shedding keeps
  // the producer loop effectively instant.
  EXPECT_LT(submit_seconds, 2.0);

  srv.drain();
  std::size_t ok = 0;
  std::size_t shed = 0;
  for (auto& f : futs) {
    const serve::response r = f.get();
    if (r.status == serve::request_status::shed) {
      ++shed;
    } else {
      ASSERT_EQ(r.status, serve::request_status::ok);
      ++ok;
    }
  }
  EXPECT_GT(shed, 0U);
  EXPECT_GT(ok, 0U);
  const serve::stats_snapshot s = srv.at(slow).snapshot();
  EXPECT_EQ(s.shed, shed);
  EXPECT_EQ(s.completed, ok);
  EXPECT_EQ(s.submitted, n);
  EXPECT_GT(s.shed_rate, 0.0);
  // The exported admission verdicts agree with the responses.
  const std::string text = obs::default_registry().render_prometheus();
  EXPECT_EQ(admission_sample(text, slow, "shed", "shed"),
            static_cast<double>(shed));
  EXPECT_EQ(admission_sample(text, slow, "shed", "admitted"),
            static_cast<double>(ok));
}

/// Same saturation under `edge_only`: the overflow band is admitted but
/// pinned to the edge (route::edge_degraded), so the slow uplink never
/// sees the excess load.
TEST(server, edge_only_admission_degrades_instead_of_appealing) {
  const std::size_t n = 300;
  const population p = make_population(n, 13, 0.8);

  serve::deployment_config cfg = replay_deployment_config(2.0);  // δ=2:
  // every score < δ, so all *admitted* traffic would appeal.
  cfg.shard.num_workers = 1;
  cfg.shard.queue_capacity = 4;
  cfg.shard.batching.max_batch_size = 4;
  cfg.shard.admission.policy = serve::admission_policy::edge_only;
  cfg.shard.admission.degrade_headroom = 4.0;
  cfg.shard.simulate_edge_compute = true;
  cfg.shard.channel.time_scale = 10.0 / cfg.shard.link.overall_latency_ms(1.0);

  serve::server srv;
  srv.register_deployment("m", cfg, replay_edge_factory(p),
                          replay_cloud_factory(p));
  std::vector<std::future<serve::response>> futs;
  futs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    serve::inference_request req;
    req.model = "m";
    req.key = i;
    req.label = p.labels[i];
    futs.push_back(srv.submit(std::move(req)));
  }
  srv.drain();

  std::size_t degraded = 0;
  for (auto& f : futs) {
    const serve::response r = f.get();
    if (r.status != serve::request_status::ok) continue;
    if (r.taken == serve::route::edge_degraded) {
      ++degraded;
      // Degraded answers come from the little model, pinned to the edge
      // even though the score is below δ.
      EXPECT_LT(r.score, 2.0);
    }
  }
  EXPECT_GT(degraded, 0U);
  const serve::stats_snapshot s = srv.at("m").snapshot();
  EXPECT_EQ(s.edge_degraded, degraded);
  EXPECT_EQ(s.edge_kept, 0U);  // nothing legitimately cleared δ=2
}

/// admission_controller unit semantics, isolated from engine threading.
TEST(admission, batch_headroom_and_degrade_limits) {
  serve::request_queue queue(4);
  serve::admission_config cfg;
  cfg.policy = serve::admission_policy::shed;
  cfg.batch_headroom = 0.5;  // batch lane: 2 of 4 slots
  serve::admission_controller ctl(cfg);

  auto make = [](std::uint64_t id, serve::priority_class pri) {
    serve::request r;
    r.id = id;
    r.priority = pri;
    return r;
  };

  serve::request r0 = make(0, serve::priority_class::batch);
  serve::request r1 = make(1, serve::priority_class::batch);
  serve::request r2 = make(2, serve::priority_class::batch);
  EXPECT_EQ(ctl.try_admit(queue, r0), serve::admission_verdict::admitted);
  EXPECT_EQ(ctl.try_admit(queue, r1), serve::admission_verdict::admitted);
  // Batch traffic is refused at its headroom while interactive still fits.
  EXPECT_EQ(ctl.try_admit(queue, r2), serve::admission_verdict::shed);
  serve::request r3 = make(3, serve::priority_class::interactive);
  serve::request r4 = make(4, serve::priority_class::interactive);
  serve::request r5 = make(5, serve::priority_class::interactive);
  EXPECT_EQ(ctl.try_admit(queue, r3), serve::admission_verdict::admitted);
  EXPECT_EQ(ctl.try_admit(queue, r4), serve::admission_verdict::admitted);
  EXPECT_EQ(ctl.try_admit(queue, r5), serve::admission_verdict::shed);
  EXPECT_EQ(ctl.admitted(), 4U);
  EXPECT_EQ(ctl.shed(), 2U);

  // edge_only: the same full queue admits into the overflow band with
  // force_edge set.
  serve::admission_config degrade_cfg;
  degrade_cfg.policy = serve::admission_policy::edge_only;
  degrade_cfg.degrade_headroom = 2.0;
  serve::admission_controller degrade(degrade_cfg);
  serve::request r6 = make(6, serve::priority_class::interactive);
  EXPECT_EQ(degrade.try_admit(queue, r6), serve::admission_verdict::degraded);
  EXPECT_EQ(degrade.degraded(), 1U);
  serve::request out;
  std::size_t forced = 0;
  while (queue.try_pop(out)) {
    if (out.force_edge) ++forced;
  }
  EXPECT_EQ(forced, 1U);

  // Closed queue reports `closed` and leaves the request with the caller.
  queue.close();
  serve::request r7 = make(7, serve::priority_class::interactive);
  EXPECT_EQ(ctl.try_admit(queue, r7), serve::admission_verdict::closed);
}

TEST(admission, cloud_pressure_tightens_batch_and_degrades_interactive_early) {
  // The breaker/overload signal from the cloud channel: batch admission
  // tightens by pressure_batch_scale, and interactive traffic degrades
  // to the edge at pressure_degrade_fraction × capacity instead of
  // waiting for the queue to fill with appeals bound for a sick uplink.
  serve::request_queue queue(4);
  serve::admission_config cfg;
  cfg.policy = serve::admission_policy::edge_only;
  cfg.batch_headroom = 0.5;          // 2 of 4 slots normally
  cfg.pressure_batch_scale = 0.5;    // 1 slot under pressure
  cfg.pressure_degrade_fraction = 0.5;  // degrade at 2 of 4
  serve::admission_controller ctl(cfg);
  EXPECT_FALSE(ctl.cloud_pressure());
  ctl.set_cloud_pressure(true);
  EXPECT_TRUE(ctl.cloud_pressure());

  auto make = [](std::uint64_t id, serve::priority_class pri) {
    serve::request r;
    r.id = id;
    r.priority = pri;
    return r;
  };
  serve::request b0 = make(0, serve::priority_class::batch);
  serve::request b1 = make(1, serve::priority_class::batch);
  EXPECT_EQ(ctl.try_admit(queue, b0), serve::admission_verdict::admitted);
  // The tightened batch lane (1 slot) refuses the second batch request —
  // and batch traffic never enters the degrade band.
  EXPECT_EQ(ctl.try_admit(queue, b1), serve::admission_verdict::shed);

  serve::request i0 = make(2, serve::priority_class::interactive);
  serve::request i1 = make(3, serve::priority_class::interactive);
  EXPECT_EQ(ctl.try_admit(queue, i0), serve::admission_verdict::admitted);
  // Queue depth 2 = pressure_degrade_fraction × capacity: interactive
  // now degrades to the edge even though the queue is half empty.
  EXPECT_EQ(ctl.try_admit(queue, i1), serve::admission_verdict::degraded);

  // Releasing the pressure restores the plain limits immediately.
  ctl.set_cloud_pressure(false);
  serve::request i2 = make(4, serve::priority_class::interactive);
  EXPECT_EQ(ctl.try_admit(queue, i2), serve::admission_verdict::admitted);

  EXPECT_EQ(ctl.admitted(), 3U);
  EXPECT_EQ(ctl.degraded(), 1U);
  EXPECT_EQ(ctl.shed(), 1U);
  serve::request out;
  std::size_t forced = 0;
  while (queue.try_pop(out)) {
    if (out.force_edge) ++forced;
  }
  EXPECT_EQ(forced, 1U);
}

}  // namespace
