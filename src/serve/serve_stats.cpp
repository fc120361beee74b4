#include "serve/serve_stats.hpp"

#include <algorithm>
#include <cstdio>
#include <iterator>

#include "serve/cloud_channel.hpp"

namespace appeal::serve {

namespace {

obs::label_set deployment_labels(const std::string& deployment) {
  if (deployment.empty()) return {};
  return {{"deployment", deployment}};
}

struct instrument {
  const char* name;
  const char* help;
};

// Indexed by serve_stats' counter_id / mean_id.
constexpr instrument kCounterSpecs[] = {
    {"appeal_requests_total",
     "requests that entered submit() and have completed (any status)"},
    {"appeal_completed_total", "requests that produced a prediction"},
    {"appeal_edge_total",
     "requests answered on the edge (score >= delta or degraded)"},
    {"appeal_edge_degraded_total",
     "requests pinned to the edge by admission (degraded)"},
    {"appeal_appealed_total", "requests appealed to the cloud"},
    {"appeal_shed_total", "requests refused at admission"},
    {"appeal_expired_total",
     "requests whose deadline passed before an edge worker"},
    {"appeal_cloud_expired_requests_total",
     "appealed requests shed in the cloud's work queue"},
    {"appeal_labeled_total", "completed requests that carried a label"},
    {"appeal_labeled_correct_total",
     "labeled requests answered correctly"},
    {"appeal_cloud_labeled_total", "appealed requests that carried a label"},
    {"appeal_cloud_labeled_correct_total",
     "labeled appealed requests answered correctly"},
};
constexpr instrument kLatencySpec = {
    "appeal_latency_ms", "end-to-end latency of completed requests"};
constexpr instrument kMeanSpecs[] = {
    {"appeal_queue_wait_ms",
     "enqueue -> batch pull wait of completed requests"},
    {"appeal_link_ms", "uplink + cloud time of appealed requests"},
    {"appeal_cloud_ms",
     "cloud-reported queue wait + scoring time of appealed requests"},
};

double ratio(std::size_t num, std::size_t den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

}  // namespace

serve_stats::serve_stats(const serve_stats_config& cfg,
                         const cloud_channel* link)
    : link_(link) {
  static_assert(std::size(kCounterSpecs) == kCounters);
  static_assert(std::size(kMeanSpecs) == kMeans);
  const obs::label_set labels = deployment_labels(cfg.deployment);
  obs::metrics_registry& reg = obs::default_registry();
  for (std::size_t i = 0; i < kCounters; ++i) {
    counters_[i] =
        &reg.get_counter(kCounterSpecs[i].name, labels, kCounterSpecs[i].help);
  }
  latency_ = &reg.get_histogram(kLatencySpec.name, labels, kLatencySpec.help);
  for (std::size_t i = 0; i < kMeans; ++i) {
    means_[i] =
        &reg.get_histogram(kMeanSpecs[i].name, labels, kMeanSpecs[i].help);
  }
  baseline_ = read();
}

void serve_stats::record(const response& r, bool is_labeled,
                         bool is_correct) {
  bump(kRequests);
  if (r.status == request_status::shed) {
    bump(kShed);
    return;
  }
  if (r.status == request_status::expired) {
    // route::cloud means the request DID appeal and the cloud's scheduler
    // shed it (deadline blown in its work queue) — count it apart from
    // edge-side expiry so deadline pressure on the link is visible.
    bump(r.taken == route::cloud ? kCloudExpired : kExpired);
    return;
  }
  bump(kCompleted);
  switch (r.taken) {
    case route::edge:
      bump(kEdge);
      break;
    case route::edge_degraded:
      bump(kEdge);
      bump(kEdgeDegraded);
      break;
    case route::cloud:
      bump(kAppealed);
      means_[kLinkTime]->observe(r.link_ms);
      means_[kCloudTime]->observe(r.cloud_ms);
      if (is_labeled) {
        bump(kCloudLabeled);
        if (is_correct) bump(kCloudLabeledCorrect);
      }
      break;
  }
  if (is_labeled) {
    bump(kLabeled);
    if (is_correct) bump(kLabeledCorrect);
  }
  means_[kQueueWait]->observe(r.queue_ms);
  latency_->observe(r.latency_ms);
}

serve_stats::reading serve_stats::read() const {
  reading out;
  for (std::size_t i = 0; i < kCounters; ++i) {
    out.counts[i] = counters_[i]->value();
  }
  out.latency = latency_->snapshot();
  for (std::size_t i = 0; i < kMeans; ++i) {
    out.means[i] = means_[i]->read_totals();
  }
  if (link_ != nullptr) out.link = link_->counters();
  return out;
}

void serve_stats::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  baseline_ = read();
  clock_.reset();
}

stats_snapshot serve_stats::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  const reading now = read();
  const auto count = [&](counter_id c) {
    return static_cast<std::size_t>(now.counts[c] - baseline_.counts[c]);
  };
  const auto mean = [&](mean_id m) {
    return now.means[m].since(baseline_.means[m]).mean();
  };
  stats_snapshot s;
  // Counters are read one by one while requests complete; derive the
  // totals from their parts so a live snapshot still adds up.
  const std::size_t edge_total = count(kEdge);
  s.edge_degraded = std::min(count(kEdgeDegraded), edge_total);
  s.edge_kept = edge_total - s.edge_degraded;
  s.appealed = count(kAppealed);
  s.completed = edge_total + s.appealed;
  s.shed = count(kShed);
  s.expired = count(kExpired);
  s.cloud_expired = count(kCloudExpired);
  s.submitted = s.completed + s.shed + s.expired + s.cloud_expired;
  s.labeled = count(kLabeled);
  s.labeled_correct = count(kLabeledCorrect);
  s.cloud_labeled = count(kCloudLabeled);
  s.cloud_labeled_correct = count(kCloudLabeledCorrect);

  s.elapsed_seconds = clock_.elapsed_seconds();
  if (s.elapsed_seconds > 0.0) {
    s.throughput_rps = static_cast<double>(s.completed) / s.elapsed_seconds;
  }
  s.achieved_sr = ratio(edge_total, s.completed);
  s.shed_rate = ratio(s.shed + s.expired + s.cloud_expired, s.submitted);
  s.online_accuracy = ratio(s.labeled_correct, s.labeled);
  s.cloud_accuracy = ratio(s.cloud_labeled_correct, s.cloud_labeled);

  const obs::histogram::snapshot_data latency =
      now.latency.since(baseline_.latency);
  s.overflow = static_cast<std::size_t>(latency.overflow);
  s.p50_ms = latency.quantile(0.50);
  s.p95_ms = latency.quantile(0.95);
  s.p99_ms = latency.quantile(0.99);
  s.mean_queue_ms = mean(kQueueWait);
  s.mean_link_ms = mean(kLinkTime);
  s.mean_cloud_ms = mean(kCloudTime);
  s.link = now.link.since(baseline_.link);
  return s;
}

std::string serve_stats::render(const stats_snapshot& s) {
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "completed        : %zu (edge %zu / degraded %zu / cloud %zu)\n"
      "shed             : %zu admission + %zu expired + %zu cloud-expired "
      "(%.2f%% of %zu submitted)\n"
      "throughput       : %.0f req/s over %.2f s\n"
      "latency          : p50 %.3f ms  p95 %.3f ms  p99 %.3f ms (%zu overflow)\n"
      "mean queue wait  : %.3f ms\n"
      "mean link time   : %.3f ms (appealed requests)\n"
      "achieved SR      : %.2f%%\n"
      "online accuracy  : %.2f%% (%zu labeled)\n",
      s.completed, s.edge_kept, s.edge_degraded, s.appealed, s.shed,
      s.expired, s.cloud_expired, s.shed_rate * 100.0, s.submitted,
      s.throughput_rps, s.elapsed_seconds, s.p50_ms, s.p95_ms, s.p99_ms,
      s.overflow, s.mean_queue_ms, s.mean_link_ms, s.achieved_sr * 100.0,
      s.online_accuracy * 100.0, s.labeled);
  std::string out(buf);
  if (s.cloud_labeled > 0) {
    std::snprintf(buf, sizeof(buf),
                  "cloud accuracy   : %.2f%% (%zu labeled appeals)\n",
                  s.cloud_accuracy * 100.0, s.cloud_labeled);
    out += buf;
  }
  const link_counters& l = s.link;
  if (l.wire.batches_sent > 0 || l.local_fallbacks > 0) {
    std::snprintf(
        buf, sizeof(buf),
        "cloud link       : %zu appeals in %zu batches "
        "(%.2f appeals/batch), %zu B up / %zu B down, mean cloud %.3f ms, "
        "%zu local fallbacks\n",
        l.wire.appeals_sent, l.wire.batches_sent,
        l.wire.mean_appeals_per_batch(), l.wire.bytes_sent,
        l.wire.bytes_received, s.mean_cloud_ms, l.local_fallbacks);
    out += buf;
  }
  if (l.overloaded > 0 || l.retries > 0 || l.breaker_opens > 0) {
    std::snprintf(buf, sizeof(buf),
                  "link robustness  : %zu overloaded answers, %zu retries, "
                  "%zu breaker opens (breaker %s)\n",
                  l.overloaded, l.retries, l.breaker_opens,
                  breaker_state_name(static_cast<breaker_state>(l.breaker)));
    out += buf;
  }
  return out;
}

}  // namespace appeal::serve
