// Streaming serving metrics: one ledger, kept in the obs registry.
//
// Edge workers, the cloud channel, and the admission path record each
// finished request here. record() bumps obs::default_registry()
// instruments only — sharded wait-free counters and log-linear
// summaries, no lock — and snapshot() reads those same instruments back,
// minus a baseline taken at construction and at reset(). The baseline
// also covers the deployment's cloud link (its link_counters), so
// request counters, latency buckets, and wire counters always describe
// one window. One serve_stats instance serves a whole deployment: every
// engine shard records into the deployment's shared instance.
//
// Latency quantiles come from the log-linear obs::histogram (every
// quantile within 1/64 of the exact sample quantile); observations past
// its range (about 17 minutes) or NaN count in `overflow`. Throughput
// uses the shared util::stopwatch; online accuracy counts only requests
// that carried ground-truth labels (the collab::oracle protocol supplies
// them in evaluation runs). Shed and expired requests never ran
// inference: they are counted apart and excluded from latency, SR, and
// accuracy.
//
// Instruments are keyed by {deployment=...}: two live instances with the
// same label share them and read each other's events, exactly as a
// Prometheus scrape of that label would.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>

#include "obs/metrics.hpp"
#include "serve/request.hpp"
#include "serve/transport/cloud_transport.hpp"
#include "util/timer.hpp"

namespace appeal::serve {

class cloud_channel;

struct serve_stats_config {
  /// Value of the {deployment=...} label on this instance's instruments
  /// in obs::default_registry() (appeal_requests_total and friends, the
  /// appeal_latency_ms summary). Empty = unlabeled. Registry counters
  /// are process-cumulative — reset() opens a new snapshot window but
  /// never rewinds them (Prometheus counters are monotonic by contract).
  std::string deployment;
};

/// Point-in-time view of the counters since the last reset().
struct stats_snapshot {
  std::size_t completed = 0;     // requests that produced a prediction
  std::size_t edge_kept = 0;     // route::edge (score >= δ)
  std::size_t edge_degraded = 0; // route::edge_degraded (admission pinned)
  std::size_t appealed = 0;      // route::cloud
  std::size_t shed = 0;          // refused at admission (status::shed)
  std::size_t expired = 0;       // deadline passed before an edge worker
  std::size_t cloud_expired = 0; // appealed, then shed in the cloud's queue
  std::size_t overflow = 0;      // latencies beyond the histogram range
  std::size_t labeled = 0;
  std::size_t labeled_correct = 0;
  std::size_t cloud_labeled = 0;         // appealed requests with labels
  std::size_t cloud_labeled_correct = 0; // ...answered correctly (cloud path)

  double elapsed_seconds = 0.0;
  double throughput_rps = 0.0;   // completed / elapsed
  double achieved_sr = 0.0;      // (edge_kept + edge_degraded) / completed
  double shed_rate = 0.0;        // (shed + expired + cloud_expired) / submitted
  double online_accuracy = 0.0;  // labeled_correct / labeled
  double cloud_accuracy = 0.0;   // cloud_labeled_correct / cloud_labeled
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double mean_queue_ms = 0.0;    // enqueue -> batch pull
  double mean_link_ms = 0.0;     // uplink + cloud time over appeals
  /// Cloud-reported queue wait + scoring time over appeals (socket
  /// transports report it per response; 0 under the simulator).
  double mean_cloud_ms = 0.0;

  /// The deployment's cloud link over the same window (wire batches and
  /// bytes, fallbacks, retries, breaker, split appeals). All zero when
  /// the serve_stats has no channel.
  link_counters link;

  /// Everything that entered submit() and has completed by now (any
  /// status): completed + shed + expired + cloud_expired — shed_rate's
  /// denominator, exported so consumers never have to re-derive it.
  std::size_t submitted = 0;
};

class serve_stats {
 public:
  /// `link` is the cloud channel whose counters join the snapshot window
  /// (nullptr leaves stats_snapshot::link zero); it must outlive this.
  explicit serve_stats(const serve_stats_config& cfg = {},
                       const cloud_channel* link = nullptr);

  /// Records one finished request. Responses with a non-ok status are
  /// counted as shed/expired and touch no other statistic; `is_correct`
  /// is ignored when the request carried no label. Lock-free.
  void record(const response& r, bool is_labeled, bool is_correct);

  /// Opens a new window: re-takes the baseline (counters, latency
  /// buckets, link counters) and restarts the clock — used to discard a
  /// warmup phase so a measurement window starts clean.
  void reset();

  stats_snapshot snapshot() const;

  /// Multi-line human-readable rendering of a snapshot.
  static std::string render(const stats_snapshot& s);

 private:
  enum counter_id : std::size_t {
    kRequests, kCompleted, kEdge, kEdgeDegraded, kAppealed, kShed, kExpired,
    kCloudExpired, kLabeled, kLabeledCorrect, kCloudLabeled,
    kCloudLabeledCorrect, kCounters
  };
  /// Timings the snapshot reports only as means (their summaries still
  /// export full distributions).
  enum mean_id : std::size_t { kQueueWait, kLinkTime, kCloudTime, kMeans };

  /// Every instrument (and the link's counters) read once; a snapshot is
  /// the difference of two readings. Only latency needs its buckets.
  struct reading {
    std::array<std::uint64_t, kCounters> counts{};
    obs::histogram::snapshot_data latency;
    std::array<obs::histogram::totals, kMeans> means{};
    link_counters link;
  };
  reading read() const;
  void bump(counter_id c) { counters_[c]->add(1); }

  const cloud_channel* link_;
  std::array<obs::counter*, kCounters> counters_;
  obs::histogram* latency_;
  std::array<obs::histogram*, kMeans> means_;

  mutable std::mutex mutex_;  // guards baseline_ and clock_, never record()
  reading baseline_;
  util::stopwatch clock_;
};

}  // namespace appeal::serve
