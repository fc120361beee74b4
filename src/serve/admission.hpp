// Admission control at the request_queue boundary.
//
// PR 1's engine blocked producers unconditionally when the queue filled —
// correct for a closed-loop bench, wrong for a front door serving open
// traffic. The admission controller makes the full-queue decision
// explicit, per deployment:
//   - `block`      — classic backpressure: the submitting thread waits
//                    for space (the PR 1 behavior, still the default);
//   - `shed`       — never block: a full queue refuses the request and
//                    the client gets an immediate `request_status::shed`
//                    response;
//   - `edge_only`  — degrade before refusing: a full queue still admits
//                    the request (up to `degrade_headroom` × capacity)
//                    but pins it to the edge (`route::edge_degraded`, no
//                    cloud appeal) so it drains at edge speed instead of
//                    queueing behind the slow uplink; beyond the degrade
//                    headroom it sheds.
// Batch-class requests are admitted only while the queue is below
// `batch_headroom` × capacity, reserving the rest for interactive
// traffic in every policy (under `block` they wait at that limit, under
// `shed`/`edge_only` they shed there — the degrade overflow band is
// interactive-only).
//
// The controller also reacts to cloud-link pressure: when the engine
// reports the channel's circuit breaker open or an overload streak in
// progress (set_cloud_pressure), batch admission tightens by
// `pressure_batch_scale` and — under `edge_only` — interactive requests
// degrade to the edge at `pressure_degrade_fraction` × capacity instead
// of waiting for the queue to fill, since appeals would only feed the
// overload.
#pragma once

#include <atomic>
#include <cstddef>
#include <string>

#include "obs/metrics.hpp"
#include "serve/request.hpp"
#include "serve/request_queue.hpp"

namespace appeal::serve {

enum class admission_policy { block, shed, edge_only };

struct admission_config {
  admission_policy policy = admission_policy::block;
  /// Fraction of queue capacity available to batch-class requests
  /// (interactive always gets the full capacity).
  double batch_headroom = 0.75;
  /// `edge_only` overflow bound as a multiple of queue capacity.
  double degrade_headroom = 2.0;
  /// Under cloud pressure, batch_headroom is multiplied by this (batch
  /// traffic is the first to give way when the uplink is sick).
  double pressure_batch_scale = 0.5;
  /// Under cloud pressure with `edge_only`, interactive requests degrade
  /// to the edge once the queue passes this fraction of capacity
  /// (instead of only when full).
  double pressure_degrade_fraction = 0.5;
};

/// What happened to a request at the admission boundary.
enum class admission_verdict { admitted, degraded, shed, closed };

/// Applies one admission_config at one queue. Thread-safe; the verdict
/// counters are cheap introspection for tests and stats renders (the
/// canonical shed/degraded counts live in serve_stats, fed by the
/// engine at completion time).
class admission_controller {
 public:
  /// `deployment` (empty = unlabeled) labels the verdict counters, so
  /// two deployments with the same policy export separate series.
  explicit admission_controller(const admission_config& cfg,
                                const std::string& deployment = "");

  /// Decides and performs the enqueue. On `admitted`/`degraded` the
  /// request has been moved into the queue (degraded requests have
  /// `force_edge` set); on `shed`/`closed` it is left with the caller so
  /// the promise can still be fulfilled.
  admission_verdict try_admit(request_queue& queue, request& r);

  const admission_config& config() const { return config_; }

  /// Cloud-link pressure signal (engine::submit polls the channel's
  /// breaker/overload state and mirrors it here). Lock-free.
  void set_cloud_pressure(bool pressured) {
    pressure_.store(pressured, std::memory_order_relaxed);
  }
  bool cloud_pressure() const {
    return pressure_.load(std::memory_order_relaxed);
  }

  std::size_t admitted() const {
    return admitted_.load(std::memory_order_relaxed);
  }
  std::size_t degraded() const {
    return degraded_.load(std::memory_order_relaxed);
  }
  std::size_t shed() const { return shed_.load(std::memory_order_relaxed); }

 private:
  admission_verdict count(admission_verdict v);

  admission_config config_;
  std::atomic<bool> pressure_{false};
  std::atomic<std::size_t> admitted_{0};
  std::atomic<std::size_t> degraded_{0};
  std::atomic<std::size_t> shed_{0};
  /// Registry mirrors of the verdict counters, labeled
  /// {deployment=...,policy=...,verdict=...}. The local atomics stay
  /// authoritative for per-instance reads (two unlabeled engines with the
  /// same policy share one registry instrument).
  obs::counter& metric_admitted_;
  obs::counter& metric_degraded_;
  obs::counter& metric_shed_;
};

}  // namespace appeal::serve
