// Per-request trace spans: sampled end-to-end latency attribution.
//
// A trace_span is allocated (sampled) at submit time, rides inside the
// serve::request through every stage of the serving path, and is stamped
// with per-stage durations at each boundary:
//
//   queue_wait      enqueue -> pulled off the request_queue
//   batch_form      pulled -> the batch dispatches to the edge backend
//   edge_infer      the batched edge forward
//   decide          forward done -> δ decision applied (complete/appeal)
//   appeal_coalesce channel enqueue -> the coalesced batch is framed
//   wire_tx         frame handed to the transport -> send returns
//   cloud_queue     cloud work-queue wait   (cloud-stamped)
//   cloud_score     cloud batched scoring   (cloud-stamped)
//   wire_rx         the remainder of the link round trip (response
//                   receive side; computed as the link window minus
//                   tx and the cloud-stamped stages, clamped at 0)
//   complete        demux + stats + promise fulfillment (the residual
//                   between the measured end-to-end latency and the sum
//                   of the stages above)
//
// Edge-kept requests stamp only the first four stages + complete. The
// cloud stages come from cloud-side timestamps carried back in wire
// response records — durations, not absolute times, so no cross-process
// clock sync is assumed; if the two clocks disagree badly the stage sum
// stops reconciling with the measured end-to-end latency, which is
// exactly what tools/trace_report checks.
//
// Completed spans land in a trace_collector: a bounded ring (snapshot /
// JSONL export for tools/trace_report) that also feeds per-stage
// histograms (`appeal_stage_ms{stage=...}`) in a metrics_registry, so
// /metrics carries the per-stage waterfall even between trace dumps.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace appeal::obs {

enum class stage : std::uint8_t {
  queue_wait = 0,
  batch_form,
  edge_infer,
  decide,
  appeal_coalesce,
  wire_tx,
  cloud_queue,
  cloud_score,
  wire_rx,
  complete,
};
inline constexpr std::size_t kNumStages = 10;

/// Stable lowercase name ("queue_wait", ...) used as the `stage` label
/// and the JSONL key.
const char* stage_name(stage s);

struct trace_span {
  std::uint64_t trace_id = 0;
  std::uint64_t key = 0;
  bool appealed = false;
  bool expired = false;  // shed by a deadline (edge- or cloud-side)
  std::chrono::steady_clock::time_point start;  // enqueue time
  std::array<double, kNumStages> stage_ms{};
  double total_ms = 0.0;  // measured enqueue -> promise fulfillment

  void set(stage s, double ms) {
    stage_ms[static_cast<std::size_t>(s)] = ms < 0.0 ? 0.0 : ms;
  }
  double get(stage s) const { return stage_ms[static_cast<std::size_t>(s)]; }
  double stage_sum() const {
    double sum = 0.0;
    for (const double v : stage_ms) sum += v;
    return sum;
  }
};

/// Deterministic every-Nth sampler (period = round(1/rate)): cheap, and
/// an even slice of the traffic rather than a bursty random one. rate
/// <= 0 never samples, rate >= 1 always does. sample() also allocates
/// the span and stamps its start/trace id.
class trace_sampler {
 public:
  explicit trace_sampler(double rate);

  /// Null when this request is not sampled.
  std::unique_ptr<trace_span> sample(
      std::uint64_t key, std::chrono::steady_clock::time_point start);

  double rate() const { return rate_; }

 private:
  double rate_;
  std::uint64_t period_;  // 0 = never
  std::atomic<std::uint64_t> tick_{0};
};

/// Bounded ring of completed spans + per-stage registry histograms.
class trace_collector {
 public:
  explicit trace_collector(std::size_t capacity = 1 << 16);

  /// Routes per-stage durations into `reg` as appeal_stage_ms{stage=...}
  /// summaries plus appeal_trace_total_ms. Call once, before traffic;
  /// nullptr detaches.
  void attach_registry(metrics_registry* reg);

  void record(trace_span&& span);

  /// Copies the ring's current contents (oldest first).
  std::vector<trace_span> snapshot() const;

  /// Spans ever recorded (ring overwrites don't decrement).
  std::uint64_t recorded() const;

  void clear();

  /// One JSON object per line per span in the ring — the format
  /// tools/trace_report consumes.
  std::string render_jsonl() const;
  static std::string span_json(const trace_span& s);

 private:
  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::deque<trace_span> ring_;
  std::uint64_t recorded_ = 0;
  std::array<histogram*, kNumStages> stage_hist_{};
  histogram* total_hist_ = nullptr;
};

/// The process-wide collector the serving path records into.
trace_collector& default_collector();

/// Process-unique trace id (never 0 — 0 means "unsampled" on the wire).
std::uint64_t next_trace_id();

}  // namespace appeal::obs
