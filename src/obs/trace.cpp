#include "obs/trace.hpp"

#include <cmath>
#include <cstdio>

namespace appeal::obs {

const char* stage_name(stage s) {
  switch (s) {
    case stage::queue_wait: return "queue_wait";
    case stage::batch_form: return "batch_form";
    case stage::edge_infer: return "edge_infer";
    case stage::decide: return "decide";
    case stage::appeal_coalesce: return "appeal_coalesce";
    case stage::wire_tx: return "wire_tx";
    case stage::cloud_queue: return "cloud_queue";
    case stage::cloud_score: return "cloud_score";
    case stage::wire_rx: return "wire_rx";
    case stage::complete: return "complete";
  }
  return "unknown";
}

// --- sampler -----------------------------------------------------------------

trace_sampler::trace_sampler(double rate) : rate_(rate) {
  if (!(rate > 0.0)) {
    period_ = 0;
  } else if (rate >= 1.0) {
    period_ = 1;
  } else {
    period_ = static_cast<std::uint64_t>(std::llround(1.0 / rate));
    if (period_ == 0) period_ = 1;
  }
}

std::unique_ptr<trace_span> trace_sampler::sample(
    std::uint64_t key, std::chrono::steady_clock::time_point start) {
  if (period_ == 0) return nullptr;
  if (tick_.fetch_add(1, std::memory_order_relaxed) % period_ != 0) {
    return nullptr;
  }
  auto span = std::make_unique<trace_span>();
  span->trace_id = next_trace_id();
  span->key = key;
  span->start = start;
  return span;
}

// --- collector ---------------------------------------------------------------

trace_collector::trace_collector(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

void trace_collector::attach_registry(metrics_registry* reg) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (reg == nullptr) {
    stage_hist_.fill(nullptr);
    total_hist_ = nullptr;
    return;
  }
  for (std::size_t i = 0; i < kNumStages; ++i) {
    stage_hist_[i] = &reg->get_histogram(
        "appeal_stage_ms", {{"stage", stage_name(static_cast<stage>(i))}},
        "per-stage latency from sampled trace spans");
  }
  total_hist_ =
      &reg->get_histogram("appeal_trace_total_ms", {},
                          "end-to-end latency of sampled trace spans");
}

void trace_collector::record(trace_span&& span) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++recorded_;
  if (total_hist_ != nullptr) total_hist_->observe(span.total_ms);
  // Only stages the request actually passed through: stamping a zero for
  // cloud_queue on an edge-kept request would drag that stage's summary
  // toward 0 for no reason.
  const std::size_t last_edge_stage = static_cast<std::size_t>(stage::decide);
  for (std::size_t i = 0; i < kNumStages; ++i) {
    const bool on_path = span.appealed || i <= last_edge_stage ||
                         i == static_cast<std::size_t>(stage::complete);
    if (on_path && stage_hist_[i] != nullptr) {
      stage_hist_[i]->observe(span.stage_ms[i]);
    }
  }
  ring_.push_back(std::move(span));
  if (ring_.size() > capacity_) ring_.pop_front();
}

std::vector<trace_span> trace_collector::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::vector<trace_span>(ring_.begin(), ring_.end());
}

std::uint64_t trace_collector::recorded() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return recorded_;
}

void trace_collector::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  ring_.clear();
  recorded_ = 0;
}

std::string trace_collector::span_json(const trace_span& s) {
  char buf[64];
  std::string out = "{\"trace_id\":";
  std::snprintf(buf, sizeof(buf), "%llu",
                static_cast<unsigned long long>(s.trace_id));
  out += buf;
  out += ",\"key\":";
  std::snprintf(buf, sizeof(buf), "%llu",
                static_cast<unsigned long long>(s.key));
  out += buf;
  out += ",\"appealed\":";
  out += s.appealed ? "true" : "false";
  out += ",\"expired\":";
  out += s.expired ? "true" : "false";
  out += ",\"total_ms\":";
  std::snprintf(buf, sizeof(buf), "%.6f", s.total_ms);
  out += buf;
  out += ",\"stages\":{";
  for (std::size_t i = 0; i < kNumStages; ++i) {
    if (i != 0) out += ',';
    out += '"';
    out += stage_name(static_cast<stage>(i));
    out += "\":";
    std::snprintf(buf, sizeof(buf), "%.6f", s.stage_ms[i]);
    out += buf;
  }
  out += "}}";
  return out;
}

std::string trace_collector::render_jsonl() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  out.reserve(ring_.size() * 256);
  for (const trace_span& s : ring_) {
    out += span_json(s);
    out += '\n';
  }
  return out;
}

trace_collector& default_collector() {
  static trace_collector* instance = new trace_collector();  // never dies
  return *instance;
}

std::uint64_t next_trace_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace appeal::obs
