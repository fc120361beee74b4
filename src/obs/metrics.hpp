// Lock-cheap metrics registry: named counters, gauges, and log-linear
// histograms with label sets, shared by every stage of the serving path.
//
// Design: an instrument is found-or-created once (one mutex hit, at
// registration time — serve_stats, the admission controller, the
// batcher, the cloud channel, and stub_server all resolve their handles
// at construction) and then updated on the hot path with no lock at all.
// Counters and histograms are sharded: each instrument holds kShards
// cache-line-padded atomic slots and a thread hashes onto one, so two
// edge workers bumping the same counter never contend on a cache line.
// snapshot()/render merge the shards — reads pay the cost, writes don't.
//
// The process-global default_registry() is what the serving path and the
// exporters (obs/exporter.hpp: Prometheus text endpoint + JSON snapshot
// writer) share; tests construct private registries.
//
// Naming follows the Prometheus convention: `appeal_<noun>_total` for
// counters, `appeal_<noun>` for gauges, `appeal_<noun>_ms` for latency
// histograms; labels like {deployment="vision", stage="edge_infer"}
// split one family across deployments/stages.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace appeal::obs {

/// Sorted (key, value) pairs identifying one instrument within a family.
using label_set = std::vector<std::pair<std::string, std::string>>;

/// Shards per instrument. 16 covers the worker pools in play (engine
/// edge workers + channel + transport reader threads) without making a
/// snapshot merge expensive.
inline constexpr std::size_t kMetricShards = 16;

/// Index of the calling thread's shard (stable per thread, assigned
/// round-robin on first use so distinct threads spread over shards).
std::size_t shard_index();

namespace detail {
/// One cache line per atomic so shards never false-share.
struct alignas(64) padded_u64 {
  std::atomic<std::uint64_t> v{0};
};
}  // namespace detail

/// Monotonic counter. add() is wait-free (one relaxed fetch_add on the
/// caller's shard); value() merges the shards.
class counter {
 public:
  void add(std::uint64_t n = 1) {
    shards_[shard_index()].v.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const auto& s : shards_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }

 private:
  detail::padded_u64 shards_[kMetricShards];
};

/// Last-write-wins instantaneous value (queue depth, configured
/// δ, gemm threads). Doubles cover every current use; stored as bits so
/// the atomic stays lock-free everywhere.
class gauge {
 public:
  void set(double v) {
    bits_.store(to_bits(v), std::memory_order_relaxed);
  }
  void add(double d) {
    std::uint64_t expected = bits_.load(std::memory_order_relaxed);
    while (!bits_.compare_exchange_weak(expected, to_bits(from_bits(expected) + d),
                                        std::memory_order_relaxed)) {
    }
  }
  double value() const { return from_bits(bits_.load(std::memory_order_relaxed)); }

 private:
  static std::uint64_t to_bits(double v);
  static double from_bits(std::uint64_t b);
  std::atomic<std::uint64_t> bits_{0};
};

/// Log-linear (HDR-style) histogram with one fixed layout: 32
/// sub-buckets per power of two from 2^-10 to 2^20, plus 32 linear
/// buckets of the same width below 2^-10. Above 2^-10 a bucket's
/// midpoint is within 1/64 of every value in it, so every quantile read
/// from the bucket CDF is within 1/64 of the exact sample quantile — for
/// milliseconds, from about 1 µs to 17 minutes. Negative values clamp into bucket 0; values
/// at or above 2^20 and NaN clamp into the top bucket AND count in
/// overflow, so an out-of-range tail stays visible. observe() is
/// wait-free on the caller's shard.
class histogram {
 public:
  static constexpr int kSubBits = 5;  // 32 sub-buckets per octave
  static constexpr std::size_t kSubBuckets = std::size_t{1} << kSubBits;
  static constexpr int kMinExp = -10;  // log-linear range [2^-10, 2^20)
  static constexpr int kMaxExp = 20;
  static constexpr std::size_t kBuckets =
      kSubBuckets * static_cast<std::size_t>(kMaxExp - kMinExp + 1);

  void observe(double value);

  /// Everything but the buckets: enough for a mean.
  struct totals {
    std::uint64_t total = 0;
    std::uint64_t overflow = 0;  // observations clamped into the top bucket
    double sum = 0.0;            // of the raw (unclamped) values

    double mean() const {
      return total == 0 ? 0.0 : sum / static_cast<double>(total);
    }
    /// Observations made after `baseline` was taken (same instrument).
    totals since(const totals& baseline) const;
  };
  /// Reads one cache line per shard instead of every bucket — what a
  /// caller that only needs means should take (the bucket layout is
  /// 0.12 MB).
  totals read_totals() const;

  struct snapshot_data : totals {
    std::vector<std::uint64_t> counts;  // kBuckets entries

    /// Midpoint of the bucket holding the ceil(q * total)-th smallest
    /// observation; 0 when empty. q outside [0, 1] clamps.
    double quantile(double q) const;
    snapshot_data since(const snapshot_data& baseline) const;
  };
  snapshot_data snapshot() const;

  /// Bucket index of `value` and the [lower, upper) edges of a bucket.
  static std::size_t bucket_of(double value);
  static double bucket_lower(std::size_t bucket);
  static double bucket_upper(std::size_t bucket);

 private:
  struct alignas(64) shard {
    std::atomic<std::uint64_t> counts[kBuckets];
    // One cache line (counts spans whole lines): what read_totals() reads.
    std::atomic<std::uint64_t> total{0};
    std::atomic<std::uint64_t> overflow{0};
    /// Sum as double bits, CAS-accumulated.
    std::atomic<std::uint64_t> sum_bits{0};
  };

  shard shards_[kMetricShards];
};

/// The registry: find-or-create instruments by (name, labels). Returned
/// references stay valid for the registry's lifetime (instruments are
/// heap-allocated and never erased). Re-requesting an existing name with
/// the same labels returns the same instrument.
class metrics_registry {
 public:
  counter& get_counter(const std::string& name, label_set labels = {},
                       const std::string& help = "");
  gauge& get_gauge(const std::string& name, label_set labels = {},
                   const std::string& help = "");
  histogram& get_histogram(const std::string& name, label_set labels = {},
                           const std::string& help = "");

  /// Prometheus text exposition (text/plain; version=0.0.4): counters and
  /// gauges verbatim; histograms as summaries (quantile labels + _sum +
  /// _count) so a scrape stays small regardless of bucket count.
  std::string render_prometheus() const;

  /// One JSON object: {"name{labels}": value | {histogram fields}}.
  std::string render_json() const;

 private:
  enum class kind { counter, gauge, histogram };
  struct entry {
    kind type;
    std::string name;
    label_set labels;
    std::string help;
    std::unique_ptr<counter> c;
    std::unique_ptr<gauge> g;
    std::unique_ptr<histogram> h;
  };

  entry* find_locked(const std::string& name, const label_set& labels);

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<entry>> entries_;  // registration order
};

/// The process-wide registry the serving path and exporters share.
metrics_registry& default_registry();

}  // namespace appeal::obs
