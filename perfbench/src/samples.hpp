// Exact order statistics over raw per-request samples.
//
// Percentiles are nearest-rank over every sample kept, not histogram bin
// centres, so a 10% shift in a sub-millisecond latency is visible. A
// request that failed enters a latency sample as +infinity: it misses any
// limit, and a percentile that lands on it reads as infinite.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <numeric>
#include <vector>

namespace perfbench {

class samples {
 public:
  void add(double v) {
    values_.push_back(v);
    sorted_ = false;
  }

  std::size_t size() const { return values_.size(); }

  void merge(const samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
    sorted_ = false;
  }

  /// Nearest-rank quantile, q in [0, 1]; NaN when there are no samples.
  double quantile(double q) {
    if (values_.empty()) return std::numeric_limits<double>::quiet_NaN();
    sort();
    const double rank = std::ceil(q * static_cast<double>(values_.size()));
    const std::size_t index =
        rank < 1.0 ? 0
                   : std::min(values_.size() - 1,
                              static_cast<std::size_t>(rank) - 1);
    return values_[index];
  }

  /// The highest percentile, in steps of 0.1, that still has at least
  /// `tail` samples beyond it (0 when there are fewer than `tail`).
  double top_resolved_percentile(std::size_t tail = 10) const {
    const double n = static_cast<double>(values_.size());
    if (n <= static_cast<double>(tail)) return 0.0;
    return std::floor((1.0 - static_cast<double>(tail) / n) * 1000.0) / 10.0;
  }

  double sum() const {
    return std::accumulate(values_.begin(), values_.end(), 0.0);
  }

  double mean() const {
    return values_.empty() ? 0.0 : sum() / static_cast<double>(values_.size());
  }

 private:
  void sort() {
    if (!sorted_) std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }

  std::vector<double> values_;
  bool sorted_ = true;
};

}  // namespace perfbench
