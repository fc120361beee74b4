#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

#include "util/error.hpp"

namespace appeal::obs {

std::size_t shard_index() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t slot =
      next.fetch_add(1, std::memory_order_relaxed) % kMetricShards;
  return slot;
}

std::uint64_t gauge::to_bits(double v) { return std::bit_cast<std::uint64_t>(v); }
double gauge::from_bits(std::uint64_t b) { return std::bit_cast<double>(b); }

// --- histogram --------------------------------------------------------------

namespace {
/// Width of the linear buckets below 2^kMinExp (= the sub-bucket width of
/// the first octave, so bucket edges run contiguously into the log range).
constexpr double kLinearWidth =
    1.0 / static_cast<double>(std::uint64_t{1} << (histogram::kSubBits -
                                                   histogram::kMinExp));
constexpr double kLowEdge = kLinearWidth * histogram::kSubBuckets;
constexpr double kHighEdge =
    static_cast<double>(std::uint64_t{1} << histogram::kMaxExp);
}  // namespace

std::size_t histogram::bucket_of(double value) {
  if (!(value < kHighEdge)) return kBuckets - 1;  // overflow and NaN
  if (value < kLowEdge) {
    return value > 0.0 ? static_cast<std::size_t>(value / kLinearWidth) : 0;
  }
  // value = 1.m * 2^e with e in [kMinExp, kMaxExp): the exponent picks
  // the octave, the top kSubBits mantissa bits the sub-bucket.
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(value);
  const int exponent = static_cast<int>((bits >> 52) & 0x7FF) - 1023;
  const std::size_t sub = (bits >> (52 - kSubBits)) & (kSubBuckets - 1);
  return static_cast<std::size_t>(exponent - kMinExp + 1) * kSubBuckets + sub;
}

double histogram::bucket_lower(std::size_t bucket) {
  if (bucket < kSubBuckets) return static_cast<double>(bucket) * kLinearWidth;
  const int exponent = static_cast<int>(bucket / kSubBuckets) - 1 + kMinExp;
  const double sub = static_cast<double>(bucket % kSubBuckets);
  return std::ldexp(1.0 + sub / kSubBuckets, exponent);
}

double histogram::bucket_upper(std::size_t bucket) {
  return bucket + 1 < kBuckets ? bucket_lower(bucket + 1) : kHighEdge;
}

void histogram::observe(double value) {
  shard& s = shards_[shard_index()];
  s.counts[bucket_of(value)].fetch_add(1, std::memory_order_relaxed);
  s.total.fetch_add(1, std::memory_order_relaxed);
  if (std::isnan(value)) {
    // NaN would index nowhere; it sits in the top bucket as overflow so
    // it stays visible, and stays out of the sum.
    s.overflow.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (value >= kHighEdge) s.overflow.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t expected = s.sum_bits.load(std::memory_order_relaxed);
  std::uint64_t desired;
  do {
    desired =
        std::bit_cast<std::uint64_t>(std::bit_cast<double>(expected) + value);
  } while (!s.sum_bits.compare_exchange_weak(expected, desired,
                                             std::memory_order_relaxed));
}

histogram::totals histogram::read_totals() const {
  totals out;
  for (const shard& s : shards_) {
    out.total += s.total.load(std::memory_order_relaxed);
    out.overflow += s.overflow.load(std::memory_order_relaxed);
    out.sum += std::bit_cast<double>(s.sum_bits.load(std::memory_order_relaxed));
  }
  return out;
}

histogram::totals histogram::totals::since(const totals& baseline) const {
  totals d = *this;
  d.total -= baseline.total;
  d.overflow -= baseline.overflow;
  d.sum -= baseline.sum;
  return d;
}

histogram::snapshot_data histogram::snapshot() const {
  snapshot_data out;
  out.counts.assign(kBuckets, 0);
  for (const shard& s : shards_) {
    for (std::size_t i = 0; i < kBuckets; ++i) {
      out.counts[i] += s.counts[i].load(std::memory_order_relaxed);
    }
    out.overflow += s.overflow.load(std::memory_order_relaxed);
    out.sum += std::bit_cast<double>(s.sum_bits.load(std::memory_order_relaxed));
  }
  // The total is re-derived from the buckets read here, so a snapshot
  // taken under concurrent observes stays self-consistent for quantile().
  for (const std::uint64_t c : out.counts) out.total += c;
  return out;
}

histogram::snapshot_data histogram::snapshot_data::since(
    const snapshot_data& baseline) const {
  snapshot_data d;
  static_cast<totals&>(d) = totals::since(baseline);
  d.counts = counts;
  for (std::size_t i = 0; i < d.counts.size() && i < baseline.counts.size();
       ++i) {
    d.counts[i] -= baseline.counts[i];
  }
  return d;
}

double histogram::snapshot_data::quantile(double q) const {
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total))));
  std::uint64_t cumulative = 0;
  std::size_t bucket = counts.size() - 1;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    cumulative += counts[i];
    if (cumulative >= rank) {
      bucket = i;
      break;
    }
  }
  return 0.5 * (bucket_lower(bucket) + bucket_upper(bucket));
}

// --- registry ---------------------------------------------------------------

namespace {

label_set normalized(label_set labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}

void append_labels(std::string& out, const label_set& labels) {
  if (labels.empty()) return;
  out += '{';
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += k;
    out += "=\"";
    out += v;
    out += '"';
  }
  out += '}';
}

void append_number(std::string& out, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  out += buf;
}

}  // namespace

metrics_registry::entry* metrics_registry::find_locked(const std::string& name,
                                                       const label_set& labels) {
  for (auto& e : entries_) {
    if (e->name == name && e->labels == labels) return e.get();
  }
  return nullptr;
}

counter& metrics_registry::get_counter(const std::string& name,
                                       label_set labels,
                                       const std::string& help) {
  const label_set norm = normalized(std::move(labels));
  std::lock_guard<std::mutex> lock(mutex_);
  if (entry* e = find_locked(name, norm)) {
    APPEAL_CHECK(e->type == kind::counter,
                 "metric '" + name + "' already registered with another type");
    return *e->c;
  }
  auto e = std::make_unique<entry>();
  e->type = kind::counter;
  e->name = name;
  e->labels = norm;
  e->help = help;
  e->c = std::make_unique<counter>();
  counter& out = *e->c;
  entries_.push_back(std::move(e));
  return out;
}

gauge& metrics_registry::get_gauge(const std::string& name, label_set labels,
                                   const std::string& help) {
  const label_set norm = normalized(std::move(labels));
  std::lock_guard<std::mutex> lock(mutex_);
  if (entry* e = find_locked(name, norm)) {
    APPEAL_CHECK(e->type == kind::gauge,
                 "metric '" + name + "' already registered with another type");
    return *e->g;
  }
  auto e = std::make_unique<entry>();
  e->type = kind::gauge;
  e->name = name;
  e->labels = norm;
  e->help = help;
  e->g = std::make_unique<gauge>();
  gauge& out = *e->g;
  entries_.push_back(std::move(e));
  return out;
}

histogram& metrics_registry::get_histogram(const std::string& name,
                                           label_set labels,
                                           const std::string& help) {
  const label_set norm = normalized(std::move(labels));
  std::lock_guard<std::mutex> lock(mutex_);
  if (entry* e = find_locked(name, norm)) {
    APPEAL_CHECK(e->type == kind::histogram,
                 "metric '" + name + "' already registered with another type");
    return *e->h;
  }
  auto e = std::make_unique<entry>();
  e->type = kind::histogram;
  e->name = name;
  e->labels = norm;
  e->help = help;
  e->h = std::make_unique<histogram>();
  histogram& out = *e->h;
  entries_.push_back(std::move(e));
  return out;
}

std::string metrics_registry::render_prometheus() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out;
  out.reserve(entries_.size() * 96);
  // One HELP/TYPE block per family, emitted at its first entry only
  // (entries_ keeps registration order, so a family's instruments are
  // grouped by a linear "seen" scan).
  std::vector<const std::string*> seen;
  const auto first_of_family = [&](const std::string& name) {
    for (const std::string* s : seen) {
      if (*s == name) return false;
    }
    seen.push_back(&name);
    return true;
  };
  for (const auto& e : entries_) {
    const bool lead = first_of_family(e->name);
    switch (e->type) {
      case kind::counter: {
        if (lead) {
          if (!e->help.empty()) out += "# HELP " + e->name + " " + e->help + "\n";
          out += "# TYPE " + e->name + " counter\n";
        }
        out += e->name;
        append_labels(out, e->labels);
        out += ' ';
        append_number(out, static_cast<double>(e->c->value()));
        out += '\n';
        break;
      }
      case kind::gauge: {
        if (lead) {
          if (!e->help.empty()) out += "# HELP " + e->name + " " + e->help + "\n";
          out += "# TYPE " + e->name + " gauge\n";
        }
        out += e->name;
        append_labels(out, e->labels);
        out += ' ';
        append_number(out, e->g->value());
        out += '\n';
        break;
      }
      case kind::histogram: {
        if (lead) {
          if (!e->help.empty()) out += "# HELP " + e->name + " " + e->help + "\n";
          out += "# TYPE " + e->name + " summary\n";
        }
        const histogram::snapshot_data s = e->h->snapshot();
        for (const double q : {0.5, 0.95, 0.99}) {
          label_set with_q = e->labels;
          char qbuf[16];
          std::snprintf(qbuf, sizeof(qbuf), "%g", q);
          with_q.emplace_back("quantile", qbuf);
          out += e->name;
          append_labels(out, with_q);
          out += ' ';
          append_number(out, s.quantile(q));
          out += '\n';
        }
        out += e->name + "_sum";
        append_labels(out, e->labels);
        out += ' ';
        append_number(out, s.sum);
        out += '\n';
        out += e->name + "_count";
        append_labels(out, e->labels);
        out += ' ';
        append_number(out, static_cast<double>(s.total));
        out += '\n';
        break;
      }
    }
  }
  return out;
}

std::string metrics_registry::render_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::string out = "{";
  bool first = true;
  for (const auto& e : entries_) {
    if (!first) out += ",";
    first = false;
    out += "\n  \"";
    out += e->name;
    if (!e->labels.empty()) {
      std::string l;
      append_labels(l, e->labels);
      out += l;
    }
    out += "\": ";
    switch (e->type) {
      case kind::counter:
        append_number(out, static_cast<double>(e->c->value()));
        break;
      case kind::gauge:
        append_number(out, e->g->value());
        break;
      case kind::histogram: {
        const histogram::snapshot_data s = e->h->snapshot();
        out += "{\"count\": ";
        append_number(out, static_cast<double>(s.total));
        out += ", \"sum\": ";
        append_number(out, s.sum);
        out += ", \"overflow\": ";
        append_number(out, static_cast<double>(s.overflow));
        out += ", \"p50\": ";
        append_number(out, s.quantile(0.5));
        out += ", \"p95\": ";
        append_number(out, s.quantile(0.95));
        out += ", \"p99\": ";
        append_number(out, s.quantile(0.99));
        out += "}";
        break;
      }
    }
  }
  out += "\n}\n";
  return out;
}

metrics_registry& default_registry() {
  static metrics_registry* instance = new metrics_registry();  // never dies
  return *instance;
}

}  // namespace appeal::obs
