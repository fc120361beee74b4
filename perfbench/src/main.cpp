// perfbench: the repository benchmark. Serves one workload open-loop at
// fixed rates through serve::server, over a real Unix-domain socket to an
// in-process serve::stub_server, checks every answer against an offline
// reference, and prints each metric by name with its unit. The last line
// of stdout is one JSON object: {"correct", "attempted", "failed",
// "metrics"} — end-to-end metrics by default, per-layer metrics with
// --trace=1. Usually launched through perfbench/run.py, which builds this
// binary and fills in the workload parameters from workloads.json.
//
//   perfbench --workload=edge_int8 --edge=int8
//             --skip_rate=0.9 --stub_workers=1 --pool=2048
//             --low_rps=... --high_rps=... --slo_hint_rps=... --limit_ms=...
//             [--seed=1] [--seconds=20] [--trace=0|1]
//             [--sock_dir=.bench_build] [--trace_out=<jsonl>] [--commit=...]
//
// Exit status: 0 when every answer matched the reference and every
// pipeline ledger conserved; 1 on a violation (the result line is still
// printed, with "correct": false); 2 on a usage or set-up error.
#include <unistd.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/two_head_network.hpp"
#include "layers.hpp"
#include "loadgen.hpp"
#include "samples.hpp"
#include "serve/cloud_model.hpp"
#include "spans.hpp"
#include "util/config.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "workload.hpp"

namespace {

using namespace perfbench;
namespace serve = appeal::serve;

struct options {
  workload_config wl;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string sock_dir = ".";
  std::string trace_out;
  std::string commit = "unknown";
};

// Phase lengths as shares of --seconds; warm-up, set-up and drains come
// on top. Workspaces, arenas and socket buffers settle within the first
// seconds of load, so every deployment is warmed at the high rate first.
constexpr double kWarmupSeconds = 3.0;
constexpr double kLowShare = 0.25;
constexpr double kHighShare = 0.30;
constexpr double kProbeShare = 0.075;
// Latency percentiles are taken per window of the schedule, and the lower
// quartile across windows is reported (the whole-phase exact values are
// printed beside it). The shared host runs a third slower for seconds at
// a time and stalls for milliseconds now and then; how much of a run that
// hits differs from run to run, while the fast windows repeat. A phase
// gets up to kPhaseWindows windows of at least kWindowRequests expected
// requests each; an slo probe gets kProbeWindows and is judged the same
// way.
constexpr std::size_t kPhaseWindows = 20;
// The host's speed swings by up to a third for seconds at a time, so the
// low and high phases are run as kSlices alternating slices: both see the
// same mix of fast and slow spells. Each slice holds up to two windows.
// For the same reason set-up is timed once per slice pair, on a throwaway
// stack, besides the serving stack's own; setup_s is the median.
constexpr std::size_t kSlices = 10;
constexpr std::size_t kSliceWindows = 2;
constexpr std::size_t kProbeWindows = 8;
constexpr double kWindowRequests = 200.0;
constexpr double kAcrossWindows = 0.25;
// slo search: bracket in steps of 1.25x, then bisect to <= 5% resolution.
constexpr double kBracketStep = 1.25;
constexpr double kResolution = 1.05;
constexpr std::size_t kMaxBracketProbes = 6;
// The tail the result line and the slo search use. Host hiccups on a
// shared 4-vCPU machine decide p99 from run to run; p95 stays steady, so
// p99 is printed beside it but not gated.
constexpr double kTail = 0.95;
constexpr std::size_t kLayerReps = 15;

// ---------------------------------------------------------------- output

struct metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class report {
 public:
  /// Prints the metric; `in_result` also puts it in the result line.
  void add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "", bool in_result = true) {
    std::printf("metric %-40s %14.6f %-8s %s%s\n", name.c_str(), value,
                unit.c_str(), note.c_str(), in_result ? "" : " [printed only]");
    if (!in_result) return;
    if (!std::isfinite(value)) {
      std::fprintf(stderr, "perfbench: %s is not finite; reported as -1\n",
                   name.c_str());
      value = -1.0;
    }
    metrics_.push_back({name, value, unit});
  }

  void print_result(bool correct, std::size_t attempted,
                    std::size_t failed) const {
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                  metrics_[i].value, metrics_[i].unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  std::vector<metric> metrics_;
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid(0x80000000U, &regs[0], &regs[1], &regs[2], &regs[3]) != 0 &&
      regs[0] >= 0x80000004U) {
    for (unsigned int leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002U + leaf, &regs[leaf * 4], &regs[leaf * 4 + 1],
                  &regs[leaf * 4 + 2], &regs[leaf * 4 + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto first = s.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : s.substr(first);
  }
#endif
  return "unknown";
}

void print_provenance(const options& opt) {
  char host[256] = {};
  if (::gethostname(host, sizeof(host) - 1) != 0) std::strcpy(host, "unknown");
  const std::string build = PERFBENCH_BUILD_TYPE;
  if (build != "Release") {
    std::printf("WARNING: non-Release build (%s): numbers are not comparable\n",
                build.c_str());
  }
  const workload_config& w = opt.wl;
  std::printf(
      "provenance {\"host\": \"%s\", \"nproc\": %u, \"cpu\": \"%s\", "
      "\"compiler\": \"%s\", \"build_type\": \"%s\", \"commit\": \"%s\", "
      "\"seed\": %llu, \"seconds\": %.3f, \"trace\": %d, \"workload\": "
      "{\"name\": \"%s\", \"edge\": \"%s\", "
      "\"skip_rate\": %.3f, \"stub_workers\": %zu, \"pool\": %zu, "
      "\"low_rps\": %.1f, \"high_rps\": %.1f, \"slo_hint_rps\": %.1f, "
      "\"limit_ms\": %.3f}}\n",
      json_escape(host).c_str(), std::thread::hardware_concurrency(),
      json_escape(cpu_model()).c_str(), json_escape(__VERSION__).c_str(),
      json_escape(build).c_str(), json_escape(opt.commit).c_str(),
      static_cast<unsigned long long>(opt.seed), opt.seconds,
      opt.trace ? 1 : 0, w.name.c_str(), w.edge.c_str(),
      w.skip_rate, w.stub_workers, w.pool, w.low_rps, w.high_rps,
      w.slo_hint_rps, w.limit_ms);
}

// ------------------------------------------------------- correctness gate

/// Correctness and failure accounting for one deployment.
struct gate {
  std::size_t submitted = 0;   // everything sent to the deployment
  std::size_t mismatched = 0;  // ok answers that differ from the reference
  std::vector<std::string> violations;

  bool ok() const { return mismatched == 0 && violations.empty(); }

  /// After shutdown: in == out + egress at every node, and the egress
  /// sum equals the number of requests submitted.
  void check_ledgers(serve::deployment& dep) {
    std::uint64_t egress = 0;
    for (const serve::pipeline::node_stats& n : dep.shard(0).node_stats()) {
      egress += n.egress;
      if (n.in != n.out + n.egress) {
        violations.push_back("node " + n.name + " does not conserve: in " +
                             std::to_string(n.in) + " != out " +
                             std::to_string(n.out) + " + egress " +
                             std::to_string(n.egress));
      }
    }
    if (egress != submitted) {
      violations.push_back("ledger egress " + std::to_string(egress) +
                           " != submitted " + std::to_string(submitted));
    }
  }
};

bool matches(const serve::response& resp, const reference& ref,
             std::size_t item) {
  const serve::route expected =
      ref.pool.to_cloud[item] != 0 ? serve::route::cloud : serve::route::edge;
  return resp.taken == expected &&
         resp.predicted_class == ref.expected_class(item);
}

/// Link and stub counters, read before and after a phase.
struct counters {
  serve::link_counters link;
  serve::stub_server_counters stub;

  static counters read(serving_stack& s) {
    return {s.deployment().channel().counters(), s.stub().counters()};
  }
};

/// Everything one phase measured.
struct phase_summary {
  std::string name;
  double rate = 0.0;
  std::size_t sent = 0;
  std::size_t failed = 0;
  bool aborted = false;
  bool backlog = false;
  samples latency;         // due -> completion, ms; failures = +inf
  samples edge_latency;    // answered on the edge
  samples appeal_latency;  // appealed
  // The same latencies split into equal windows of the schedule.
  std::vector<samples> window_latency;
  std::vector<samples> window_edge;
  std::vector<samples> window_appeal;
  samples lag;             // sent - due, ms
  samples submit_us;       // time inside server::submit
  double cpu_seconds = 0.0;
  samples slice_cpu_ms_per_req;  // one value per slice
  std::size_t uplink_bytes = 0;  // appeal frame bytes sent
  counters before;
  counters after;

  std::size_t completed() const { return sent - failed; }

  /// Appends a later slice of the same phase.
  void merge(phase_summary&& slice) {
    sent += slice.sent;
    failed += slice.failed;
    aborted = aborted || slice.aborted;
    backlog = backlog || slice.backlog;
    const auto append = [](std::vector<samples>& to, std::vector<samples>& from) {
      to.insert(to.end(), std::make_move_iterator(from.begin()),
                std::make_move_iterator(from.end()));
    };
    latency.merge(slice.latency);
    edge_latency.merge(slice.edge_latency);
    appeal_latency.merge(slice.appeal_latency);
    append(window_latency, slice.window_latency);
    append(window_edge, slice.window_edge);
    append(window_appeal, slice.window_appeal);
    lag.merge(slice.lag);
    submit_us.merge(slice.submit_us);
    cpu_seconds += slice.cpu_seconds;
    slice_cpu_ms_per_req.merge(slice.slice_cpu_ms_per_req);
    uplink_bytes += slice.uplink_bytes;
    after = slice.after;
  }
};

/// The lower quartile over windows of each window's exact quantile `q`.
double windowed(std::vector<samples>& windows, double q) {
  samples per_window;
  for (samples& w : windows) {
    if (w.size() > 0) per_window.add(w.quantile(q));
  }
  return per_window.quantile(kAcrossWindows);
}

phase_summary summarize(const std::string& name, double rate,
                        double seconds, std::size_t windows,
                        const phase_run& run, const reference& ref,
                        const counters& before, const counters& after,
                        gate& g, double limit_ms) {
  phase_summary s;
  s.window_latency.resize(windows);
  s.window_edge.resize(windows);
  s.window_appeal.resize(windows);
  const double window_ms = seconds * 1e3 / static_cast<double>(windows);
  s.name = name;
  s.rate = rate;
  s.sent = run.records.size();
  s.aborted = run.aborted;
  s.cpu_seconds = run.cpu_seconds;
  s.before = before;
  s.after = after;
  s.uplink_bytes = after.link.wire.bytes_sent - before.link.wire.bytes_sent;
  g.submitted += run.records.size();
  constexpr double inf = std::numeric_limits<double>::infinity();
  for (const request_record& r : run.records) {
    const auto w = std::min(
        windows - 1, static_cast<std::size_t>(
                         ms_between(run.records.front().due, r.due) / window_ms));
    s.lag.add(ms_between(r.due, r.sent));
    s.submit_us.add(ms_between(r.sent, r.submitted) * 1e3);
    const bool ok = r.resp.status == serve::request_status::ok;
    const bool right = ok && matches(r.resp, ref, r.item);
    if (ok && !right) ++g.mismatched;
    if (!right) {
      ++s.failed;
      s.latency.add(inf);
      s.window_latency[w].add(inf);
      continue;
    }
    const double ms = ms_between(r.due, r.done);
    s.latency.add(ms);
    s.window_latency[w].add(ms);
    if (r.resp.taken == serve::route::cloud) {
      s.appeal_latency.add(ms);
      s.window_appeal[w].add(ms);
    } else {
      s.edge_latency.add(ms);
      s.window_edge[w].add(ms);
    }
  }
  // Appeals answered by the local fallback carry the right class but never
  // crossed the link: they count as failures.
  s.failed += after.link.local_fallbacks - before.link.local_fallbacks;
  if (!run.records.empty()) {
    // Backlog: requests still outstanding when the last one was sent,
    // against four times what Little's law allows at the latency limit
    // (headroom for one host hiccup; a real backlog grows past it).
    const clock::time_point last_sent = run.records.back().sent;
    const auto outstanding = static_cast<double>(std::count_if(
        run.records.begin(), run.records.end(),
        [&](const request_record& r) { return r.done > last_sent; }));
    s.backlog = outstanding > std::max(64.0, 4.0 * rate * limit_ms * 1e-3);
  }
  s.slice_cpu_ms_per_req.add(
      s.cpu_seconds * 1e3 /
      static_cast<double>(std::max<std::size_t>(1, s.completed())));
  return s;
}

void print_phase(phase_summary& s) {
  std::printf(
      "phase %-8s rate %9.1f req/s: sent %zu, succeeded %zu, failed %zu; "
      "p50 %.4f ms, p95 %.4f ms, p99 %.4f ms (lower quartile of %zu "
      "windows); "
      "whole phase p50 %.4f ms, p95 %.4f ms, p99 %.4f ms (n=%zu, highest "
      "resolved p%.1f = %.4f ms); generator lag p99 %.4f ms%s%s\n",
      s.name.c_str(), s.rate, s.sent, s.completed(), s.failed,
      windowed(s.window_latency, 0.5), windowed(s.window_latency, kTail),
      windowed(s.window_latency, 0.99), s.window_latency.size(),
      s.latency.quantile(0.5), s.latency.quantile(kTail),
      s.latency.quantile(0.99), s.latency.size(),
      s.latency.top_resolved_percentile(),
      s.latency.quantile(s.latency.top_resolved_percentile() / 100.0),
      s.lag.quantile(0.99), s.aborted ? ", ABORTED (generator fell behind)" : "",
      s.backlog ? ", backlog grew" : "");
}

/// Maps a layer span to the request it served: the latest request with
/// the span's key sent before the span started. A key repeats only once
/// per pool cycle, far longer than a request lives.
class request_index {
 public:
  explicit request_index(const std::vector<request_record>& records)
      : records_(records) {
    for (std::size_t i = 0; i < records.size(); ++i) {
      by_key_[records[i].item].push_back(i);
    }
  }

  /// Index of the owning request, or none() when there is none.
  std::size_t owner(std::uint64_t key, clock::time_point t) const {
    std::size_t best = none();
    const auto it = by_key_.find(key);
    if (it == by_key_.end()) return best;
    for (const std::size_t i : it->second) {
      if (records_[i].sent <= t) best = i;
    }
    return best;
  }

  std::size_t none() const { return records_.size(); }

 private:
  const std::vector<request_record>& records_;
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> by_key_;
};

// ------------------------------------------------------------ the run

class bench {
 public:
  explicit bench(options opt)
      : opt_(std::move(opt)), ref_(build_reference(opt_.wl, opt_.seed)) {
    std::size_t kept = 0;
    for (const char c : ref_.pool.to_cloud) kept += c == 0 ? 1 : 0;
    std::printf(
        "reference: %zu pool entries, delta %.6f keeps %zu on the edge "
        "(skip rate %.4f)\n",
        ref_.pool.size(), ref_.delta, kept,
        static_cast<double>(kept) / static_cast<double>(ref_.pool.size()));
  }

  int run() { return opt_.trace ? run_traced() : run_end_to_end(); }

 private:
  std::string next_endpoint() {
    return opt_.sock_dir + "/pb-" + std::to_string(::getpid()) + "-" +
           std::to_string(endpoints_++) + ".sock";
  }

  /// Builds a stack and serves its first request: the set-up time runs
  /// to the moment that request is admitted.
  std::unique_ptr<serving_stack> set_up(span_log* spans, gate& g,
                                        double* seconds) {
    const clock::time_point start = clock::now();
    auto stack = std::make_unique<serving_stack>(opt_.wl, ref_, opt_.seed,
                                                 next_endpoint(), spans);
    std::future<serve::response> first =
        stack->server().submit(ref_.pool.make(0));
    if (seconds != nullptr) {
      *seconds = std::chrono::duration<double>(clock::now() - start).count();
    }
    const serve::response resp = first.get();
    ++g.submitted;
    if (resp.status != serve::request_status::ok || !matches(resp, ref_, 0)) {
      ++g.mismatched;
    }
    return stack;
  }

  /// Times the set-up of a second, idle stack and tears it down. Its first
  /// answer still goes through the correctness gate; its ledgers do not.
  double throwaway_setup(gate& g) {
    gate own;
    double seconds = 0.0;
    set_up(nullptr, own, &seconds);
    g.mismatched += own.mismatched;
    return seconds;
  }

  /// One open-loop phase; `keep` receives its raw records when set.
  phase_summary phase(serving_stack& s, gate& g, const std::string& name,
                      double rate, double seconds,
                      std::size_t windows = kPhaseWindows,
                      double abort_lag_ms = 0.0,
                      std::vector<request_record>* keep = nullptr) {
    windows = std::clamp<std::size_t>(
        static_cast<std::size_t>(rate * seconds / kWindowRequests), 1, windows);
    phase_plan plan;
    plan.rate = rate;
    plan.seconds = seconds;
    plan.seed = appeal::util::rng(opt_.seed * 1000003ULL + phases_++).next_u64();
    plan.first_item = next_item_;
    plan.abort_lag_ms = abort_lag_ms;
    const counters before = counters::read(s);
    phase_run run = run_phase(s.server(), ref_.pool, plan);
    next_item_ = run.next_item;
    phase_summary summary =
        summarize(name, rate, seconds, windows, run, ref_, before,
                  counters::read(s), g, opt_.wl.limit_ms);
    if (keep != nullptr) *keep = std::move(run.records);
    return summary;
  }

  void warm_up(serving_stack& s, gate& g) {
    phase(s, g, "warmup", opt_.wl.high_rps, kWarmupSeconds);
  }

  /// Highest rate whose p95 meets the limit with no failure, no aborted
  /// schedule and no growing backlog. A probe that misses the limit only
  /// marginally is repeated once, so one host hiccup cannot end the search
  /// early.
  double slo_search(serving_stack& s, gate& g) {
    const double limit = opt_.wl.limit_ms;
    const double probe_s = kProbeShare * opt_.seconds;
    const auto probe_once = [&](double rate) {
      phase_summary p =
          phase(s, g, "probe", rate, probe_s, kProbeWindows, 20.0 * limit);
      const double tail = windowed(p.window_latency, kTail);
      const bool pass =
          !p.aborted && !p.backlog && p.failed == 0 && tail <= limit;
      std::printf("slo probe %10.1f req/s: p95 %.4f ms (limit %.3f), p99 "
                  "%.4f ms, failed %zu%s%s -> %s\n",
                  rate, tail, limit, windowed(p.window_latency, 0.99),
                  p.failed, p.aborted ? ", aborted" : "",
                  p.backlog ? ", backlog grew" : "", pass ? "pass" : "fail");
      // A probe that fell behind or built a backlog is clearly over
      // capacity; only a marginal miss earns a second look.
      return pass ? 1 : (p.aborted || p.backlog ? -1 : 0);
    };
    const auto probe = [&](double rate) {
      const int verdict = probe_once(rate);
      return verdict > 0 || (verdict == 0 && probe_once(rate) > 0);
    };
    double lo = 0.0;
    double hi = 0.0;
    double rate = opt_.wl.slo_hint_rps;
    if (probe(rate)) {
      lo = rate;
      for (std::size_t i = 0; i < kMaxBracketProbes && hi == 0.0; ++i) {
        rate *= kBracketStep;
        (probe(rate) ? lo : hi) = rate;
      }
    } else {
      hi = rate;
      for (std::size_t i = 0; i < kMaxBracketProbes && lo == 0.0; ++i) {
        rate /= kBracketStep;
        (probe(rate) ? lo : hi) = rate;
      }
    }
    if (lo == 0.0 || hi == 0.0) {
      // The bracket never closed: report the edge of what was searched.
      std::printf("slo search did not bracket the limit within %zu steps\n",
                  kMaxBracketProbes);
      return lo == 0.0 ? hi / kBracketStep : lo;
    }
    while (hi / lo > kResolution) {
      const double mid = std::sqrt(lo * hi);
      (probe(mid) ? lo : hi) = mid;
    }
    return lo;
  }

  int run_end_to_end() {
    gate g;
    samples setup;
    double seconds = 0.0;
    std::unique_ptr<serving_stack> stack = set_up(nullptr, g, &seconds);
    setup.add(seconds);
    serving_stack& s = *stack;
    warm_up(s, g);
    s.deployment().reset_stats();
    phase_summary low;
    phase_summary high;
    for (std::size_t slice = 0; slice < kSlices; ++slice) {
      phase_summary l = phase(s, g, "low", opt_.wl.low_rps,
                              kLowShare * opt_.seconds / kSlices, kSliceWindows);
      phase_summary h = phase(s, g, "high", opt_.wl.high_rps,
                              kHighShare * opt_.seconds / kSlices, kSliceWindows);
      if (slice == 0) {
        low = std::move(l);
        high = std::move(h);
      } else {
        low.merge(std::move(l));
        high.merge(std::move(h));
      }
      setup.add(throwaway_setup(g));
    }
    print_phase(low);
    print_phase(high);
    const serve::stats_snapshot snap = s.deployment().snapshot();
    const double slo = slo_search(s, g);
    s.server().shutdown();
    g.check_ledgers(s.deployment());

    report out;
    const auto pct = [](samples& x, double q) { return x.quantile(q); };
    // Windowed medians, annotated with the whole-phase exact percentile,
    // its sample count and the highest percentile the count resolves.
    const auto add_latency = [&](const std::string& name,
                                 std::vector<samples>& windows, samples& all,
                                 double q, bool in_result = true) {
      char note[160];
      std::snprintf(note, sizeof(note),
                    "lower quartile of %zu windows; whole phase %.4f (n=%zu, "
                    "highest resolved p%.1f)",
                    windows.size(), all.quantile(q), all.size(),
                    all.top_resolved_percentile());
      out.add(name, windowed(windows, q), "ms", note, in_result);
    };
    add_latency("p50_ms.low", low.window_latency, low.latency, 0.5);
    add_latency("p95_ms.low", low.window_latency, low.latency, kTail);
    add_latency("p99_ms.low", low.window_latency, low.latency, 0.99, false);
    add_latency("p50_ms.high", high.window_latency, high.latency, 0.5);
    add_latency("p95_ms.high", high.window_latency, high.latency, kTail);
    add_latency("p99_ms.high", high.window_latency, high.latency, 0.99, false);
    add_latency("edge_p95_ms.high", high.window_edge, high.edge_latency, kTail);
    add_latency("edge_p99_ms.high", high.window_edge, high.edge_latency, 0.99,
                false);
    add_latency("appeal_p95_ms.high", high.window_appeal, high.appeal_latency,
                kTail);
    add_latency("appeal_p99_ms.high", high.window_appeal, high.appeal_latency,
                0.99, false);
    out.add("slo_rps", slo, "req/s",
            "p95 limit " + std::to_string(opt_.wl.limit_ms) + " ms");
    const double completed = static_cast<double>(high.completed());
    out.add("cpu_ms_per_req",
            high.slice_cpu_ms_per_req.quantile(kAcrossWindows), "ms",
            "lower quartile of " +
                std::to_string(high.slice_cpu_ms_per_req.size()) +
                " slices; whole phase " +
                std::to_string(high.cpu_seconds * 1e3 / completed) +
                "; process CPU incl. the in-process stub");
    out.add("uplink_bytes_per_req",
            static_cast<double>(high.uplink_bytes) / completed,
            "B", "appeal frame bytes, high phase");
    out.add("setup_s", setup.quantile(0.5), "s",
            "median of " + std::to_string(setup.size()) + " set-ups");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    samples both = low.latency;
    both.merge(high.latency);
    const std::size_t attempted = low.sent + high.sent;
    const std::size_t failed = low.failed + high.failed;
    out.add("fail_ratio",
            static_cast<double>(failed) / static_cast<double>(attempted), "1",
            std::to_string(failed) + " failed of " + std::to_string(attempted) +
                " attempted at low+high",
            false);
    std::printf(
        "exact vs bin-centred (low+high): p50 %.4f vs serve.reported_p50_ms "
        "%.4f, p99 %.4f vs serve.reported_p99_ms %.4f (the snapshot times "
        "enqueue -> completion in 0.1 ms bins)\n",
        pct(both, 0.5), snap.p50_ms, pct(both, 0.99), snap.p99_ms);
    return finish(out, g, attempted, failed);
  }

  int run_traced() {
    report out;
    // Untraced baseline at the high rate, for trace.overhead_ms.
    gate plain_gate;
    double untraced_p50 = 0.0;
    {
      std::unique_ptr<serving_stack> plain = set_up(nullptr, plain_gate, nullptr);
      warm_up(*plain, plain_gate);
      plain->deployment().reset_stats();
      phase_summary base = phase(*plain, plain_gate, "untraced",
                                 opt_.wl.high_rps, kHighShare * opt_.seconds);
      print_phase(base);
      untraced_p50 = windowed(base.window_latency, 0.5);
      const serve::stats_snapshot snap = plain->deployment().snapshot();
      out.add("serve.reported_p50_ms", snap.p50_ms, "ms", "bin-centred");
      out.add("serve.reported_p99_ms", snap.p99_ms, "ms", "bin-centred");
      out.add("gen.lag_ms.p99", base.lag.quantile(0.99), "ms");
      plain->server().shutdown();
      plain_gate.check_ledgers(plain->deployment());
    }

    gate g;
    span_log spans;
    std::unique_ptr<serving_stack> stack = set_up(&spans, g, nullptr);
    serving_stack& s = *stack;
    warm_up(s, g);
    spans.take();
    s.deployment().reset_stats();
    const clock::time_point traced_start = clock::now();
    std::vector<request_record> records;
    phase_summary high = phase(s, g, "traced", opt_.wl.high_rps,
                               kHighShare * opt_.seconds, kPhaseWindows, 0.0,
                               &records);
    print_phase(high);
    std::vector<call_span> calls = spans.take();
    s.server().shutdown();
    g.check_ledgers(s.deployment());

    serving_summary layer = attribute(records, calls);
    add_serving_metrics(out, high, layer);
    add_layer_metrics(out, layer);
    out.add("trace.overhead_ms",
            windowed(high.window_latency, 0.5) - untraced_p50,
            "ms", "traced - untraced p50 at the high rate");
    if (!opt_.trace_out.empty()) {
      write_spans(records, calls, traced_start);
    }
    const std::size_t failed = high.failed;
    gate both = g;
    both.mismatched += plain_gate.mismatched;
    both.violations.insert(both.violations.end(), plain_gate.violations.begin(),
                           plain_gate.violations.end());
    return finish(out, both, high.sent, failed);
  }

  /// Per-request stage timings attributed from the recorded spans.
  struct serving_summary {
    samples pre_edge;     // submit return -> edge infer entry
    samples edge_infer;   // per edge call
    samples edge_batch;   // requests per edge call
    samples post_edge;    // edge-kept: infer return -> completion observed
    samples to_cloud;     // appealed: infer return -> stub scorer entry
    samples from_cloud;   // appealed: scorer return -> completion observed
    samples stub_score;   // per stub scorer call
    samples stub_batch;   // appeals per stub scorer call
    std::size_t fallbacks = 0;
    std::size_t appealed = 0;
  };

  serving_summary attribute(const std::vector<request_record>& records,
                            const std::vector<call_span>& calls) const {
    const request_index index(records);
    // Per request: when its edge call and its stub call returned (the
    // epoch = "never").
    std::vector<clock::time_point> infer_end(records.size());
    std::vector<clock::time_point> score_end(records.size());
    serving_summary out;
    for (const call_span& c : calls) {
      const double ms = ms_between(c.start, c.end);
      const std::string_view name = c.name;
      if (name == "edge_infer") {
        out.edge_infer.add(ms);
        out.edge_batch.add(static_cast<double>(c.keys.size()));
      } else if (name == "stub_score") {
        out.stub_score.add(ms);
        out.stub_batch.add(static_cast<double>(c.keys.size()));
      } else {
        ++out.fallbacks;
      }
      for (const std::uint64_t key : c.keys) {
        const std::size_t i = index.owner(key, c.start);
        if (i == index.none()) continue;
        if (name == "edge_infer") {
          out.pre_edge.add(ms_between(records[i].submitted, c.start));
          infer_end[i] = c.end;
        } else if (name == "stub_score") {
          if (infer_end[i] != clock::time_point{}) {
            out.to_cloud.add(ms_between(infer_end[i], c.start));
          }
          score_end[i] = c.end;
        }
      }
    }
    for (std::size_t i = 0; i < records.size(); ++i) {
      const request_record& r = records[i];
      if (r.resp.status != serve::request_status::ok) continue;
      const bool cloud = r.resp.taken == serve::route::cloud;
      if (cloud) ++out.appealed;
      const clock::time_point from = cloud ? score_end[i] : infer_end[i];
      if (from == clock::time_point{}) continue;
      (cloud ? out.from_cloud : out.post_edge).add(ms_between(from, r.done));
    }
    return out;
  }

  void add_serving_metrics(report& out, phase_summary& high,
                           serving_summary& l) const {
    const auto per = [](double num, double den) {
      return den > 0.0 ? num / den : 0.0;
    };
    const double requests = static_cast<double>(high.sent);
    const double appealed = static_cast<double>(l.appealed);
    out.add("serve.submit_us.p50", high.submit_us.quantile(0.5), "us");
    out.add("serve.submit_us.p99", high.submit_us.quantile(0.99), "us");
    out.add("serve.pre_edge_ms.p50", l.pre_edge.quantile(0.5), "ms");
    out.add("serve.pre_edge_ms.p99", l.pre_edge.quantile(0.99), "ms");
    out.add("serve.edge_batch.mean", l.edge_batch.mean(), "count");
    out.add("serve.edge_batch.calls", static_cast<double>(l.edge_batch.size()),
            "count");
    out.add("serve.edge_infer_ms.p50", l.edge_infer.quantile(0.5), "ms");
    out.add("serve.edge_infer_ms.p99", l.edge_infer.quantile(0.99), "ms");
    out.add("serve.edge_busy_ms_per_req", per(l.edge_infer.sum(), requests),
            "ms");
    out.add("serve.post_edge_ms.p50", l.post_edge.quantile(0.5), "ms");
    out.add("serve.post_edge_ms.p99", l.post_edge.quantile(0.99), "ms");
    out.add("serve.channel.to_cloud_ms.p50", l.to_cloud.quantile(0.5), "ms");
    out.add("serve.channel.to_cloud_ms.p99", l.to_cloud.quantile(0.99), "ms");
    out.add("serve.channel.from_cloud_ms.p50", l.from_cloud.quantile(0.5), "ms");
    out.add("serve.channel.from_cloud_ms.p99", l.from_cloud.quantile(0.99),
            "ms");
    const serve::link_counters link = high.after.link.since(high.before.link);
    out.add("serve.channel.appeals_per_frame",
            link.wire.mean_appeals_per_batch(), "count");
    out.add("serve.channel.uplink_bytes_per_appeal",
            per(static_cast<double>(link.wire.bytes_sent),
                static_cast<double>(link.wire.appeals_sent)),
            "B");
    out.add("serve.channel.fallbacks", static_cast<double>(link.local_fallbacks),
            "count");
    out.add("serve.channel.retries", static_cast<double>(link.retries), "count");
    out.add("serve.channel.overloaded", static_cast<double>(link.overloaded),
            "count");
    out.add("serve.channel.breaker_opens",
            static_cast<double>(link.breaker_opens), "count");
    const serve::stub_server_counters& sb = high.before.stub;
    const serve::stub_server_counters& sa = high.after.stub;
    out.add("serve.transport.stub_batch.mean", l.stub_batch.mean(), "count");
    out.add("serve.transport.stub_batch.calls",
            static_cast<double>(l.stub_batch.size()), "count");
    out.add("serve.transport.stub_score_ms.p50", l.stub_score.quantile(0.5),
            "ms");
    out.add("serve.transport.stub_score_ms.p99", l.stub_score.quantile(0.99),
            "ms");
    out.add("serve.transport.stub_busy_ms_per_appeal",
            per(l.stub_score.sum(), appealed), "ms");
    out.add("serve.transport.expired", static_cast<double>(sa.expired - sb.expired),
            "count");
    out.add("serve.transport.overloaded",
            static_cast<double>((sa.overloaded + sa.projected) -
                                (sb.overloaded + sb.projected)),
            "count");
  }

  /// Times every child of the served edge extractor and of the cloud
  /// model at the mean served batch sizes, plus the GEMM ceilings.
  void add_layer_metrics(report& out, serving_summary& l) const {
    const auto batch_of = [](const samples& s) {
      return std::max<std::size_t>(
          1, static_cast<std::size_t>(std::lround(s.mean())));
    };
    const appeal::core::two_head_config net_cfg = edge_net_config();
    const std::size_t c = net_cfg.spec.in_channels;
    const std::size_t hw = net_cfg.spec.image_size;
    const auto images = [&](std::size_t n) {
      appeal::util::rng gen(opt_.seed + 17);
      return appeal::tensor::rand_uniform(appeal::shape{n, c, hw, hw}, gen,
                                          -1.0F, 1.0F);
    };
    const std::size_t edge_batch = batch_of(l.edge_batch);
    // sched_replay serves no network; its rows time the fp32 edge model.
    const std::unique_ptr<appeal::core::two_head_network> edge =
        make_edge_net(opt_.wl, ref_.calibration);
    for (const layer_timing& t :
         time_children(edge->extractor(), images(edge_batch), kLayerReps)) {
      out.add("nn.edge." + t.name + ".ms", t.ms, "ms",
              "batch " + std::to_string(edge_batch));
      out.add("nn.edge." + t.name + ".gflops", t.gflops, "GFLOP/s");
    }
    const std::size_t cloud_batch = batch_of(l.stub_batch);
    const std::unique_ptr<appeal::nn::sequential> cloud =
        serve::make_cloud_model(cloud_model());
    for (const layer_timing& t :
         time_children(*cloud, images(cloud_batch), kLayerReps)) {
      out.add("nn.cloud." + t.name + ".ms", t.ms, "ms",
              "batch " + std::to_string(cloud_batch));
      out.add("nn.cloud." + t.name + ".gflops", t.gflops, "GFLOP/s");
    }
    out.add("tensor.sgemm.gflops", sgemm_gflops(kLayerReps), "GFLOP/s",
            "m=n=k=" + std::to_string(kKernelDim));
    out.add("tensor.qgemm_s8u8.gops", qgemm_gops(kLayerReps), "GOP/s",
            "m=n=k=" + std::to_string(kKernelDim));
  }

  /// Writes the first kWrittenRequests requests of the traced phase as
  /// JSONL: one root span per request (due -> completion, id = index + 1)
  /// and one child span per layer call it took part in.
  void write_spans(const std::vector<request_record>& records,
                   const std::vector<call_span>& calls,
                   clock::time_point origin) const {
    constexpr std::size_t kWrittenRequests = 20000;
    std::FILE* f = std::fopen(opt_.trace_out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "perfbench: cannot write %s\n",
                   opt_.trace_out.c_str());
      return;
    }
    const auto us = [&](clock::time_point t) {
      return std::chrono::duration<double, std::micro>(t - origin).count();
    };
    const std::size_t written = std::min(records.size(), kWrittenRequests);
    for (std::size_t i = 0; i < written; ++i) {
      const request_record& r = records[i];
      std::fprintf(f,
                   "{\"id\": %zu, \"parent\": null, \"name\": \"request\", "
                   "\"key\": %zu, \"start_us\": %.3f, \"end_us\": %.3f, "
                   "\"route\": \"%s\"}\n",
                   i + 1, r.item, us(r.due), us(r.done),
                   r.resp.taken == serve::route::cloud ? "cloud" : "edge");
    }
    const request_index index(records);
    std::size_t next_id = records.size() + 1;
    for (const call_span& c : calls) {
      for (const std::uint64_t key : c.keys) {
        const std::size_t owner = index.owner(key, c.start);
        if (owner >= written) continue;
        std::fprintf(f,
                     "{\"id\": %zu, \"parent\": %zu, \"name\": \"%s\", "
                     "\"key\": %llu, \"start_us\": %.3f, \"end_us\": %.3f, "
                     "\"batch\": %zu}\n",
                     next_id++, owner + 1, c.name,
                     static_cast<unsigned long long>(key), us(c.start),
                     us(c.end), c.keys.size());
      }
    }
    std::fclose(f);
    std::printf("wrote %s\n", opt_.trace_out.c_str());
  }

  static double peak_rss_mb() {
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
  }

  int finish(const report& out, const gate& g, std::size_t attempted,
             std::size_t failed) const {
    for (const std::string& v : g.violations) {
      std::printf("VIOLATION: %s\n", v.c_str());
    }
    if (g.mismatched > 0) {
      std::printf("VIOLATION: %zu answers differ from the offline reference\n",
                  g.mismatched);
    }
    std::printf("correctness gate: %s (%zu requests submitted)\n",
                g.ok() ? "PASS" : "FAIL", g.submitted);
    out.print_result(g.ok(), attempted, failed);
    return g.ok() ? 0 : 1;
  }

  options opt_;
  reference ref_;
  std::size_t endpoints_ = 0;
  std::size_t next_item_ = 1;  // item 0 is every set-up's first request
  std::uint64_t phases_ = 0;
};

options parse(int argc, char** argv) {
  const appeal::util::config args = appeal::util::config::from_args(argc, argv);
  options opt;
  workload_config& w = opt.wl;
  w.name = args.get_string_or("workload", "");
  if (w.name.empty()) throw std::invalid_argument("--workload is required");
  w.edge = args.get_string_or("edge", w.edge);
  if (w.edge != "replay" && w.edge != "fp32" && w.edge != "int8") {
    throw std::invalid_argument("--edge must be replay|fp32|int8");
  }
  w.skip_rate = args.get_double_or("skip_rate", w.skip_rate);
  w.stub_workers = static_cast<std::size_t>(
      args.get_int_or("stub_workers", static_cast<int>(w.stub_workers)));
  w.pool = static_cast<std::size_t>(
      args.get_int_or("pool", static_cast<int>(w.pool)));
  w.low_rps = args.get_double_or("low_rps", 0.0);
  w.high_rps = args.get_double_or("high_rps", 0.0);
  w.slo_hint_rps = args.get_double_or("slo_hint_rps", 2.0 * w.high_rps);
  w.limit_ms = args.get_double_or("limit_ms", 0.0);
  if (w.low_rps <= 0.0 || w.high_rps <= 0.0 || w.slo_hint_rps <= 0.0 ||
      w.limit_ms <= 0.0 || w.pool < 64 || w.stub_workers == 0) {
    throw std::invalid_argument(
        "--low_rps, --high_rps, --slo_hint_rps, --limit_ms must be > 0, "
        "--pool >= 64, --stub_workers >= 1");
  }
  opt.seed = std::stoull(args.get_string_or("seed", "1"));
  opt.seconds = args.get_double_or("seconds", opt.seconds);
  if (opt.seconds <= 0.0) throw std::invalid_argument("--seconds must be > 0");
  opt.trace = args.get_bool_or("trace", false);
  opt.sock_dir = args.get_string_or("sock_dir", opt.sock_dir);
  opt.trace_out = args.get_string_or("trace_out", "");
  opt.commit = args.get_string_or("commit", opt.commit);
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  options opt;
  try {
    opt = parse(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  appeal::util::set_log_level(appeal::util::log_level::warn);
  // Validity: the generator is one submit thread plus one collector.
  constexpr unsigned kGeneratorThreads = 2;
  if (std::thread::hardware_concurrency() < kGeneratorThreads) {
    std::fprintf(stderr, "perfbench: needs at least %u CPUs\n",
                 kGeneratorThreads);
    return 2;
  }
  print_provenance(opt);
  std::printf(
      "validity: open loop, %u generator threads (nproc %u), no modelled "
      "sleeps (uds transport, simulate_edge_compute=0), program tracing off\n",
      kGeneratorThreads, std::thread::hardware_concurrency());
  try {
    bench b(opt);
    return b.run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
