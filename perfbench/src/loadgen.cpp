#include "loadgen.hpp"

#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <future>
#include <thread>

#include "util/rng.hpp"

namespace perfbench {

namespace {

/// How long the collector blocks on one future before sweeping the rest.
/// Bounds how late an out-of-order completion is observed.
constexpr std::chrono::microseconds kCollectorSlice{50};

/// Sleeps and bounded waits of the generator threads wake within ~µs
/// instead of the default 50 µs timer slack.
void tighten_timer_slack() { ::prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0); }

std::vector<double> poisson_offsets(double rate, double seconds,
                                    std::uint64_t seed) {
  appeal::util::rng gen(seed);
  std::vector<double> offsets;
  offsets.reserve(static_cast<std::size_t>(rate * seconds * 1.1) + 16);
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - gen.uniform()) / rate;
    if (t >= seconds) break;
    offsets.push_back(t);
  }
  if (offsets.empty()) offsets.push_back(0.0);
  return offsets;
}

}  // namespace

appeal::serve::inference_request request_pool::make(std::size_t item) const {
  appeal::serve::inference_request req;
  req.model = model;
  req.key = item;
  req.label = labels[item];
  if (!images.empty()) req.input = images[item];
  return req;
}

double ms_between(clock::time_point from, clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

double process_cpu_seconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

phase_run run_phase(appeal::serve::server& srv, const request_pool& pool,
                    const phase_plan& plan) {
  const std::vector<double> offsets =
      poisson_offsets(plan.rate, plan.seconds, plan.seed);
  const std::size_t total = offsets.size();
  phase_run run;
  run.records.resize(total);
  std::vector<std::future<appeal::serve::response>> futures(total);
  std::vector<char> expect_cloud(total, 0);

  // published = 2 * (requests handed to the collector) + (submitter done).
  std::atomic<std::uint32_t> published{0};

  const double cpu_start = process_cpu_seconds();
  std::thread collector([&] {
    tighten_timer_slack();
    std::vector<std::size_t> pending;
    std::size_t seen = 0;
    for (;;) {
      const std::uint32_t state = published.load(std::memory_order_acquire);
      while (seen < state / 2) pending.push_back(seen++);
      std::erase_if(pending, [&](std::size_t i) {
        if (futures[i].wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
          return false;
        }
        run.records[i].done = clock::now();
        run.records[i].resp = futures[i].get();
        return true;
      });
      if (pending.empty()) {
        if ((state & 1U) != 0U && seen == state / 2) break;
        published.wait(state, std::memory_order_acquire);
        continue;
      }
      const auto edge = std::find_if(pending.begin(), pending.end(),
                                     [&](std::size_t i) {
                                       return expect_cloud[i] == 0;
                                     });
      const std::size_t target = edge != pending.end() ? *edge : pending.front();
      futures[target].wait_for(kCollectorSlice);
    }
  });

  tighten_timer_slack();
  const clock::time_point start = clock::now() + std::chrono::milliseconds(1);
  const auto abort_lag = std::chrono::duration<double, std::milli>(
      plan.abort_lag_ms);
  std::size_t sent = 0;
  const auto close = [&] {
    published.store(static_cast<std::uint32_t>(2 * sent + 1),
                    std::memory_order_release);
    published.notify_one();
    collector.join();
  };
  try {
    for (; sent < total; ++sent) {
      request_record& rec = run.records[sent];
      rec.due = start + std::chrono::duration_cast<clock::duration>(
                            std::chrono::duration<double>(offsets[sent]));
      if (clock::now() < rec.due) std::this_thread::sleep_until(rec.due);
      if (plan.abort_lag_ms > 0.0 && clock::now() - rec.due > abort_lag) {
        run.aborted = true;
        break;
      }
      rec.item = (plan.first_item + sent) % pool.size();
      expect_cloud[sent] = pool.to_cloud[rec.item];
      appeal::serve::inference_request req = pool.make(rec.item);
      rec.sent = clock::now();
      futures[sent] = srv.submit(std::move(req));
      rec.submitted = clock::now();
      published.store(static_cast<std::uint32_t>(2 * (sent + 1)),
                      std::memory_order_release);
      published.notify_one();
    }
  } catch (...) {
    close();
    throw;
  }
  close();

  run.records.resize(sent);
  run.cpu_seconds = process_cpu_seconds() - cpu_start;
  clock::time_point last = start;
  for (const request_record& rec : run.records) last = std::max(last, rec.done);
  run.wall_seconds = std::chrono::duration<double>(last - start).count();
  run.next_item = (plan.first_item + sent) % pool.size();
  return run;
}

}  // namespace perfbench
