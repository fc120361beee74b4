#include "serve/transport/sim_transport.hpp"

#include "serve/transport/wire.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace appeal::serve {

namespace {

using clock = std::chrono::steady_clock;

clock::duration scaled_ms(double ms, double scale) {
  return std::chrono::duration_cast<clock::duration>(
      std::chrono::duration<double, std::milli>(ms * scale));
}

}  // namespace

sim_transport::sim_transport(cloud_backend& backend,
                             const collab::cost_model& link,
                             double time_scale)
    : backend_(backend),
      comm_ms_per_kb_(link.comm_ms_per_kb),
      // Propagation + cloud compute = the cost model's offload latency
      // minus the transmit share (L(0) - L(1) is the full offload term).
      overlap_ms_(link.overall_latency_ms(0.0) - link.overall_latency_ms(1.0) -
                  link.input_kb * link.comm_ms_per_kb),
      time_scale_(time_scale) {
  APPEAL_CHECK(time_scale_ >= 0.0, "time_scale must be non-negative");
  link_free_at_ = clock::now();
}

sim_transport::~sim_transport() { stop(); }

void sim_transport::start(completion_sink on_complete, failure_sink) {
  APPEAL_CHECK(on_complete != nullptr, "sim_transport needs a completion sink");
  APPEAL_CHECK(!started_, "sim_transport started twice");
  started_ = true;
  on_complete_ = std::move(on_complete);
  timer_ = std::thread([this] {
    util::set_thread_name("sim-link");
    run();
  });
}

void sim_transport::send_batch(const std::vector<const request*>& batch,
                               const std::vector<std::uint64_t>& wire_ids,
                               const std::string& model) {
  APPEAL_CHECK(started_, "send_batch before start()");
  APPEAL_CHECK(batch.size() == wire_ids.size(),
               "one wire id per appeal required");
  // Occupancy backpressure: wait for the radio, then hold it for the
  // batch's serialized transmission, timed from the encoded frame size.
  const clock::time_point now = clock::now();
  const clock::time_point send_start = std::max(now, link_free_at_);
  if (send_start > now) std::this_thread::sleep_until(send_start);

  std::size_t bytes = wire::kHeaderBytes;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    wire::appeal_view v;
    v.id = wire_ids[i];
    v.key = batch[i]->key;
    v.label = batch[i]->label;
    v.model = model;
    v.input = &batch[i]->input;
    bytes += wire::appeal_wire_bytes(v);
  }
  const clock::time_point send_end =
      send_start + scaled_ms(
                       comm_ms_per_kb_ * static_cast<double>(bytes) / 1024.0,
                       time_scale_);
  link_free_at_ = send_end;

  scheduled s;
  s.due = send_end + scaled_ms(overlap_ms_, time_scale_);
  s.batch.reserve(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    // The local big model scores inline, off every lock (it may be
    // arbitrarily expensive).
    s.batch.push_back(completion{wire_ids[i], backend_.infer(*batch[i])});
  }

  std::lock_guard<std::mutex> lock(mutex_);
  counters_.batches_sent += 1;
  counters_.appeals_sent += batch.size();
  counters_.bytes_sent += bytes;
  counters_.bytes_received +=
      wire::kHeaderBytes + wire::kResponseRecordBytes * batch.size();
  pending_.push(std::move(s));
  wake_.notify_all();
}

void sim_transport::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) return;
    stopping_ = true;
  }
  wake_.notify_all();
  if (timer_.joinable()) timer_.join();
}

transport_counters sim_transport::counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

void sim_transport::run() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    if (!pending_.empty()) {
      const clock::time_point due = pending_.front().due;
      if (clock::now() < due) {
        wake_.wait_until(lock, due);
        continue;  // re-check: new work or stop may have arrived
      }
      scheduled s = std::move(pending_.front());
      pending_.pop();
      lock.unlock();
      on_complete_(std::move(s.batch));
      lock.lock();
      continue;
    }
    if (stopping_) return;
    wake_.wait(lock, [&] { return stopping_ || !pending_.empty(); });
  }
}

}  // namespace appeal::serve
