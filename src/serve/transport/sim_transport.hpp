// Deterministic in-process appeal link (the PR-1 simulator, now one
// cloud_transport among three).
//
// Timing comes from the collab::cost_model latency coefficients:
//   transmit = encoded_frame_kb * comm_ms_per_kb  (serialized; the
//              actual wire size of the batch)
//   overlap  = comm_round_trip_ms + cloud_mflops/cloud_gflops (pipelined)
// send_batch() *blocks until the link is free* — that occupancy is the
// backpressure that makes the channel's coalescing observable even in
// simulation — then schedules the whole batch's completions one overlap
// after its transmission ends. Scoring runs the local cloud_backend
// inline on the sending thread (off every lock). `time_scale` scales all
// delays; 0 turns the simulator into an immediate echo for unit tests.
//
// Byte counters report what the wire encoding of each batch would have
// occupied, so sim and socket runs expose comparable link statistics.
#pragma once

#include <condition_variable>
#include <mutex>
#include <queue>
#include <thread>

#include "collab/cost_model.hpp"
#include "serve/backends.hpp"
#include "serve/transport/cloud_transport.hpp"

namespace appeal::serve {

class sim_transport : public cloud_transport {
 public:
  sim_transport(cloud_backend& backend, const collab::cost_model& link,
                double time_scale);
  ~sim_transport() override;

  void start(completion_sink on_complete, failure_sink on_failure) override;
  void send_batch(const std::vector<const request*>& batch,
                  const std::vector<std::uint64_t>& wire_ids,
                  const std::string& model) override;
  void stop() override;
  transport_counters counters() const override;

 private:
  struct scheduled {
    std::vector<completion> batch;
    std::chrono::steady_clock::time_point due;
  };

  void run();

  cloud_backend& backend_;
  double comm_ms_per_kb_;  // uplink cost per encoded KiB (serialized)
  double overlap_ms_;      // propagation + cloud compute (pipelined)
  double time_scale_;
  completion_sink on_complete_;

  // Owned by the single send_batch caller; no lock needed.
  std::chrono::steady_clock::time_point link_free_at_;

  mutable std::mutex mutex_;
  std::condition_variable wake_;
  // Due times are FIFO (constant overlap on a monotone transmit end), so
  // a plain queue is a valid timer wheel.
  std::queue<scheduled> pending_;
  transport_counters counters_;
  bool stopping_ = false;
  bool started_ = false;
  std::thread timer_;
};

}  // namespace appeal::serve
