// Real cloud transport: the wire.hpp protocol over a Unix-domain or TCP
// stream socket.
//
// send_batch() frames the coalesced appeals and writes them with one
// write_all — kernel socket-buffer backpressure replaces the simulator's
// modeled link occupancy, so appeals still pile up (and coalesce) while
// the link is saturated. A reader thread assembles response frames with
// a wire::frame_splitter and hands completions to the channel's sink;
// the server may batch, split, or reorder responses freely because the
// demux key is the per-appeal wire id.
//
// Failure model: a dead peer surfaces as a send_batch throw (caller
// falls back) or as the reader hitting EOF mid-run, which fires
// on_failure exactly once so the channel can complete outstanding
// appeals locally. stop() shuts the socket down first so the reader's
// blocking read returns, then joins it.
#pragma once

#include <atomic>
#include <mutex>
#include <thread>

#include "serve/transport/cloud_transport.hpp"
#include "util/net.hpp"
#include "serve/transport/wire.hpp"

namespace appeal::serve {

class socket_transport : public cloud_transport {
 public:
  /// `kind` must be uds or tcp; connects in start(), not here.
  /// `send_timeout_ms` bounds a blocking write against a stalled peer
  /// (0 = fully blocking).
  socket_transport(transport_kind kind, std::string endpoint,
                   double send_timeout_ms = 0.0);
  ~socket_transport() override;

  void start(completion_sink on_complete, failure_sink on_failure) override;
  void send_batch(const std::vector<const request*>& batch,
                  const std::vector<std::uint64_t>& wire_ids,
                  const std::string& model) override;
  void stop() override;
  transport_counters counters() const override;

 private:
  void reader_loop();

  transport_kind kind_;
  std::string endpoint_;
  double send_timeout_ms_;
  completion_sink on_complete_;
  failure_sink on_failure_;

  net::fd socket_;
  std::thread reader_;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> link_down_{false};

  mutable std::mutex mutex_;  // counters only
  transport_counters counters_;
};

}  // namespace appeal::serve
