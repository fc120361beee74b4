// Asynchronous appeal dispatcher with batched coalescing over a
// pluggable edge→cloud transport.
//
// The channel owns one uplink per deployment. Appeals queue on a
// coalescing thread that packs them into framed batches — everything
// that arrived while the link was busy goes out together, and an
// optional coalesce window holds the first appeal back briefly to let a
// burst accumulate — then ships each batch over a cloud_transport:
//   - sim (default): the deterministic cost-model simulator; the local
//     cloud_backend scores, modeled transmit/RTT delays apply
//     (time_scale = 0 disables them for fast tests);
//   - uds / tcp: the wire.hpp protocol to a real listening process
//     (tools/cloud_stub), kernel backpressure replacing modeled
//     occupancy.
// Completions come back demuxed by a channel-assigned wire id, so the
// wire never depends on how the caller numbers its requests.
//
// Failure handling is a three-state circuit breaker, not a one-way
// fallback:
//   - an `overloaded` answer (cloud backpressure) is retried after a
//     jittered exponential backoff that honors the cloud's retry-after
//     hint, up to link_config::max_retries; exhausted (or deadline-dead)
//     retries complete from the local fallback backend;
//   - breaker_threshold consecutive overloads open the breaker softly
//     (link stays up); a send error, reader EOF, or the response
//     watchdog opens it hard and retires the transport;
//   - while open, every appeal completes locally; after breaker_open_ms
//     the channel goes half-open, reconnecting if the transport died,
//     and sends a single probe appeal — a wire completion re-closes the
//     breaker, another failure re-opens it.
// Serving therefore degrades under overload and RECOVERS when the cloud
// comes back, instead of staying edge-only for the rest of the run.
//
// Every appeal ships its raw input, as in the AppealNet paper: the edge
// runs only the little network, and the cloud scores the big one from
// scratch.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "collab/cost_model.hpp"
#include "obs/metrics.hpp"
#include "serve/backends.hpp"
#include "serve/request.hpp"
#include "serve/transport/cloud_transport.hpp"
#include "util/rng.hpp"

namespace appeal::serve {

/// Circuit-breaker state of the cloud link. Numeric values are what the
/// appeal_breaker_state gauge and the stats snapshot export.
enum class breaker_state : std::uint8_t { closed = 0, open = 1, half_open = 2 };

const char* breaker_state_name(breaker_state s);

/// What came back for one appeal. `expired` means the cloud shed the
/// appeal because its deadline was blown before a scorer reached it —
/// `prediction` is meaningless and the caller should surface
/// request_status::expired instead of a made-up answer. (Overloaded
/// answers never reach callers: the channel resolves them internally by
/// retrying or falling back to the local backend.)
struct appeal_outcome {
  std::size_t prediction = 0;
  double link_ms = 0.0;   // batched -> completed, client clock
  double cloud_ms = 0.0;  // cloud-reported queue wait + scoring time
  /// The cloud_ms total split into queue wait and batched scoring (0
  /// under the simulator). Feeds the trace spans' cloud stages.
  double cloud_queue_ms = 0.0;
  double cloud_score_ms = 0.0;
  bool expired = false;
};

class cloud_channel {
 public:
  /// Called when an appeal completes (transport receive thread or the
  /// coalescing thread on the fallback path).
  using completion_fn = std::function<void(request&&, const appeal_outcome&)>;

  /// `backend` is the local big model: the simulator's scorer, and the
  /// fallback when a socket transport loses its peer. `name` rides the
  /// wire as the deployment name. The cost model is kept by value: the
  /// breaker's half-open reconnect builds a fresh transport from it.
  cloud_channel(cloud_backend& backend, const collab::cost_model& link,
                const link_config& cfg, std::string name = "");
  ~cloud_channel();

  /// Enqueues an appeal; returns immediately. The completion callback
  /// fires once the cloud's answer is back (simulated, real, retried, or
  /// the local fallback).
  void appeal(request&& r, completion_fn on_complete);

  /// Blocks until every appeal enqueued so far has completed (including
  /// parked retries).
  void drain();

  /// Wire + completion counters for stats reporting.
  link_counters counters() const;

  /// Current breaker state (lock-free; admission and stats poll it).
  breaker_state breaker() const {
    return static_cast<breaker_state>(
        breaker_atomic_.load(std::memory_order_relaxed));
  }

  /// True while the link is overloaded or the breaker is not closed —
  /// the admission controller tightens its degrade thresholds on this.
  bool under_pressure() const {
    return pressure_.load(std::memory_order_relaxed);
  }

 private:
  struct pending {
    request req;
    completion_fn on_complete;
    std::chrono::steady_clock::time_point arrived;
    std::size_t attempts = 0;  // completed wire attempts (retries only)
  };
  struct in_flight {
    request req;
    completion_fn on_complete;
    std::chrono::steady_clock::time_point batched_at;
    /// Time send_batch spent shipping this entry's frame (stamped after
    /// the send returns; 0 if the completion raced the send back).
    double tx_ms = 0.0;
    std::size_t attempts = 0;
  };

  void run();
  void on_completions(std::uint64_t epoch,
                      std::vector<cloud_transport::completion>&& batch);
  void on_link_failure(std::uint64_t epoch);
  /// Scores `entries` with the local backend and completes them.
  void complete_locally(std::vector<in_flight>&& entries);
  void finish(in_flight&& entry, appeal_outcome outcome);
  /// Extracts the given wire ids from in_flight_ (those still present).
  /// Caller holds mutex_.
  std::vector<in_flight> extract_locked(const std::vector<std::uint64_t>& ids);
  /// True when the response watchdog applies to this channel's link.
  bool watchdog_enabled() const;
  /// When the oldest in-flight appeal is due for the response watchdog,
  /// its deadline; std::nullopt when the watchdog does not apply.
  /// Caller holds mutex_.
  std::optional<std::chrono::steady_clock::time_point> watchdog_due_locked();
  /// Hard-trips the breaker and completes every overdue appeal locally
  /// when the watchdog deadline has passed. Caller holds `lock`; it is
  /// released and re-taken around the local completions.
  void reap_overdue(std::unique_lock<std::mutex>& lock);
  /// Opens the breaker. `retire` also takes the transport out of service
  /// (hard failure: the link itself died); without it the link stays up
  /// (soft overload trip). Caller holds mutex_.
  void open_breaker_locked(bool retire, const char* why);
  void set_breaker_locked(breaker_state s);
  /// pressure_ = breaker open/half-open or an overload streak in
  /// progress. Caller holds mutex_.
  void update_pressure_locked();
  /// Moves retries whose backoff elapsed into pending_. Caller holds
  /// mutex_.
  void promote_due_retries_locked();
  /// Earliest of: watchdog deadline, next retry due, breaker cool-off
  /// end. Caller holds mutex_.
  std::optional<std::chrono::steady_clock::time_point> next_event_locked();
  /// Stops and frees transports retired by hard trips (run thread only;
  /// a transport cannot stop() itself from its own reader thread, so
  /// failure paths park it here instead).
  void dispose_retired(std::unique_lock<std::mutex>& lock);
  /// open -> half_open: reconnects if the transport was retired, or just
  /// re-arms the probe when it survived a soft trip. Re-opens on a
  /// failed reconnect. Caller holds `lock` (released around the connect).
  void to_half_open(std::unique_lock<std::mutex>& lock);
  /// Backoff for attempt `attempts` (0-based), jittered, never below the
  /// cloud's retry-after hint. Caller holds mutex_ (jitter_rng_).
  double backoff_delay_ms(std::size_t attempts, double hint);
  cloud_backend& backend_;
  link_config config_;
  collab::cost_model link_;  // for rebuilding the transport on reconnect
  std::string name_;
  /// Null while the breaker is hard-open (transport retired, not yet
  /// reconnected). Mutated under mutex_ only.
  std::unique_ptr<cloud_transport> transport_;
  /// Transports taken out of service by hard failures, awaiting disposal
  /// on the run thread.
  std::vector<std::unique_ptr<cloud_transport>> retired_;
  /// Bumped whenever the active transport is retired or replaced;
  /// completion/failure callbacks carry the epoch they were registered
  /// under and are ignored when stale.
  std::uint64_t epoch_ = 0;
  /// Wire counters accumulated from retired transports, so counters()
  /// spans reconnections.
  transport_counters wire_base_;

  /// Serializes local fallback scoring: the coalescing thread and the
  /// transport reader may both complete entries locally while the link
  /// dies, and backend_.infer (a network forward) is not thread-safe.
  std::mutex fallback_mutex_;
  mutable std::mutex mutex_;
  std::condition_variable wake_;     // coalescing thread wake-ups
  std::condition_variable drained_;  // drain() waiters
  std::deque<pending> pending_;
  /// Overloaded appeals parked until their backoff elapses, keyed by due
  /// time (multimap: coinciding due times are legal).
  std::multimap<std::chrono::steady_clock::time_point, pending> retry_queue_;
  std::unordered_map<std::uint64_t, in_flight> in_flight_;
  /// Wire ids of the batch the coalescing thread is sending right now:
  /// failure paths must not extract (and destroy) entries the send path
  /// still reads through raw pointers; the sender sweeps them itself
  /// after the send returns.
  std::vector<std::uint64_t> sending_ids_;
  /// (wire id, batched_at) in send order, for the response watchdog;
  /// lazily pruned of already-completed ids.
  std::deque<std::pair<std::uint64_t, std::chrono::steady_clock::time_point>>
      flight_order_;
  util::rng jitter_rng_;  // retry backoff jitter (guarded by mutex_)
  std::uint64_t next_wire_id_ = 0;
  std::size_t outstanding_ = 0;
  /// Bumped before the completion callback runs, so whoever sees an
  /// appeal's request complete (a drain, then a stats reset) also sees
  /// it counted here.
  std::atomic<std::size_t> completed_{0};
  std::size_t local_fallbacks_ = 0;
  std::size_t retries_ = 0;
  std::size_t overloaded_ = 0;
  std::size_t breaker_opens_ = 0;
  std::size_t overload_streak_ = 0;  // consecutive overloaded answers
  breaker_state breaker_ = breaker_state::closed;
  std::chrono::steady_clock::time_point open_until_{};
  /// Half-open sends exactly one appeal at a time; set while that probe
  /// is on the wire.
  bool probe_in_flight_ = false;
  /// When the live link last delivered a completion batch. The response
  /// watchdog uses it to tell a lost frame (peer still answering others
  /// — complete just the overdue appeals locally, keep the link) from a
  /// dead link (silent for the whole budget — retire it). Default (the
  /// clock epoch) reads as "never answered".
  std::chrono::steady_clock::time_point last_rx_{};
  std::atomic<std::uint8_t> breaker_atomic_{0};
  std::atomic<bool> pressure_{false};
  bool stopping_ = false;
  obs::counter& metric_retries_;
  obs::counter& metric_overloaded_;
  obs::gauge& metric_breaker_;
  std::thread worker_;
};

}  // namespace appeal::serve
