// The appeal link the cloud_channel sends coalesced batches over.
//
// A cloud_transport moves framed appeal batches toward "the cloud" and
// delivers per-appeal completions back, demuxed by request id. Three
// implementations:
//   - sim_transport: the deterministic simulator (cost-model timing, a
//     local cloud_backend does the scoring) — the default, and what unit
//     tests run against;
//   - socket_transport over a Unix-domain socket (endpoint = socket
//     path) or TCP (endpoint = host:port), speaking the wire.hpp
//     protocol to a tools/cloud_stub (or any server that implements it).
//
// Contract: start() registers the sinks and begins delivery; send_batch()
// is called from one thread only (the channel's coalescing thread) and
// may block while the link is busy — that backpressure is what lets
// appeals pile up and coalesce. Completions arrive on a transport-owned
// thread. on_failure fires at most once, when the link dies with appeals
// possibly outstanding; the channel then answers locally (the edge owns a
// fallback cloud_backend either way).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "serve/request.hpp"
#include "serve/split.hpp"

namespace appeal::collab {
struct cost_model;
}  // namespace appeal::collab

namespace appeal::serve {

class cloud_backend;

enum class transport_kind { sim, uds, tcp };

/// Parses "sim" / "uds" / "tcp"; throws util::error otherwise.
transport_kind parse_transport_kind(const std::string& name);
const char* transport_kind_name(transport_kind kind);

/// Cloud-link configuration, threaded through engine_config /
/// deployment_config as `shard.channel`.
struct link_config {
  /// Multiplier on all *simulated* delays (sim transport only; 0 disables
  /// them entirely for fast tests). Socket transports pay real time.
  double time_scale = 1.0;
  transport_kind transport = transport_kind::sim;
  /// uds: filesystem path of the listening socket; tcp: "host:port".
  std::string endpoint;
  /// Appeals arriving within this window of the first pending appeal are
  /// packed into one framed batch (0 = opportunistic only: whatever
  /// accumulated while the link was busy goes out together).
  double coalesce_window_ms = 0.0;
  /// Hard cap on appeals per framed batch.
  std::size_t max_batch_appeals = 64;
  /// Socket transports only: a peer that accepts appeals but answers
  /// none of them within this budget (also the socket send timeout) is
  /// declared dead and outstanding appeals complete locally, so drain()
  /// and shutdown never wedge on a silent cloud. 0 disables the
  /// watchdog. The simulator ignores this (its completions are
  /// internally guaranteed).
  double response_timeout_ms = 30000.0;

  // --- retry policy (socket transports; the simulator never overloads) ---
  /// Extra wire attempts an `overloaded` appeal gets before it completes
  /// from the local fallback backend. 0 = fall back on first overload.
  std::size_t max_retries = 2;
  /// Exponential backoff base: attempt k waits ~retry_backoff_ms * 2^k,
  /// capped at retry_backoff_max_ms, never below the cloud's
  /// retry-after hint.
  double retry_backoff_ms = 25.0;
  double retry_backoff_max_ms = 2000.0;
  /// Jitter fraction applied to the backoff (delay scales by a uniform
  /// factor in [1-j, 1+j]) from a generator seeded with retry_seed, so
  /// chaos runs stay reproducible.
  double retry_jitter = 0.2;
  std::uint64_t retry_seed = 0x5EEDu;

  // --- circuit breaker (socket transports) ---
  /// Consecutive `overloaded` answers that open the breaker (hard link
  /// failures — send error, EOF, response watchdog — open it
  /// immediately). While open every appeal completes locally; after
  /// breaker_open_ms a half-open probe batch tests the link (reconnecting
  /// if it died) and a wire completion re-closes it.
  std::size_t breaker_threshold = 4;
  double breaker_open_ms = 1000.0;

  /// Deterministic fault-injection spec applied as a fault_transport
  /// decorator around the transport ("" = none). See
  /// transport/fault_transport.hpp for the grammar, e.g.
  /// "drop=0.05,delay_ms=1,dup=0.02,kill_at=40,seed=7".
  std::string fault;

  /// Split-computing appeal policy (see serve/split.hpp): whether appeals
  /// ship raw inputs or intermediate feature maps, and the candidate cut
  /// table of the deployment's canonical cloud model.
  split_config split;
};

/// Wire-level counters every transport keeps (the simulator reports the
/// bytes a real link would have carried, so sim and socket runs are
/// comparable).
struct transport_counters {
  std::size_t batches_sent = 0;
  std::size_t appeals_sent = 0;
  std::size_t bytes_sent = 0;
  std::size_t bytes_received = 0;

  double mean_appeals_per_batch() const {
    return batches_sent == 0 ? 0.0
                             : static_cast<double>(appeals_sent) /
                                   static_cast<double>(batches_sent);
  }
};

/// Link-level statistics of a cloud_channel (cloud_channel::counters()),
/// reported in serve_stats snapshots alongside the per-request counters.
struct link_counters {
  transport_counters wire;        // batches, appeals, bytes on the wire
  std::size_t completed = 0;      // appeals answered (any path)
  std::size_t local_fallbacks = 0;  // answered locally (link down/overloaded)
  std::size_t retries = 0;        // overloaded appeals re-sent after backoff
  std::size_t overloaded = 0;     // overloaded answers received
  std::size_t breaker_opens = 0;  // breaker closed -> open transitions
  std::size_t split_appeals = 0;  // appeals shipped as feature maps
  std::size_t split_bytes_saved = 0;  // uplink bytes saved vs raw input
  std::size_t split_rejected = 0;     // split appeals the cloud rejected
  /// Breaker state at capture time (a state, not a counter: since()
  /// keeps the current value rather than differencing it).
  std::uint8_t breaker = 0;
  /// Active split cut at capture time (a state like `breaker`).
  std::uint32_t split_cut = 0;

  /// Counters accumulated since `baseline` was captured (how
  /// serve_stats keeps the wire statistics in its measurement window).
  link_counters since(const link_counters& baseline) const {
    link_counters d = *this;
    d.wire.batches_sent -= baseline.wire.batches_sent;
    d.wire.appeals_sent -= baseline.wire.appeals_sent;
    d.wire.bytes_sent -= baseline.wire.bytes_sent;
    d.wire.bytes_received -= baseline.wire.bytes_received;
    d.completed -= baseline.completed;
    d.local_fallbacks -= baseline.local_fallbacks;
    d.retries -= baseline.retries;
    d.overloaded -= baseline.overloaded;
    d.breaker_opens -= baseline.breaker_opens;
    d.split_appeals -= baseline.split_appeals;
    d.split_bytes_saved -= baseline.split_bytes_saved;
    d.split_rejected -= baseline.split_rejected;
    return d;
  }
};

class cloud_transport {
 public:
  struct completion {
    std::uint64_t id = 0;        // wire id assigned by the channel
    std::size_t prediction = 0;  // big-model answer (meaningless if expired)
    /// Cloud-side cost: work-queue wait + batch scoring time as the stub
    /// measured it (0 for the simulator, whose cloud time is modeled).
    double cloud_ms = 0.0;
    /// The cloud_ms total split into queue wait and batched scoring
    /// (zero from the simulator). Cloud-stamped
    /// durations — trace spans use them without cross-clock sync.
    double cloud_queue_ms = 0.0;
    double cloud_score_ms = 0.0;
    /// The cloud shed this appeal because its deadline was already blown
    /// when a scorer worker reached it.
    bool expired = false;
    /// The cloud refused this appeal without scoring (full work
    /// queue or projected deadline miss); the channel retries it after
    /// retry_after_ms or completes it locally.
    bool overloaded = false;
    double retry_after_ms = 0.0;
    /// The cloud could not score this appeal as sent (unknown
    /// split cut id or a feature shape that matches no cut). The channel
    /// completes it locally and stops shipping that cut.
    bool rejected = false;
  };
  using completion_sink = std::function<void(std::vector<completion>&&)>;
  using failure_sink = std::function<void()>;

  virtual ~cloud_transport() = default;

  /// Begins delivery. Called exactly once, before the first send_batch.
  virtual void start(completion_sink on_complete, failure_sink on_failure) = 0;

  /// Ships one coalesced batch; `wire_ids` is index-aligned with `batch`
  /// and carries the channel-assigned demux ids. The requests stay owned
  /// by the caller's in-flight table (registered before the send, so a
  /// completion racing back mid-send always finds its entry). May block
  /// while the link is busy. Throws util::error when the link is down
  /// (the caller falls back to local completion).
  virtual void send_batch(const std::vector<const request*>& batch,
                          const std::vector<std::uint64_t>& wire_ids,
                          const std::string& model) = 0;

  /// Stops delivering completions and joins transport threads. Idempotent.
  virtual void stop() = 0;

  virtual transport_counters counters() const = 0;
};

/// Builds the transport `cfg` names. `fallback` is the local cloud
/// backend (the simulator scores with it; socket transports only use it
/// indirectly, via the channel's failure path). The cost model drives the
/// simulator's timing and is ignored by socket transports.
///
/// `fault_salt` deterministically re-seeds the fault decorator per link
/// incarnation (the channel passes its reconnect epoch). Without it a
/// rebuilt wrapper replays the exact fault sequence of the one it
/// replaces — and a seed whose first draw says "drop" would then eat the
/// half-open probe after every reconnect, pinning the breaker open
/// forever. Salt 0 (the first link) keeps the user's seed untouched.
std::unique_ptr<cloud_transport> make_cloud_transport(
    const link_config& cfg, cloud_backend& fallback,
    const collab::cost_model& link, std::uint64_t fault_salt = 0);

}  // namespace appeal::serve
