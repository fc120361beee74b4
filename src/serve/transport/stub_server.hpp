// The cloud side of the appeal link: a listening server that speaks the
// wire.hpp protocol and schedules appeals like a real cloud.
//
// Structure (one stub process serves any number of edge deployments):
//
//   connection threads ──decode──▶ cloud_work_queue ──pop──▶ scorer
//   (one per client)               (priority lanes,          workers
//        ▲                          tightest deadline        (--workers)
//        │                          first within a lane)        │
//        └──────────── response frames, routed by owner ────────┘
//
// Connection threads only decode and enqueue; a configurable pool of
// scorer workers forms cloud batches from the shared queue (interactive
// appeals pop ahead of batch-class ones; within a class, the appeal with
// the least remaining deadline budget runs first, deadline-free appeals
// after all deadlined ones in arrival order). A worker sheds any appeal
// whose deadline is already blown when it reaches the front — the client
// gets an `expired` response instead of a stale prediction — and scores
// the survivors as ONE batched inference, so a network scorer pays one
// im2col + GEMM per layer for the whole cloud batch. Each response
// carries cloud_ms = work-queue wait + scoring time, the honest number
// the edge holds against its cost model. The queue is bounded
// (max_queue_depth, with a separate batch-lane budget so background
// traffic cannot starve interactive appeals of queue space): when appeals
// outrun the scorer pool, arrivals shed at admission with an immediate
// `overloaded` response carrying a retry-after hint derived
// from the queue's own drain-rate estimate — distinct from `expired`,
// which means a deadline died *inside* the queue. The same drain-rate
// estimate powers projected-deadline-miss shedding: an arrival whose
// deadline cannot survive the current queue wait is refused up front
// instead of burning queue space on a guaranteed expiry.
//
// The scorer is pluggable, from an echo lambda to the real big network
// (serve/cloud_model.hpp builds one from serialized weights). Workers get
// their own scorer instance via the factory — network forwards use
// thread-local workspaces but are not otherwise synchronized, exactly
// like the engine's per-worker edge backends.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/transport/cloud_transport.hpp"
#include "util/net.hpp"
#include "serve/transport/wire.hpp"

namespace appeal::serve {

struct stub_server_config {
  transport_kind kind = transport_kind::uds;  // uds or tcp
  /// uds: socket path; tcp: "host:port" ("127.0.0.1:0" picks a free
  /// port — read it back with tcp_port()).
  std::string endpoint;
  /// Scorer worker pool size (each worker gets its own scorer instance).
  std::size_t workers = 1;
  /// Appeals a worker pulls into one cloud batch (batched inference for
  /// network scorers; an upper bound, not a wait — whatever is queued
  /// goes, the edge channel already coalesced the burst).
  std::size_t max_cloud_batch = 16;
  /// Shed appeals whose deadline is blown before a worker reaches them
  /// (responded as wire::response_status::expired without scoring).
  bool shed_expired = true;
  /// Work-queue capacity — the stub's admission bound. When appeals
  /// arrive faster than the scorer pool drains them, arrivals beyond
  /// this depth are shed immediately with an `overloaded` response
  /// (carrying a retry-after hint) instead of buffering without bound
  /// (each queued appeal holds its decoded tensor). 0 = unbounded.
  std::size_t max_queue_depth = 4096;
  /// Depth budget of the batch-priority lane (0 = only the shared
  /// max_queue_depth applies). A lower budget keeps background traffic
  /// from filling the whole queue ahead of interactive appeals.
  std::size_t max_batch_queue_depth = 0;
  /// Shed arrivals whose deadline is projected to die in the queue: when
  /// the queue's drain-rate estimate says the wait already exceeds the
  /// appeal's remaining deadline, answer `overloaded` up front instead
  /// of queueing a guaranteed expiry.
  bool shed_projected = true;
};

struct stub_server_counters {
  std::size_t connections = 0;
  std::size_t batches = 0;        // appeal frames received
  std::size_t appeals = 0;        // appeals received
  std::size_t scored = 0;         // appeals answered with a prediction
  std::size_t expired = 0;        // appeals shed (deadline blown in queue)
  std::size_t overloaded = 0;     // appeals shed at the full work queue
  std::size_t projected = 0;      // appeals shed on a projected deadline miss
  std::size_t cloud_batches = 0;  // batches formed by the scorer workers
  std::size_t bytes_received = 0;
  std::size_t bytes_sent = 0;
};

/// Deadline/priority-ordered queue between connection threads and the
/// scorer workers. Pop order: interactive lane strictly ahead of the
/// batch lane; within a lane, earliest absolute deadline first, appeals
/// without a deadline after every deadlined one, FIFO among equals.
/// Standalone so the scheduling order is unit-testable without sockets.
class cloud_work_queue {
 public:
  /// `capacity` bounds the queue (pushes beyond it are refused so the
  /// caller can shed); 0 = unbounded. `batch_capacity` additionally
  /// bounds the batch-priority lane. `shed_projected` refuses arrivals
  /// whose deadline the drain-rate estimate says cannot survive the
  /// queue wait.
  explicit cloud_work_queue(std::size_t capacity = 0,
                            std::size_t batch_capacity = 0,
                            bool shed_projected = false)
      : capacity_(capacity),
        batch_capacity_(batch_capacity),
        shed_projected_(shed_projected) {}

  struct item {
    wire::appeal_record record;
    /// When the appeal entered the queue (cloud_ms accounting).
    std::chrono::steady_clock::time_point enqueued;
    /// Absolute shed deadline (enqueued + record.deadline_ms);
    /// time_point::max() when the appeal carries none.
    std::chrono::steady_clock::time_point deadline;
    /// Token of the connection that owns the appeal (responses route
    /// back through it); opaque to the queue.
    std::uint64_t owner = 0;
  };

  /// Why a push was refused (ok = it wasn't). `full` covers both the
  /// shared capacity and the batch-lane budget; `projected_miss` means
  /// the drain-rate estimate already exceeds the appeal's deadline. Both
  /// are overload answers — the caller responds `overloaded` with the
  /// current wait estimate as the retry-after hint.
  enum class admit : std::uint8_t { ok, full, projected_miss, closed };

  /// Enqueues one decoded appeal, stamping its arrival time and the
  /// absolute deadline from record.deadline_ms (< 0 = none). Never
  /// blocks. On any non-ok verdict the record is untouched apart from
  /// the move and the caller sheds (or is shutting down, for `closed`).
  admit push(wire::appeal_record&& record, std::uint64_t owner);

  /// Blocks until at least one item is available (or the queue is closed
  /// and empty — returns an empty vector, the worker should exit), then
  /// pops up to `max_items` in scheduling order without waiting for
  /// more.
  std::vector<item> pop_batch(std::size_t max_items);

  /// Wakes all waiting workers; subsequent pushes are refused. By
  /// default pop_batch drains the remainder before reporting closed;
  /// `discard` empties the lanes instead (shutdown: every client is
  /// gone, scoring the backlog would be pure waste).
  void close(bool discard = false);

  std::size_t size() const;

  /// Throughput view the overload answers are derived from: current
  /// depth, the EMA of per-item drain time (ms; 0 until two pops have
  /// happened), and total items drained.
  struct queue_stats {
    std::size_t depth = 0;
    double ms_per_item = 0.0;
    std::size_t drained = 0;
  };
  queue_stats stats() const;

  /// Estimated wait of an arrival admitted now: depth × the drain-rate
  /// EMA (0 until the estimate warms up). This is the retry-after hint
  /// on `overloaded` responses.
  double estimated_wait_ms() const;

 private:
  using lane = std::map<
      std::pair<std::chrono::steady_clock::time_point, std::uint64_t>, item>;

  const std::size_t capacity_;
  const std::size_t batch_capacity_;
  const bool shed_projected_;
  mutable std::mutex mutex_;
  std::condition_variable ready_;
  lane interactive_;
  lane batch_;
  std::uint64_t next_seq_ = 0;
  bool closed_ = false;
  /// Drain-rate EMA: ms between successive pop_batch calls divided by
  /// the items each popped, smoothed. Fed under mutex_ by every worker,
  /// so it measures the pool's aggregate throughput. Intervals where a
  /// worker found the queue empty (idle, not draining) re-arm the clock
  /// instead of feeding the EMA — idle time is not drain time, and
  /// inflated hints would lengthen retry backoffs, which lengthens the
  /// idle gaps in turn.
  double ema_ms_per_item_ = 0.0;
  std::chrono::steady_clock::time_point last_pop_{};
  bool have_last_pop_ = false;
  std::size_t drained_ = 0;
};

/// Sentinel a scorer returns for an appeal it cannot score as sent
/// (unknown split cut id, feature shape matching no cut). The stub
/// answers such appeals with response_status::rejected instead of a
/// prediction, and the edge completes them from its local copy.
inline constexpr std::size_t kRejectedPrediction =
    static_cast<std::size_t>(-1);

class stub_server {
 public:
  /// Prediction for one appealed request.
  using scorer_fn = std::function<std::size_t(const wire::appeal_record&)>;
  /// Batched scorer: one prediction per appeal, index-aligned.
  using batch_scorer_fn = std::function<std::vector<std::size_t>(
      const std::vector<const wire::appeal_record*>&)>;
  /// Builds one batch scorer per worker (stateful scorers — a network
  /// with its inference caches — must not be shared across workers).
  /// Invoked once per worker from start(), on the caller's thread, so a
  /// factory that throws (missing weights, architecture mismatch) fails
  /// start() cleanly.
  using scorer_factory = std::function<batch_scorer_fn(std::size_t worker)>;

  /// Stateless per-appeal scorer, shared by every worker.
  stub_server(const stub_server_config& cfg, scorer_fn scorer);
  /// One scorer instance per worker (network scorers).
  stub_server(const stub_server_config& cfg, scorer_factory factory);
  ~stub_server();

  stub_server(const stub_server&) = delete;
  stub_server& operator=(const stub_server&) = delete;

  /// Binds, listens, starts the scorer workers and the acceptor. Throws
  /// util::error when the endpoint cannot be bound.
  void start();

  /// Stops accepting, closes every live connection, drains the work
  /// queue, joins all threads. Idempotent; also invoked by the
  /// destructor.
  void stop();

  /// Actual TCP port after start() (meaningful for tcp endpoints only).
  std::uint16_t tcp_port() const;

  stub_server_counters counters() const;

 private:
  struct connection {
    std::uint64_t id = 0;
    net::fd socket;
    std::thread thread;
    std::mutex write_mutex;  // response frames from multiple workers
    std::atomic<bool> done{false};
  };

  void accept_loop();
  void serve_connection(connection& conn);
  void scorer_loop(const batch_scorer_fn& score);
  /// Frames and writes one response batch to `owner`'s connection (if it
  /// is still alive); accounts bytes_sent. Write errors drop the
  /// responses — the client is gone and its channel falls back locally.
  void write_responses(std::uint64_t owner,
                       const std::vector<wire::response_record>& responses);
  /// Joins and frees connections whose client hung up (called from the
  /// accept loop, so a long-lived stub does not leak one fd + thread per
  /// past client). Caller must not hold mutex_.
  void reap_finished_connections();

  stub_server_config config_;  // declared before queue_ (capacity source)
  scorer_factory scorer_factory_;
  net::fd listener_;
  std::thread acceptor_;
  std::vector<std::thread> scorers_;
  cloud_work_queue queue_{config_.max_queue_depth,
                          config_.max_batch_queue_depth,
                          config_.shed_projected};
  std::atomic<bool> stopping_{false};
  bool started_ = false;
  std::uint64_t next_connection_id_ = 0;

  mutable std::mutex mutex_;  // connections_ + counters_
  /// Live connections by owner token — the routing table workers answer
  /// through (a reaped or dead connection simply is not found and the
  /// responses are dropped) and the only container, so registration,
  /// reaping, and shutdown cannot drift apart.
  std::unordered_map<std::uint64_t, std::shared_ptr<connection>> connections_;
  stub_server_counters counters_;

  /// default_registry() instruments mirroring the counters above (plus
  /// the live work-queue depth), resolved once at construction so the
  /// hot paths pay one relaxed fetch_add each.
  obs::counter& metric_appeals_;
  obs::counter& metric_scored_;
  obs::counter& metric_expired_;
  obs::counter& metric_overloaded_;
  obs::counter& metric_projected_;
  obs::gauge& metric_queue_depth_;
};

}  // namespace appeal::serve
