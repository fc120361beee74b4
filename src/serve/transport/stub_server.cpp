#include "serve/transport/stub_server.hpp"

#include <unistd.h>

#include <algorithm>
#include <utility>

#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace appeal::serve {

namespace {
using clock = std::chrono::steady_clock;

double ms_between(clock::time_point from, clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}
}  // namespace

// --- cloud_work_queue ------------------------------------------------------

cloud_work_queue::admit cloud_work_queue::push(wire::appeal_record&& record,
                                               std::uint64_t owner) {
  item it;
  it.enqueued = clock::now();
  it.deadline = clock::time_point::max();
  // deadline_ms is an untrusted wire field: NaN fails the >= 0 test, and
  // anything beyond a day is treated as "no deadline" rather than fed to
  // duration_cast (float -> integer conversion of a huge/inf value is
  // undefined behavior, not just a silly deadline).
  constexpr double kMaxDeadlineMs = 86'400'000.0;
  const bool deadlined =
      record.deadline_ms >= 0.0 && record.deadline_ms < kMaxDeadlineMs;
  if (deadlined) {
    it.deadline = it.enqueued +
                  std::chrono::duration_cast<clock::duration>(
                      std::chrono::duration<double, std::milli>(
                          record.deadline_ms));
  }
  it.owner = owner;
  it.record = std::move(record);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_) return admit::closed;
    const std::size_t depth = interactive_.size() + batch_.size();
    if (capacity_ > 0 && depth >= capacity_) {
      return admit::full;  // at capacity: the caller sheds
    }
    if (batch_capacity_ > 0 &&
        it.record.priority == priority_class::batch &&
        batch_.size() >= batch_capacity_) {
      return admit::full;  // batch lane over its budget
    }
    // Projected deadline miss: the arrival queues behind `depth` items
    // at the measured drain rate; if its whole deadline budget is spent
    // before a worker could reach it, queueing it only manufactures an
    // expiry. Needs a warmed-up estimate (two pops) to ever fire.
    if (shed_projected_ && deadlined && ema_ms_per_item_ > 0.0 &&
        static_cast<double>(depth + 1) * ema_ms_per_item_ >
            it.record.deadline_ms) {
      return admit::projected_miss;
    }
    lane& l = it.record.priority == priority_class::interactive ? interactive_
                                                                : batch_;
    // Key (deadline, seq): tightest deadline pops first; deadline-free
    // items (time_point::max()) sort after every deadlined one; seq
    // keeps equals — and the no-deadline tail — FIFO.
    l.emplace(std::make_pair(it.deadline, next_seq_++), std::move(it));
  }
  ready_.notify_one();
  return admit::ok;
}

std::vector<cloud_work_queue::item> cloud_work_queue::pop_batch(
    std::size_t max_items) {
  std::unique_lock<std::mutex> lock(mutex_);
  const bool was_idle = interactive_.empty() && batch_.empty();
  ready_.wait(lock, [&] {
    return closed_ || !interactive_.empty() || !batch_.empty();
  });
  std::vector<item> out;
  out.reserve(std::min(max_items, interactive_.size() + batch_.size()));
  for (lane* l : {&interactive_, &batch_}) {
    while (out.size() < max_items && !l->empty()) {
      out.push_back(std::move(l->begin()->second));
      l->erase(l->begin());
    }
  }
  // Drain-rate EMA feeding the overload retry-after hints: the interval
  // between successive pops across the whole worker pool, per item
  // popped — but only intervals where work was waiting the whole time.
  // Counting an idle gap (empty queue, worker parked in the wait above)
  // as drain time would inflate the estimate, and since the hints set
  // retry backoffs, longer hints create longer idle gaps: a feedback
  // loop. After idling, the clock re-arms instead.
  if (!out.empty()) {
    const clock::time_point now = clock::now();
    if (have_last_pop_ && !was_idle) {
      const double per_item =
          ms_between(last_pop_, now) / static_cast<double>(out.size());
      ema_ms_per_item_ = ema_ms_per_item_ == 0.0
                             ? per_item
                             : ema_ms_per_item_ +
                                   0.2 * (per_item - ema_ms_per_item_);
    }
    have_last_pop_ = true;
    last_pop_ = now;
    drained_ += out.size();
  }
  // More work than one batch: pass the baton to the next worker instead
  // of letting it sleep until the next push.
  if (!interactive_.empty() || !batch_.empty()) ready_.notify_one();
  return out;  // empty <=> closed and drained
}

void cloud_work_queue::close(bool discard) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
    if (discard) {
      interactive_.clear();
      batch_.clear();
    }
  }
  ready_.notify_all();
}

std::size_t cloud_work_queue::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return interactive_.size() + batch_.size();
}

cloud_work_queue::queue_stats cloud_work_queue::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  queue_stats s;
  s.depth = interactive_.size() + batch_.size();
  s.ms_per_item = ema_ms_per_item_;
  s.drained = drained_;
  return s;
}

double cloud_work_queue::estimated_wait_ms() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<double>(interactive_.size() + batch_.size()) *
         ema_ms_per_item_;
}

// --- stub_server -----------------------------------------------------------

namespace {

/// Validates at construction (not first use) and adapts a per-appeal
/// scorer into the worker pool's batch interface.
stub_server::scorer_factory wrap_scorer(stub_server::scorer_fn scorer) {
  APPEAL_CHECK(scorer != nullptr, "stub_server needs a scorer");
  return [scorer = std::move(scorer)](std::size_t) {
    return [scorer](const std::vector<const wire::appeal_record*>& batch) {
      std::vector<std::size_t> predictions;
      predictions.reserve(batch.size());
      for (const wire::appeal_record* a : batch) {
        predictions.push_back(scorer(*a));
      }
      return predictions;
    };
  };
}

}  // namespace

stub_server::stub_server(const stub_server_config& cfg, scorer_fn scorer)
    : stub_server(cfg, wrap_scorer(std::move(scorer))) {}

stub_server::stub_server(const stub_server_config& cfg, scorer_factory factory)
    : config_(cfg),
      scorer_factory_(std::move(factory)),
      metric_appeals_(obs::default_registry().get_counter(
          "appeal_cloud_appeals_total", {},
          "appeals received by the cloud stub")),
      metric_scored_(obs::default_registry().get_counter(
          "appeal_cloud_scored_total", {},
          "appeals answered with a prediction")),
      metric_expired_(obs::default_registry().get_counter(
          "appeal_cloud_expired_total", {},
          "appeals shed because their deadline was blown in the queue")),
      metric_overloaded_(obs::default_registry().get_counter(
          "appeal_cloud_overloaded_total", {},
          "appeals shed at admission to a full work queue")),
      metric_projected_(obs::default_registry().get_counter(
          "appeal_cloud_projected_total", {},
          "appeals shed at admission because the queue wait alone would "
          "blow their deadline")),
      metric_queue_depth_(obs::default_registry().get_gauge(
          "appeal_cloud_queue_depth", {},
          "appeals waiting in the cloud work queue")) {
  APPEAL_CHECK(config_.kind == transport_kind::uds ||
                   config_.kind == transport_kind::tcp,
               "stub_server listens on uds or tcp");
  APPEAL_CHECK(scorer_factory_ != nullptr, "stub_server needs a scorer");
  config_.workers = std::max<std::size_t>(1, config_.workers);
  config_.max_cloud_batch = std::max<std::size_t>(1, config_.max_cloud_batch);
}

stub_server::~stub_server() { stop(); }

void stub_server::start() {
  APPEAL_CHECK(!started_, "stub_server started twice");
  started_ = true;
  // Build every worker's scorer BEFORE any thread spawns: a factory that
  // throws (missing weights file, architecture mismatch) must surface as
  // a clean util::error from start(), not std::terminate from inside a
  // worker thread. Forwards still draw from each worker's thread-local
  // inference workspace at call time.
  std::vector<batch_scorer_fn> scorers;
  scorers.reserve(config_.workers);
  for (std::size_t w = 0; w < config_.workers; ++w) {
    scorers.push_back(scorer_factory_(w));
    APPEAL_CHECK(scorers.back() != nullptr, "scorer factory returned null");
  }
  listener_ = config_.kind == transport_kind::uds
                  ? net::listen_uds(config_.endpoint)
                  : net::listen_tcp(config_.endpoint);
  scorers_.reserve(config_.workers);
  for (std::size_t w = 0; w < config_.workers; ++w) {
    scorers_.emplace_back([this, w, score = std::move(scorers[w])] {
      util::set_thread_name("stub-score-" + std::to_string(w));
      scorer_loop(score);
    });
  }
  acceptor_ = std::thread([this] {
    util::set_thread_name("stub-accept");
    accept_loop();
  });
}

void stub_server::stop() {
  if (stopping_.exchange(true)) return;
  listener_.shutdown();  // unblocks accept()
  if (acceptor_.joinable()) acceptor_.join();
  std::vector<std::shared_ptr<connection>> live;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    live.reserve(connections_.size());
    for (auto& [id, conn] : connections_) live.push_back(std::move(conn));
    connections_.clear();
  }
  for (auto& conn : live) {
    conn->socket.shutdown();
    if (conn->thread.joinable()) conn->thread.join();
  }
  // Connection readers are done: no more pushes. Discard whatever is
  // still queued — every client socket is already shut, so scoring the
  // backlog would burn a full inference per appeal to produce responses
  // nobody can receive — and join the workers.
  queue_.close(/*discard=*/true);
  for (std::thread& t : scorers_) t.join();
  scorers_.clear();
  listener_.reset();
  if (started_ && config_.kind == transport_kind::uds) {
    ::unlink(config_.endpoint.c_str());
  }
}

std::uint16_t stub_server::tcp_port() const {
  APPEAL_CHECK(config_.kind == transport_kind::tcp,
               "tcp_port() on a non-tcp stub");
  return net::local_tcp_port(listener_);
}

stub_server_counters stub_server::counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

void stub_server::reap_finished_connections() {
  std::vector<std::shared_ptr<connection>> finished;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto it = connections_.begin(); it != connections_.end();) {
      if (it->second->done.load(std::memory_order_acquire)) {
        finished.push_back(std::move(it->second));
        it = connections_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto& conn : finished) {
    if (conn->thread.joinable()) conn->thread.join();
  }
  // A worker may still hold the shared_ptr while writing a last response;
  // the fd closes when the final reference drops.
}

void stub_server::accept_loop() {
  for (;;) {
    net::fd conn = net::accept_connection(listener_);
    if (!conn.valid()) return;  // listener shut down
    if (stopping_.load(std::memory_order_acquire)) return;
    reap_finished_connections();
    auto c = std::make_shared<connection>();
    c->id = next_connection_id_++;
    c->socket = std::move(conn);
    // Register BEFORE the reader thread spawns: its first appeal can be
    // scored and answered before this loop resumes, and write_responses
    // must already find the connection in the routing table. (stop()
    // joins this acceptor before touching connections_, so the
    // not-yet-assigned `thread` member is never observed concurrently.)
    {
      std::lock_guard<std::mutex> lock(mutex_);
      counters_.connections += 1;
      connections_.emplace(c->id, c);
    }
    connection* raw = c.get();
    c->thread = std::thread([this, raw] {
      util::set_thread_name("stub-conn-" + std::to_string(raw->id));
      serve_connection(*raw);
    });
  }
}

void stub_server::serve_connection(connection& conn) {
  net::fd& socket = conn.socket;
  wire::frame_splitter splitter;
  std::uint8_t chunk[64 * 1024];
  try {
    for (;;) {
      const std::size_t n = net::read_some(socket, chunk, sizeof(chunk));
      if (n == 0) break;  // client done (or stop())
      splitter.feed(chunk, n);
      std::size_t batches = 0;
      std::size_t appeals = 0;
      std::size_t full_sheds = 0;
      std::size_t projected_sheds = 0;
      std::vector<wire::response_record> shed;
      while (std::optional<wire::frame> f = splitter.next()) {
        std::vector<wire::appeal_record> batch =
            wire::decode_appeal_batch(*f);
        batches += 1;
        appeals += batch.size();
        for (wire::appeal_record& a : batch) {
          const std::uint64_t id = a.id;
          const cloud_work_queue::admit verdict =
              queue_.push(std::move(a), conn.id);
          if (verdict == cloud_work_queue::admit::ok) continue;
          // The queue won't take it — full lane (scorers can't keep up)
          // or a projected deadline miss. Either way this is OVERLOAD,
          // not expiry: the appeal never waited, so answer `overloaded`
          // with a retry-after hint sized to the current backlog and let
          // the edge decide between retrying and its local fallback.
          wire::response_record r;
          r.id = id;
          r.status = wire::response_status::overloaded;
          r.retry_after_ms = std::max(1.0, queue_.estimated_wait_ms());
          shed.push_back(r);
          if (verdict == cloud_work_queue::admit::projected_miss) {
            ++projected_sheds;
          } else {
            ++full_sheds;
          }
        }
      }
      if (!shed.empty()) write_responses(conn.id, shed);
      metric_appeals_.add(appeals);
      metric_overloaded_.add(full_sheds);
      metric_projected_.add(projected_sheds);
      metric_queue_depth_.set(static_cast<double>(queue_.size()));
      std::lock_guard<std::mutex> lock(mutex_);
      counters_.bytes_received += n;
      counters_.batches += batches;
      counters_.appeals += appeals;
      counters_.overloaded += full_sheds;
      counters_.projected += projected_sheds;
    }
  } catch (const util::error& e) {
    // Corrupt stream or dead client: drop the connection, keep serving
    // the others.
    if (!stopping_.load(std::memory_order_acquire)) {
      APPEAL_LOG_WARN("cloud_stub")
          << "connection dropped" << util::kv("error", e.what());
    }
  }
  // Hands the connection to the accept loop's reaper (the fd closes
  // there, with the join).
  conn.done.store(true, std::memory_order_release);
}

void stub_server::scorer_loop(const batch_scorer_fn& score) {
  for (;;) {
    std::vector<cloud_work_queue::item> work =
        queue_.pop_batch(config_.max_cloud_batch);
    if (work.empty()) return;  // queue closed and drained

    // Shed what is already dead: an appeal whose deadline passed while
    // queued gets an immediate `expired` response, not a prediction the
    // edge can no longer use.
    const clock::time_point popped_at = clock::now();
    std::vector<const cloud_work_queue::item*> live;
    std::vector<const wire::appeal_record*> to_score;
    live.reserve(work.size());
    to_score.reserve(work.size());
    // Responses grouped by owning connection (one popped batch can span
    // clients).
    std::map<std::uint64_t, std::vector<wire::response_record>> routed;
    std::size_t expired = 0;
    for (const cloud_work_queue::item& it : work) {
      if (config_.shed_expired && popped_at > it.deadline) {
        wire::response_record r;
        r.id = it.record.id;
        r.status = wire::response_status::expired;
        r.cloud_ms = ms_between(it.enqueued, popped_at);
        r.cloud_queue_ms = r.cloud_ms;  // it only ever waited
        routed[it.owner].push_back(r);
        ++expired;
      } else {
        live.push_back(&it);
        to_score.push_back(&it.record);
      }
    }
    // Expired answers leave BEFORE scoring: holding them behind a slow
    // batch forward would let the edge's response watchdog fire and
    // complete the appeal from its fallback instead of as cloud_expired.
    if (expired > 0) {
      for (const auto& [owner, responses] : routed) {
        write_responses(owner, responses);
      }
      routed.clear();
    }

    if (!to_score.empty()) {
      std::vector<std::size_t> predictions;
      try {
        predictions = score(to_score);
        APPEAL_CHECK(predictions.size() == to_score.size(),
                     "stub scorer must return one prediction per appeal");
      } catch (const std::exception& e) {
        // A broken scorer must not take the server down; the unanswered
        // appeals hit the edge channel's response watchdog and complete
        // from its local fallback.
        APPEAL_LOG_ERROR("cloud_stub")
            << "scorer failed; the edge watchdog will fall back locally"
            << util::kv("batch", to_score.size())
            << util::kv("error", e.what());
        predictions.clear();
        live.clear();
      }
      const clock::time_point scored_at = clock::now();
      for (std::size_t i = 0; i < live.size(); ++i) {
        wire::response_record r;
        r.id = live[i]->record.id;
        r.prediction = predictions[i];
        // Queue wait + scoring: what this appeal actually cost cloud-side
        // (the whole batch's scoring time is charged to each member — it
        // waited for the batch either way). The queue/score split lets the edge
        // attribute the two separately in its trace spans.
        r.cloud_ms = ms_between(live[i]->enqueued, scored_at);
        r.cloud_queue_ms = ms_between(live[i]->enqueued, popped_at);
        r.cloud_score_ms = ms_between(popped_at, scored_at);
        routed[live[i]->owner].push_back(r);
      }
    }

    for (const auto& [owner, responses] : routed) {
      write_responses(owner, responses);
    }
    metric_scored_.add(live.size());
    metric_expired_.add(expired);
    metric_queue_depth_.set(static_cast<double>(queue_.size()));
    std::lock_guard<std::mutex> lock(mutex_);
    counters_.cloud_batches += 1;
    counters_.scored += live.size();
    counters_.expired += expired;
  }
}

void stub_server::write_responses(
    std::uint64_t owner, const std::vector<wire::response_record>& responses) {
  std::shared_ptr<connection> conn;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = connections_.find(owner);
    if (it != connections_.end()) conn = it->second;
  }
  if (conn == nullptr) return;  // client gone; nobody is listening
  const std::vector<std::uint8_t> framed =
      wire::encode_response_batch(responses);
  try {
    std::lock_guard<std::mutex> write_lock(conn->write_mutex);
    net::write_all(conn->socket, framed.data(), framed.size());
  } catch (const util::error&) {
    return;  // client hung up mid-write; its reader thread cleans up
  }
  std::lock_guard<std::mutex> lock(mutex_);
  counters_.bytes_sent += framed.size();
}

}  // namespace appeal::serve
