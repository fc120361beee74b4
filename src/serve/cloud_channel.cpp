#include "serve/cloud_channel.hpp"

#include <algorithm>
#include <utility>

#include "serve/transport/fault_transport.hpp"
#include "util/error.hpp"
#include "util/logging.hpp"

namespace appeal::serve {

namespace {

using clock = std::chrono::steady_clock;

clock::duration from_ms(double ms) {
  return std::chrono::duration_cast<clock::duration>(
      std::chrono::duration<double, std::milli>(ms));
}

double ms_since(clock::time_point from) {
  return std::chrono::duration<double, std::milli>(clock::now() - from)
      .count();
}

void accumulate(transport_counters& into, const transport_counters& c) {
  into.batches_sent += c.batches_sent;
  into.appeals_sent += c.appeals_sent;
  into.bytes_sent += c.bytes_sent;
  into.bytes_received += c.bytes_received;
}

obs::label_set link_labels(const std::string& name) {
  if (name.empty()) return {};
  return {{"link", name}};
}

}  // namespace

const char* breaker_state_name(breaker_state s) {
  switch (s) {
    case breaker_state::closed:
      return "closed";
    case breaker_state::open:
      return "open";
    case breaker_state::half_open:
      return "half-open";
  }
  return "?";
}

cloud_channel::cloud_channel(cloud_backend& backend,
                             const collab::cost_model& link,
                             const link_config& cfg, std::string name)
    : backend_(backend),
      config_(cfg),
      link_(link),
      name_(std::move(name)),
      jitter_rng_(cfg.retry_seed),
      metric_retries_(obs::default_registry().get_counter(
          "appeal_retry_total", link_labels(name_),
          "overloaded appeals re-sent after backoff")),
      metric_overloaded_(obs::default_registry().get_counter(
          "appeal_overloaded_total", link_labels(name_),
          "overloaded answers received from the cloud")),
      metric_breaker_(obs::default_registry().get_gauge(
          "appeal_breaker_state", link_labels(name_),
          "cloud-link circuit breaker (0 closed, 1 open, 2 half-open)")) {
  APPEAL_CHECK(config_.coalesce_window_ms >= 0.0,
               "coalesce window must be non-negative");
  APPEAL_CHECK(config_.breaker_open_ms > 0.0,
               "breaker cool-off must be positive");
  config_.max_batch_appeals = std::max<std::size_t>(1, cfg.max_batch_appeals);
  // Config mistakes must still fail the constructor loudly — validate
  // them before the connect attempt, whose failure is survivable.
  if (!config_.fault.empty()) parse_fault_spec(config_.fault);
  APPEAL_CHECK(config_.transport == transport_kind::sim ||
                   !config_.endpoint.empty(),
               "socket transports need an endpoint");
  metric_breaker_.set(0.0);
  try {
    transport_ = make_cloud_transport(config_, backend, link);
    const std::uint64_t epoch = epoch_;
    transport_->start(
        [this, epoch](std::vector<cloud_transport::completion>&& done) {
          on_completions(epoch, std::move(done));
        },
        [this, epoch] { on_link_failure(epoch); });
  } catch (const util::error& e) {
    // A cloud that is down while the edge deploys must not take the
    // edge down with it: come up with the breaker open (appeals answer
    // locally from the first request) and let the half-open probe
    // reconnect once the peer is back.
    transport_.reset();
    ++breaker_opens_;
    set_breaker_locked(breaker_state::open);
    open_until_ = clock::now() + from_ms(config_.breaker_open_ms);
    APPEAL_LOG_WARN("cloud_channel")
        << "cloud unreachable at startup; circuit breaker opened"
        << util::kv("link", name_) << util::kv("error", e.what())
        << util::kv("cool_off_ms", config_.breaker_open_ms);
  }
  worker_ = std::thread([this] { run(); });
}

cloud_channel::~cloud_channel() {
  drain();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  wake_.notify_all();
  worker_.join();
  // No send can be in progress and the run thread is gone: stopping the
  // live and retired transports here joins their reader threads safely.
  if (transport_ != nullptr) transport_->stop();
  for (auto& t : retired_) t->stop();
  retired_.clear();
}

void cloud_channel::appeal(request&& r, completion_fn on_complete) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    APPEAL_CHECK(!stopping_, "appeal() after channel shutdown");
    pending_.push_back(
        pending{std::move(r), std::move(on_complete), clock::now(), 0});
    ++outstanding_;
  }
  wake_.notify_all();
}

void cloud_channel::drain() {
  // A fast peer can answer a whole batch while the coalescing thread is
  // still inside send_batch; waiting out sending_ids_ keeps drain() from
  // returning before that send's counter bookkeeping has landed.
  std::unique_lock<std::mutex> lock(mutex_);
  drained_.wait(lock,
                [&] { return outstanding_ == 0 && sending_ids_.empty(); });
}

std::size_t cloud_channel::completed() const {
  return completed_.load(std::memory_order_relaxed);
}

link_counters cloud_channel::counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  link_counters c;
  c.wire = wire_base_;
  if (transport_ != nullptr) accumulate(c.wire, transport_->counters());
  c.completed = completed_.load(std::memory_order_relaxed);
  c.local_fallbacks = local_fallbacks_;
  c.retries = retries_;
  c.overloaded = overloaded_;
  c.breaker_opens = breaker_opens_;
  c.breaker = static_cast<std::uint8_t>(breaker_);
  return c;
}

void cloud_channel::run() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    dispose_retired(lock);
    // Response watchdog (socket transports): a peer that accepts
    // appeals but answers none of them within the budget is declared
    // dead — outstanding appeals complete locally so drain() always
    // terminates. Checked every iteration, so it fires under sustained
    // load as well as when the channel idles.
    reap_overdue(lock);
    promote_due_retries_locked();
    if (breaker_ == breaker_state::open && clock::now() >= open_until_) {
      to_half_open(lock);
    }

    if (pending_.empty()) {
      if (stopping_) {
        if (retry_queue_.empty()) return;
        // Shutdown with retries parked: nobody waits out a backoff once
        // the channel is going away — resolve them locally now.
        std::vector<in_flight> entries;
        entries.reserve(retry_queue_.size());
        const clock::time_point now = clock::now();
        for (auto& [due, p] : retry_queue_) {
          entries.push_back(in_flight{std::move(p.req),
                                      std::move(p.on_complete), now, 0.0,
                                      p.attempts});
        }
        retry_queue_.clear();
        local_fallbacks_ += entries.size();
        lock.unlock();
        complete_locally(std::move(entries));
        lock.lock();
        continue;
      }
      // The due time is a snapshot: an overload answer arriving mid-wait
      // parks a retry whose backoff may elapse long before it (the
      // watchdog horizon is typically seconds out, a backoff tens of
      // ms). The predicate therefore re-derives the next event on every
      // wake-up and bails as soon as an earlier one appears — without
      // this, a parked retry sleeps out the stale watchdog deadline.
      const std::optional<clock::time_point> due = next_event_locked();
      if (due.has_value()) {
        wake_.wait_until(lock, *due, [&] {
          if (stopping_ || !pending_.empty()) return true;
          const std::optional<clock::time_point> now_due =
              next_event_locked();
          return now_due.has_value() && *now_due < *due;
        });
      } else {
        wake_.wait(lock, [&] {
          return stopping_ || !pending_.empty() ||
                 next_event_locked().has_value();
        });
      }
      continue;
    }

    // Breaker not closed (and not due for a probe): the cloud is
    // resting. Everything pending completes from the local fallback —
    // bounded latency beats queueing behind a sick link, and the cool-off
    // timer (not traffic) decides when to try the wire again.
    const bool probing =
        breaker_ == breaker_state::half_open && !probe_in_flight_;
    if (breaker_ != breaker_state::closed && !probing) {
      std::vector<in_flight> entries;
      entries.reserve(pending_.size());
      const clock::time_point now = clock::now();
      while (!pending_.empty()) {
        pending p = std::move(pending_.front());
        pending_.pop_front();
        entries.push_back(in_flight{std::move(p.req),
                                    std::move(p.on_complete), now, 0.0,
                                    p.attempts});
      }
      local_fallbacks_ += entries.size();
      lock.unlock();
      complete_locally(std::move(entries));
      lock.lock();
      continue;
    }

    // Coalesce: everything pending goes into one frame (up to the batch
    // cap); an optional window holds the batch open so a burst arriving
    // just behind the first appeal shares its RTT. A half-open probe
    // skips the window and ships alone, immediately.
    if (!probing && config_.coalesce_window_ms > 0.0 &&
        pending_.size() < config_.max_batch_appeals) {
      const clock::time_point close_at =
          pending_.front().arrived + from_ms(config_.coalesce_window_ms);
      wake_.wait_until(lock, close_at, [&] {
        return stopping_ || pending_.size() >= config_.max_batch_appeals;
      });
      if (pending_.empty()) continue;
    }

    const std::size_t take =
        probing ? 1 : std::min(pending_.size(), config_.max_batch_appeals);
    std::vector<std::uint64_t> wire_ids;
    wire_ids.reserve(take);
    const clock::time_point batched_at = clock::now();
    for (std::size_t i = 0; i < take; ++i) {
      pending p = std::move(pending_.front());
      pending_.pop_front();
      if (p.req.trace != nullptr) {
        p.req.trace->set(obs::stage::appeal_coalesce,
                         std::chrono::duration<double, std::milli>(
                             batched_at - p.arrived)
                             .count());
      }
      const std::uint64_t id = next_wire_id_++;
      wire_ids.push_back(id);
      in_flight_.emplace(
          id, in_flight{std::move(p.req), std::move(p.on_complete),
                        batched_at, 0.0, p.attempts});
      // Only the watchdog reads flight_order_; skipping the append when
      // it cannot fire keeps the deque from growing forever under the
      // sim transport (whose completions are internally guaranteed).
      if (watchdog_enabled()) flight_order_.emplace_back(id, batched_at);
    }
    // The in-flight table owns the requests; build the transport's view
    // while still locked (the unordered_map's node storage never moves,
    // and sending_ids_ pins these entries against concurrent extraction
    // by the failure paths while the send path reads them off-lock).
    std::vector<const request*> batch;
    batch.reserve(take);
    for (const std::uint64_t id : wire_ids) {
      batch.push_back(&in_flight_.at(id).req);
    }
    sending_ids_ = wire_ids;
    if (probing) probe_in_flight_ = true;
    // Raw pointer captured under the lock: a reader-thread failure may
    // retire the unique_ptr mid-send, but the object itself is only
    // disposed on this thread (dispose_retired), so it outlives the call.
    cloud_transport* link = transport_.get();
    lock.unlock();

    bool sent = false;
    if (link != nullptr) {
      try {
        // May block while the link is busy — exactly the window in which
        // the next batch accumulates.
        link->send_batch(batch, wire_ids, name_);
        sent = true;
      } catch (const util::error& e) {
        APPEAL_LOG_WARN("cloud_channel")
            << "appeal send failed" << util::kv("link", name_)
            << util::kv("error", e.what());
      }
    }
    lock.lock();
    sending_ids_.clear();
    if (sent) {
      // Stamp the wire-tx window on whatever this batch still has in
      // flight. An appeal the cloud already answered mid-send missed the
      // stamp — its span's wire_rx residual absorbs the time instead.
      const double tx_ms = ms_since(batched_at);
      for (const std::uint64_t id : wire_ids) {
        auto it = in_flight_.find(id);
        if (it != in_flight_.end()) it->second.tx_ms = tx_ms;
      }
    }
    // drain() also waits out the send window (sending_ids_); completions
    // that raced the send back already dropped outstanding_ to zero, so
    // wake any drainer now that this batch's bookkeeping is done.
    if (outstanding_ == 0) drained_.notify_all();
    if (!sent || transport_ == nullptr) {
      // Send failed (hard failure: trip the breaker and retire the
      // link), or the link died mid-send and the failure path left the
      // pinned entries for us: whatever the cloud has not already
      // answered completes locally. The sweep covers EVERY in-flight
      // entry, not just this batch — retiring the link bumped the
      // epoch, so the reader's own failure sweep is discarded as stale
      // when the send thread trips first, and earlier unanswered frames
      // would otherwise strand forever (flight_order_ is cleared on
      // retire, so even the watchdog can no longer see them).
      if (!sent && link != nullptr) {
        open_breaker_locked(/*retire=*/true, "send failure");
      }
      std::vector<std::uint64_t> stranded;
      stranded.reserve(in_flight_.size());
      for (const auto& [id, entry] : in_flight_) stranded.push_back(id);
      std::vector<in_flight> entries = extract_locked(stranded);
      local_fallbacks_ += entries.size();
      update_pressure_locked();
      lock.unlock();
      complete_locally(std::move(entries));
      lock.lock();
    }
  }
}

std::vector<cloud_channel::in_flight> cloud_channel::extract_locked(
    const std::vector<std::uint64_t>& ids) {
  std::vector<in_flight> entries;
  entries.reserve(ids.size());
  for (const std::uint64_t id : ids) {
    auto it = in_flight_.find(id);
    if (it == in_flight_.end()) continue;  // already answered
    entries.push_back(std::move(it->second));
    in_flight_.erase(it);
  }
  return entries;
}

bool cloud_channel::watchdog_enabled() const {
  return config_.transport != transport_kind::sim &&
         config_.response_timeout_ms > 0.0 && transport_ != nullptr;
}

std::optional<std::chrono::steady_clock::time_point>
cloud_channel::watchdog_due_locked() {
  if (!watchdog_enabled()) return std::nullopt;
  while (!flight_order_.empty() &&
         in_flight_.find(flight_order_.front().first) == in_flight_.end()) {
    flight_order_.pop_front();  // already answered
  }
  if (flight_order_.empty()) return std::nullopt;
  return flight_order_.front().second + from_ms(config_.response_timeout_ms);
}

void cloud_channel::reap_overdue(std::unique_lock<std::mutex>& lock) {
  const std::optional<clock::time_point> due = watchdog_due_locked();
  if (!due.has_value() || clock::now() < *due) return;
  const clock::time_point now = clock::now();
  const auto budget = from_ms(config_.response_timeout_ms);
  if (breaker_ == breaker_state::closed && now - last_rx_ < budget) {
    // The peer answered other frames inside the budget, so the link is
    // alive and this frame was lost in transit (fault injection, a peer
    // restart race). Complete just the overdue appeals locally and keep
    // the link — retiring a live link over one lost frame would cycle
    // the breaker forever under sustained frame loss, and every cycle
    // costs breaker_open_ms of all-local serving.
    std::vector<std::uint64_t> lost;
    while (!flight_order_.empty()) {
      const auto& [id, at] = flight_order_.front();
      if (in_flight_.find(id) == in_flight_.end()) {
        flight_order_.pop_front();  // already answered
        continue;
      }
      if (now < at + budget) break;
      lost.push_back(id);
      flight_order_.pop_front();
    }
    std::vector<in_flight> entries = extract_locked(lost);
    if (entries.empty()) return;
    local_fallbacks_ += entries.size();
    update_pressure_locked();
    lock.unlock();
    APPEAL_LOG_WARN("cloud_channel")
        << "frame lost on a live link; completing its appeals locally"
        << util::kv("link", name_)
        << util::kv("timeout_ms", config_.response_timeout_ms)
        << util::kv("appeals", entries.size());
    complete_locally(std::move(entries));
    lock.lock();
    return;
  }
  open_breaker_locked(/*retire=*/true, "response watchdog");
  std::vector<std::uint64_t> overdue;
  overdue.reserve(in_flight_.size());
  for (const auto& [id, entry] : in_flight_) overdue.push_back(id);
  std::vector<in_flight> entries = extract_locked(overdue);
  local_fallbacks_ += entries.size();
  update_pressure_locked();
  lock.unlock();
  APPEAL_LOG_WARN("cloud_channel")
      << "no response before the watchdog; completing appeals locally"
      << util::kv("link", name_)
      << util::kv("timeout_ms", config_.response_timeout_ms)
      << util::kv("appeals", entries.size());
  complete_locally(std::move(entries));
  lock.lock();
}

void cloud_channel::open_breaker_locked(bool retire, const char* why) {
  if (retire && transport_ != nullptr) {
    accumulate(wire_base_, transport_->counters());
    retired_.push_back(std::move(transport_));
    transport_ = nullptr;
    // Invalidate the retired link's callbacks: a straggler completion or
    // failure from its reader thread must not touch the next epoch's
    // state.
    ++epoch_;
    flight_order_.clear();
  }
  probe_in_flight_ = false;
  if (breaker_ != breaker_state::open) {
    ++breaker_opens_;
    APPEAL_LOG_WARN("cloud_channel")
        << "circuit breaker opened" << util::kv("link", name_)
        << util::kv("why", why)
        << util::kv("cool_off_ms", config_.breaker_open_ms);
  }
  set_breaker_locked(breaker_state::open);
  open_until_ = clock::now() + from_ms(config_.breaker_open_ms);
  overload_streak_ = 0;
  wake_.notify_all();  // the run thread re-arms its timer on the cool-off
}

void cloud_channel::set_breaker_locked(breaker_state s) {
  breaker_ = s;
  breaker_atomic_.store(static_cast<std::uint8_t>(s),
                        std::memory_order_relaxed);
  metric_breaker_.set(static_cast<double>(static_cast<std::uint8_t>(s)));
  update_pressure_locked();
}

void cloud_channel::update_pressure_locked() {
  pressure_.store(breaker_ != breaker_state::closed || overload_streak_ > 0,
                  std::memory_order_relaxed);
}

void cloud_channel::promote_due_retries_locked() {
  const clock::time_point now = clock::now();
  while (!retry_queue_.empty() && retry_queue_.begin()->first <= now) {
    pending_.push_back(std::move(retry_queue_.begin()->second));
    retry_queue_.erase(retry_queue_.begin());
  }
}

std::optional<std::chrono::steady_clock::time_point>
cloud_channel::next_event_locked() {
  std::optional<clock::time_point> due = watchdog_due_locked();
  if (!retry_queue_.empty() &&
      (!due.has_value() || retry_queue_.begin()->first < *due)) {
    due = retry_queue_.begin()->first;
  }
  if (breaker_ == breaker_state::open &&
      (!due.has_value() || open_until_ < *due)) {
    due = open_until_;
  }
  return due;
}

void cloud_channel::dispose_retired(std::unique_lock<std::mutex>& lock) {
  if (retired_.empty()) return;
  std::vector<std::unique_ptr<cloud_transport>> dead;
  dead.swap(retired_);
  lock.unlock();
  // stop() joins the retired reader thread; it must run here (the run
  // thread) and off-lock — the reader's own failure callback is what
  // parked the transport, and it may still be finishing up.
  for (auto& t : dead) t->stop();
  dead.clear();
  lock.lock();
}

void cloud_channel::to_half_open(std::unique_lock<std::mutex>& lock) {
  if (transport_ != nullptr) {
    // Soft trip (overload): the link never died. Probe it again.
    set_breaker_locked(breaker_state::half_open);
    probe_in_flight_ = false;
    return;
  }
  // Hard trip: reconnect from scratch. The epoch is bumped before the
  // lock drops so the fresh link's callbacks are valid the moment its
  // reader starts. It also salts the fault decorator's seed: a fresh
  // wrapper re-running the old fault plan from frame #1 could drop the
  // half-open probe after every reconnect and pin the breaker open.
  const std::uint64_t epoch = ++epoch_;
  lock.unlock();
  std::unique_ptr<cloud_transport> fresh;
  try {
    fresh = make_cloud_transport(config_, backend_, link_, epoch);
    fresh->start(
        [this, epoch](std::vector<cloud_transport::completion>&& done) {
          on_completions(epoch, std::move(done));
        },
        [this, epoch] { on_link_failure(epoch); });
  } catch (const util::error& e) {
    APPEAL_LOG_WARN("cloud_channel")
        << "reconnect failed; breaker stays open"
        << util::kv("link", name_) << util::kv("error", e.what());
    fresh.reset();
  }
  lock.lock();
  if (fresh == nullptr) {
    open_until_ = clock::now() + from_ms(config_.breaker_open_ms);
    return;
  }
  transport_ = std::move(fresh);
  probe_in_flight_ = false;
  set_breaker_locked(breaker_state::half_open);
  APPEAL_LOG_INFO("cloud_channel")
      << "reconnected; breaker half-open awaiting probe"
      << util::kv("link", name_);
}

double cloud_channel::backoff_delay_ms(std::size_t attempts, double hint) {
  double d = std::max(0.0, config_.retry_backoff_ms);
  for (std::size_t i = 0; i < attempts && d < config_.retry_backoff_max_ms;
       ++i) {
    d *= 2.0;
  }
  d = std::min(d, config_.retry_backoff_max_ms);
  const double j = std::clamp(config_.retry_jitter, 0.0, 1.0);
  if (j > 0.0) d *= (1.0 - j) + 2.0 * j * jitter_rng_.uniform();
  return std::max(hint, d);  // never retry before the cloud asked us to
}

void cloud_channel::on_completions(
    std::uint64_t epoch, std::vector<cloud_transport::completion>&& batch) {
  std::vector<std::pair<in_flight, appeal_outcome>> done;
  std::vector<in_flight> fallback;
  done.reserve(batch.size());
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (epoch != epoch_) return;  // a retired link's last frames
    last_rx_ = clock::now();
    bool scheduled_retry = false;
    for (cloud_transport::completion& c : batch) {
      auto it = in_flight_.find(c.id);
      // Already completed locally, or a duplicated completion frame
      // (fault injection / a confused peer): the first answer won.
      if (it == in_flight_.end()) continue;
      if (c.overloaded) {
        ++overloaded_;
        metric_overloaded_.add(1);
        ++overload_streak_;
        in_flight entry = std::move(it->second);
        in_flight_.erase(it);
        if (breaker_ == breaker_state::half_open) {
          // The probe itself was refused: the peer is alive but still
          // saturated — rest again without retiring the link.
          open_breaker_locked(/*retire=*/false, "half-open probe overloaded");
        } else if (breaker_ == breaker_state::closed &&
                   overload_streak_ >= config_.breaker_threshold) {
          open_breaker_locked(/*retire=*/false, "consecutive overloads");
        }
        const clock::time_point now = clock::now();
        const clock::time_point due =
            now + from_ms(backoff_delay_ms(entry.attempts, c.retry_after_ms));
        // Another wire attempt only makes sense while the breaker is
        // closed and the backoff still fits inside the deadline;
        // otherwise the local fallback answers now.
        const bool viable = breaker_ == breaker_state::closed &&
                            entry.attempts < config_.max_retries &&
                            (entry.req.deadline == request::no_deadline ||
                             due < entry.req.deadline);
        if (viable) {
          ++retries_;
          metric_retries_.add(1);
          pending p;
          p.req = std::move(entry.req);
          p.on_complete = std::move(entry.on_complete);
          p.arrived = now;
          p.attempts = entry.attempts + 1;
          retry_queue_.emplace(due, std::move(p));
          scheduled_retry = true;
        } else {
          fallback.push_back(std::move(entry));
        }
      } else {
        // Any scored or expired answer proves the peer alive: the
        // overload streak resets and a half-open probe re-closes the
        // breaker.
        overload_streak_ = 0;
        if (breaker_ == breaker_state::half_open) {
          probe_in_flight_ = false;
          set_breaker_locked(breaker_state::closed);
          APPEAL_LOG_INFO("cloud_channel")
              << "circuit breaker closed; cloud link recovered"
              << util::kv("link", name_);
          wake_.notify_all();
        }
        appeal_outcome outcome;
        outcome.prediction = c.prediction;
        outcome.cloud_ms = c.cloud_ms;
        outcome.cloud_queue_ms = c.cloud_queue_ms;
        outcome.cloud_score_ms = c.cloud_score_ms;
        outcome.expired = c.expired;
        done.emplace_back(std::move(it->second), outcome);
        in_flight_.erase(it);
      }
    }
    local_fallbacks_ += fallback.size();
    update_pressure_locked();
    if (scheduled_retry) wake_.notify_all();  // re-arm the retry timer
  }
  for (auto& [entry, outcome] : done) {
    finish(std::move(entry), outcome);
  }
  complete_locally(std::move(fallback));
}

void cloud_channel::on_link_failure(std::uint64_t epoch) {
  std::vector<in_flight> entries;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (epoch != epoch_) return;  // the retired link died twice
    open_breaker_locked(/*retire=*/true, "transport failure");
    entries.reserve(in_flight_.size());
    for (auto it = in_flight_.begin(); it != in_flight_.end();) {
      // Entries pinned by an in-progress send stay: the coalescing
      // thread is still reading them through raw pointers and will
      // sweep them itself once send_batch returns (it sees the retired
      // transport).
      if (std::find(sending_ids_.begin(), sending_ids_.end(), it->first) !=
          sending_ids_.end()) {
        ++it;
        continue;
      }
      entries.push_back(std::move(it->second));
      it = in_flight_.erase(it);
    }
    local_fallbacks_ += entries.size();
    update_pressure_locked();
  }
  complete_locally(std::move(entries));
}

void cloud_channel::complete_locally(std::vector<in_flight>&& entries) {
  for (in_flight& entry : entries) {
    appeal_outcome outcome;
    {
      // The coalescing thread (failed-send sweep, watchdog, open-breaker
      // serving) and the transport's reader thread (link failure,
      // exhausted retries) can land here concurrently; a network
      // backend's forward is not thread-safe, so local scoring is
      // serialized. Cold path — this only runs when the cloud is
      // overloaded or gone.
      std::lock_guard<std::mutex> lock(fallback_mutex_);
      outcome.prediction = backend_.infer(entry.req);
    }
    finish(std::move(entry), outcome);
  }
}

void cloud_channel::finish(in_flight&& entry, appeal_outcome outcome) {
  outcome.link_ms = ms_since(entry.batched_at);
  if (entry.req.trace != nullptr) {
    obs::trace_span& span = *entry.req.trace;
    span.set(obs::stage::wire_tx, entry.tx_ms);
    span.set(obs::stage::cloud_queue, outcome.cloud_queue_ms);
    span.set(obs::stage::cloud_score, outcome.cloud_score_ms);
    // The rest of the link round trip. The cloud stages are durations on
    // the cloud's clock, so no cross-clock sync is needed; set() clamps
    // a negative remainder (clock disagreement) to 0, which shows up as
    // a reconciliation gap in tools/trace_report rather than a negative
    // stage.
    span.set(obs::stage::wire_rx,
             outcome.link_ms - entry.tx_ms - outcome.cloud_queue_ms -
                 outcome.cloud_score_ms);
  }
  completed_.fetch_add(1, std::memory_order_relaxed);
  entry.on_complete(std::move(entry.req), outcome);
  std::lock_guard<std::mutex> lock(mutex_);
  --outstanding_;
  if (outstanding_ == 0) drained_.notify_all();
}

}  // namespace appeal::serve
