#include "serve/transport/socket_transport.hpp"

#include <chrono>

#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace appeal::serve {

namespace {

using clock = std::chrono::steady_clock;

double remaining_deadline_ms(const request& r) {
  if (r.deadline == request::no_deadline) return -1.0;
  const double remaining =
      std::chrono::duration<double, std::milli>(r.deadline - clock::now())
          .count();
  // A deadline already blown at send time must stay a deadline on the
  // wire: negative values mean "none" there, so clamp to an immediately
  // expiring budget instead (the stub sheds it as `expired`).
  return remaining > 0.0 ? remaining : 0.0;
}

}  // namespace

socket_transport::socket_transport(transport_kind kind, std::string endpoint,
                                   double send_timeout_ms)
    : kind_(kind),
      endpoint_(std::move(endpoint)),
      send_timeout_ms_(send_timeout_ms) {
  APPEAL_CHECK(kind_ == transport_kind::uds || kind_ == transport_kind::tcp,
               "socket_transport kind must be uds or tcp");
  APPEAL_CHECK(!endpoint_.empty(),
               "socket transport needs an endpoint (uds path or host:port)");
}

socket_transport::~socket_transport() { stop(); }

void socket_transport::start(completion_sink on_complete,
                             failure_sink on_failure) {
  APPEAL_CHECK(on_complete != nullptr && on_failure != nullptr,
               "socket_transport needs completion and failure sinks");
  APPEAL_CHECK(!reader_.joinable(), "socket_transport started twice");
  on_complete_ = std::move(on_complete);
  on_failure_ = std::move(on_failure);
  socket_ = kind_ == transport_kind::uds ? net::connect_uds(endpoint_)
                                         : net::connect_tcp(endpoint_);
  net::set_send_timeout(socket_, send_timeout_ms_);
  reader_ = std::thread([this] {
    util::set_thread_name("channel-recv");
    reader_loop();
  });
}

void socket_transport::send_batch(const std::vector<const request*>& batch,
                                  const std::vector<std::uint64_t>& wire_ids,
                                  const std::string& model) {
  APPEAL_CHECK(reader_.joinable(), "send_batch before start()");
  APPEAL_CHECK(batch.size() == wire_ids.size(),
               "one wire id per appeal required");
  if (link_down_.load(std::memory_order_acquire)) {
    throw util::error("cloud link to '" + endpoint_ + "' is down");
  }
  std::vector<wire::appeal_view> views;
  views.reserve(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    wire::appeal_view v;
    v.id = wire_ids[i];
    v.key = batch[i]->key;
    v.label = batch[i]->label;
    v.priority = batch[i]->priority;
    v.deadline_ms = remaining_deadline_ms(*batch[i]);
    v.trace_id = batch[i]->trace != nullptr ? batch[i]->trace->trace_id : 0;
    v.model = model;
    v.input = &batch[i]->input;
    views.push_back(v);
  }
  const std::vector<std::uint8_t> framed = wire::encode_appeal_batch(views);
  {
    // Count before writing: a completion can race back (and a drain()er
    // snapshot the counters) before write_all even returns.
    std::lock_guard<std::mutex> lock(mutex_);
    counters_.batches_sent += 1;
    counters_.appeals_sent += batch.size();
    counters_.bytes_sent += framed.size();
  }
  try {
    net::write_all(socket_, framed.data(), framed.size());
  } catch (const util::error&) {
    link_down_.store(true, std::memory_order_release);
    std::lock_guard<std::mutex> lock(mutex_);
    counters_.batches_sent -= 1;
    counters_.appeals_sent -= batch.size();
    counters_.bytes_sent -= framed.size();
    throw;
  }
}

void socket_transport::stop() {
  if (stopping_.exchange(true)) return;
  socket_.shutdown();  // unblocks the reader's recv()
  if (reader_.joinable()) reader_.join();
  socket_.reset();
}

transport_counters socket_transport::counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

void socket_transport::reader_loop() {
  wire::frame_splitter splitter;
  std::uint8_t chunk[64 * 1024];
  for (;;) {
    const std::size_t n = net::read_some(socket_, chunk, sizeof(chunk));
    if (n == 0) break;  // EOF, peer reset, or local shutdown
    {
      std::lock_guard<std::mutex> lock(mutex_);
      counters_.bytes_received += n;
    }
    try {
      splitter.feed(chunk, n);
      while (std::optional<wire::frame> f = splitter.next()) {
        const std::vector<wire::response_record> records =
            wire::decode_response_batch(*f);
        std::vector<completion> done;
        done.reserve(records.size());
        for (const wire::response_record& r : records) {
          completion c;
          c.id = r.id;
          c.prediction = static_cast<std::size_t>(r.prediction);
          c.cloud_ms = r.cloud_ms;
          c.cloud_queue_ms = r.cloud_queue_ms;
          c.cloud_score_ms = r.cloud_score_ms;
          c.expired = r.status == wire::response_status::expired;
          c.overloaded = r.status == wire::response_status::overloaded;
          c.retry_after_ms = r.retry_after_ms;
          done.push_back(c);
        }
        on_complete_(std::move(done));
      }
    } catch (const util::error& e) {
      APPEAL_LOG_ERROR("socket_transport")
          << "corrupt response stream" << util::kv("link", endpoint_)
          << util::kv("error", e.what());
      break;
    }
  }
  if (!stopping_.load(std::memory_order_acquire)) {
    link_down_.store(true, std::memory_order_release);
    APPEAL_LOG_WARN("socket_transport")
        << "link closed mid-run; completing appeals locally"
        << util::kv("link", endpoint_);
    on_failure_();
  }
}

}  // namespace appeal::serve
