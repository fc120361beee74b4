#include "obs/exporter.hpp"

#include <cstdio>
#include <fstream>

#include "util/error.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace appeal::obs {

namespace {

bool is_uds(const std::string& endpoint) {
  return endpoint.find('/') != std::string::npos;
}

std::string http_response(const std::string& status,
                          const std::string& content_type,
                          const std::string& body) {
  std::string out = "HTTP/1.1 " + status + "\r\n";
  out += "Content-Type: " + content_type + "\r\n";
  out += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  out += "Connection: close\r\n\r\n";
  out += body;
  return out;
}

}  // namespace

metrics_http_server::metrics_http_server(metrics_registry& registry,
                                         const std::string& endpoint)
    : registry_(registry) {
  if (is_uds(endpoint)) {
    listener_ = net::listen_uds(endpoint);
  } else {
    listener_ = net::listen_tcp(endpoint);
    port_ = net::local_tcp_port(listener_);
  }
  thread_ = std::thread([this] {
    util::set_thread_name("metrics-http");
    accept_loop();
  });
}

metrics_http_server::~metrics_http_server() { stop(); }

void metrics_http_server::stop() {
  if (!running_.exchange(false)) return;
  listener_.shutdown();
  if (thread_.joinable()) thread_.join();
  listener_.reset();
}

void metrics_http_server::accept_loop() {
  while (running_.load(std::memory_order_relaxed)) {
    net::fd conn = net::accept_connection(listener_);
    if (!conn.valid()) break;  // listener shut down
    try {
      serve_one(std::move(conn));
    } catch (const std::exception& e) {
      // A scraper hanging up mid-response is not our problem.
      APPEAL_LOG_DEBUG("obs") << "scrape failed" << util::kv("error", e.what());
    }
  }
}

void metrics_http_server::serve_one(net::fd conn) {
  // Read until the end of the request headers (or the buffer fills —
  // a scrape request is one short line + a few headers).
  std::string req;
  std::uint8_t buf[1024];
  while (req.size() < 8192 && req.find("\r\n\r\n") == std::string::npos) {
    const std::size_t n = net::read_some(conn, buf, sizeof(buf));
    if (n == 0) break;
    req.append(reinterpret_cast<const char*>(buf), n);
  }
  requests_.fetch_add(1, std::memory_order_relaxed);

  // Request line: METHOD SP path SP version.
  std::string path;
  const std::size_t sp1 = req.find(' ');
  if (sp1 != std::string::npos) {
    const std::size_t sp2 = req.find(' ', sp1 + 1);
    if (sp2 != std::string::npos) path = req.substr(sp1 + 1, sp2 - sp1 - 1);
  }

  std::string response;
  if (path == "/metrics") {
    response = http_response("200 OK", "text/plain; version=0.0.4",
                             registry_.render_prometheus());
  } else if (path == "/metrics.json") {
    response =
        http_response("200 OK", "application/json", registry_.render_json());
  } else {
    response = http_response("404 Not Found", "text/plain", "not found\n");
  }
  net::write_all(conn, reinterpret_cast<const std::uint8_t*>(response.data()),
                 response.size());
}

json_snapshot_writer::json_snapshot_writer(metrics_registry& registry,
                                           std::string path,
                                           std::chrono::milliseconds interval)
    : registry_(registry),
      path_(std::move(path)),
      interval_(interval.count() > 0 ? interval
                                     : std::chrono::milliseconds(1000)) {
  thread_ = std::thread([this] {
    util::set_thread_name("metrics-json");
    loop();
  });
}

json_snapshot_writer::~json_snapshot_writer() { stop(); }

void json_snapshot_writer::stop() {
  if (!running_.exchange(false)) return;
  wake_.notify_all();
  if (thread_.joinable()) thread_.join();
  flush();  // the file ends at the final state
}

void json_snapshot_writer::flush() {
  const std::string tmp = path_ + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) {
      APPEAL_LOG_WARN("obs") << "metrics snapshot write failed"
                             << util::kv("path", tmp);
      return;
    }
    out << registry_.render_json();
  }
  if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
    APPEAL_LOG_WARN("obs") << "metrics snapshot rename failed"
                           << util::kv("path", path_);
  }
}

void json_snapshot_writer::loop() {
  std::unique_lock<std::mutex> lock(wake_mutex_);
  while (running_.load(std::memory_order_relaxed)) {
    wake_.wait_for(lock, interval_,
                   [this] { return !running_.load(std::memory_order_relaxed); });
    if (!running_.load(std::memory_order_relaxed)) break;
    lock.unlock();
    flush();
    lock.lock();
  }
}

}  // namespace appeal::obs
