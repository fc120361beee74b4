// The multi-tenant serving front door.
//
// One server hosts many named deployments — a model zoo of (little, big)
// pairs — behind a single submit() call:
//
//   server srv;
//   srv.register_deployment("vision", cfg, edge_factory, cloud_factory);
//   auto fut = srv.submit({.model = "vision", .key = k, ...});
//
// The inference_request names its deployment, carries a priority class
// (interactive / batch) and an optional relative deadline; the
// deployment's one engine queues it for its edge workers, and its
// admission policy decides what a full queue means (block, shed, or
// degrade to an edge-only answer). Statistics aggregate per deployment;
// stats() reports every deployment's snapshot for one scrape.
//
// Registration is expected at startup, before traffic; submit() takes a
// shared (read) lock only, so concurrent submitters never serialize on
// the registry.
#pragma once

#include <memory>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

#include "serve/deployment.hpp"

namespace appeal::serve {

class server {
 public:
  server() = default;
  ~server();

  server(const server&) = delete;
  server& operator=(const server&) = delete;

  /// Registers a named deployment and starts its engine. Throws
  /// util::error on a duplicate name or after shutdown().
  deployment& register_deployment(const std::string& name,
                                  const deployment_config& cfg,
                                  edge_backend_factory edge,
                                  cloud_backend_factory cloud);

  /// Routes `req` to the deployment named by `req.model`. Throws
  /// util::error when no such deployment exists.
  std::future<response> submit(inference_request req);

  /// Looks up a deployment (nullptr when absent).
  deployment* find(const std::string& name);

  /// Looks up a deployment; throws util::error when absent.
  deployment& at(const std::string& name);

  std::size_t num_deployments() const;
  std::vector<std::string> deployment_names() const;

  /// One (name, per-deployment snapshot) pair per registered deployment.
  std::vector<std::pair<std::string, stats_snapshot>> stats() const;

  /// Human-readable multi-deployment stats report.
  std::string render_stats() const;

  /// Blocks until every deployment has drained.
  void drain();

  /// Stops every deployment; further register/submit calls throw.
  /// Idempotent; also invoked by the destructor.
  void shutdown();

 private:
  mutable std::shared_mutex mutex_;
  std::vector<std::pair<std::string, std::unique_ptr<deployment>>>
      deployments_;
  bool shut_down_ = false;
};

}  // namespace appeal::serve
