// Pipeline-node framework: the per-stage ledgers of the serving engine.
//
// A pipeline_node is one stage of the serving dataflow. The engine owns
// the stages as members and drives them directly: only edge_infer runs
// threads of its own, and every other stage runs on its caller's thread
// (the submitting client for ingress, the edge worker for appeal_decide
// and cloud_appeal). What the base class adds is the books.
//
// Request conservation is a per-node ledger: every item entering a node
// counts `in`, every item forwarded downstream counts `out`, and every
// request that LEAVES the graph at this node (its promise fulfilled)
// counts `egress`. Once drained, in == out + egress at every node, each
// node's out equals the next node's in, and the sum of all egress equals
// the engine's submitted count. The ledger is mirrored into the obs
// metrics registry (`appeal_node_in_total` / `appeal_node_out_total` /
// `appeal_node_egress_total`, labeled {deployment=...,node=...}) so the
// loopback CI job can assert conservation on a live scrape — a stranded
// item shows up as a node whose books do not balance.
//
// Counters count REQUESTS, not batches: a node whose items are batches
// bumps the ledger by the number of member requests, so the ledger is
// comparable across nodes that batch and nodes that do not.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "obs/metrics.hpp"

namespace appeal::serve::pipeline {

/// Point-in-time view of one node's conservation ledger.
struct node_stats {
  std::string name;
  std::uint64_t in = 0;      // requests that entered the node
  std::uint64_t out = 0;     // requests forwarded downstream
  std::uint64_t egress = 0;  // requests completed (promise fulfilled) here
};

class pipeline_node {
 public:
  /// `deployment` labels this node's registry instruments; empty =
  /// unlabeled (standalone engines and tests).
  pipeline_node(std::string name, const std::string& deployment);

  pipeline_node(const pipeline_node&) = delete;
  pipeline_node& operator=(const pipeline_node&) = delete;

  const std::string& name() const { return name_; }

  std::uint64_t in_count() const {
    return in_.load(std::memory_order_relaxed);
  }
  std::uint64_t out_count() const {
    return out_.load(std::memory_order_relaxed);
  }
  std::uint64_t egress_count() const {
    return egress_.load(std::memory_order_relaxed);
  }

  node_stats stats() const {
    return {name_, in_count(), out_count(), egress_count()};
  }

 protected:
  // The ledger. Called from whichever thread runs the stage; both the
  // local atomic (the per-instance truth tests read) and the registry
  // mirror are wait-free.
  void count_in(std::uint64_t n = 1) {
    in_.fetch_add(n, std::memory_order_relaxed);
    metric_in_.add(n);
  }
  void count_out(std::uint64_t n = 1) {
    out_.fetch_add(n, std::memory_order_relaxed);
    metric_out_.add(n);
  }
  void count_egress(std::uint64_t n = 1) {
    egress_.fetch_add(n, std::memory_order_relaxed);
    metric_egress_.add(n);
  }

 private:
  std::string name_;
  std::atomic<std::uint64_t> in_{0};
  std::atomic<std::uint64_t> out_{0};
  std::atomic<std::uint64_t> egress_{0};
  obs::counter& metric_in_;
  obs::counter& metric_out_;
  obs::counter& metric_egress_;
};

}  // namespace appeal::serve::pipeline
