// Small reusable worker pool for data-parallel kernels.
//
// The pool runs index-based jobs: parallel_for(blocks, fn) invokes
// fn(block) for every block in [0, blocks), the caller thread included.
// Blocks self-schedule over an atomic cursor, so any thread may run any
// block — callers must make blocks independent (disjoint outputs). Because
// each block's computation is self-contained, results are bit-identical
// for every pool size, which is what lets the GEMM keep its determinism
// guarantee while scaling across cores.
//
// Workers park on a condition variable between jobs; a pool with
// `threads <= 1` runs everything inline on the caller with zero
// synchronization cost.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string_view>
#include <thread>
#include <vector>

namespace appeal::util {

/// Names the calling thread, as /proc/<pid>/task/<tid>/comm, top and
/// debuggers show it. Linux keeps 15 characters; a longer name is cut.
/// Every long-lived serving thread names itself by its role.
void set_thread_name(std::string_view name);

class thread_pool {
 public:
  /// Creates `threads - 1` worker threads (the caller participates in
  /// every job, so `threads` is the total parallelism).
  explicit thread_pool(std::size_t threads);
  ~thread_pool();

  thread_pool(const thread_pool&) = delete;
  thread_pool& operator=(const thread_pool&) = delete;

  /// Total parallelism (workers + the calling thread).
  std::size_t size() const { return workers_.size() + 1; }

  /// Runs fn(block) for every block in [0, blocks). Blocks are claimed
  /// dynamically; the call returns when all blocks have finished. Not
  /// reentrant: fn must not call parallel_for on the same pool.
  void parallel_for(std::size_t blocks,
                    const std::function<void(std::size_t)>& fn);

  /// Process-wide pool for kernel-level parallelism, sized on first use
  /// from set_shared_size() (default: 1, i.e. inline execution — serving
  /// already parallelizes across engine workers, so intra-kernel threads
  /// are opt-in).
  static thread_pool& shared();

  /// Resizes the shared pool (destroys and rebuilds it). Not thread-safe
  /// against concurrent shared() users — call at startup / from tests.
  static void set_shared_size(std::size_t threads);

 private:
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable wake_;
  std::condition_variable done_;
  std::vector<std::thread> workers_;

  // Current job, guarded by mutex_ (claimed blocks use next_block_).
  const std::function<void(std::size_t)>* job_ = nullptr;
  std::size_t job_blocks_ = 0;
  std::size_t next_block_ = 0;
  std::size_t blocks_done_ = 0;
  std::uint64_t job_id_ = 0;
  bool stop_ = false;
};

}  // namespace appeal::util
