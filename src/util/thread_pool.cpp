#include "util/thread_pool.hpp"

#include <pthread.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>

namespace appeal::util {

void set_thread_name(std::string_view name) {
  char buf[16] = {};
  std::memcpy(buf, name.data(), std::min<std::size_t>(name.size(), 15));
  pthread_setname_np(pthread_self(), buf);
}

thread_pool::thread_pool(std::size_t threads) {
  const std::size_t workers = threads > 1 ? threads - 1 : 0;
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this, i] {
      set_thread_name("pool-" + std::to_string(i));
      worker_loop();
    });
  }
}

thread_pool::~thread_pool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void thread_pool::parallel_for(std::size_t blocks,
                               const std::function<void(std::size_t)>& fn) {
  if (blocks == 0) return;
  if (workers_.empty() || blocks == 1) {
    for (std::size_t b = 0; b < blocks; ++b) fn(b);
    return;
  }
  std::unique_lock<std::mutex> lock(mutex_);
  job_ = &fn;
  job_blocks_ = blocks;
  next_block_ = 0;
  blocks_done_ = 0;
  ++job_id_;
  wake_.notify_all();
  // The caller claims blocks like any worker, then waits for stragglers.
  while (next_block_ < job_blocks_) {
    const std::size_t b = next_block_++;
    lock.unlock();
    fn(b);
    lock.lock();
    ++blocks_done_;
  }
  done_.wait(lock, [&] { return blocks_done_ == job_blocks_; });
  job_ = nullptr;
}

void thread_pool::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  std::uint64_t seen = 0;
  for (;;) {
    wake_.wait(lock,
               [&] { return stop_ || (job_ != nullptr && job_id_ != seen); });
    if (stop_) return;
    seen = job_id_;
    const std::function<void(std::size_t)>* fn = job_;
    while (next_block_ < job_blocks_) {
      const std::size_t b = next_block_++;
      lock.unlock();
      (*fn)(b);
      lock.lock();
      if (++blocks_done_ == job_blocks_) done_.notify_all();
    }
  }
}

namespace {

std::size_t& shared_pool_size() {
  static std::size_t size = 1;
  return size;
}

std::unique_ptr<thread_pool>& shared_pool_slot() {
  static std::unique_ptr<thread_pool> pool;
  return pool;
}

}  // namespace

thread_pool& thread_pool::shared() {
  std::unique_ptr<thread_pool>& slot = shared_pool_slot();
  if (slot == nullptr) {
    slot = std::make_unique<thread_pool>(shared_pool_size());
  }
  return *slot;
}

void thread_pool::set_shared_size(std::size_t threads) {
  shared_pool_size() = std::max<std::size_t>(1, threads);
  shared_pool_slot() = std::make_unique<thread_pool>(shared_pool_size());
}

}  // namespace appeal::util
