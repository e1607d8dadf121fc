// Work-queue thread pool.
//
// The explorer's determinism story does NOT depend on scheduling: work is
// indexed, every index derives its own Rng stream (Rng::stream), and
// results are emitted in index order — so the pool is free to hand work
// to whichever worker asks first. Exceptions thrown by tasks are captured
// and the first one is rethrown to the caller of wait().
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace hvc {

class ThreadPool {
 public:
  /// Spawns `threads` workers (at least 1).
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues one task. Must not be called after shutdown began.
  void submit(std::function<void()> task);

  /// Blocks until the queue is empty and all workers are idle, then
  /// rethrows the first exception any task threw (clearing it).
  void wait();

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// std::thread::hardware_concurrency with a floor of 1.
  [[nodiscard]] static std::size_t hardware_threads() noexcept;

 private:
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable idle_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  std::size_t active_ = 0;
  bool stopping_ = false;
  std::exception_ptr first_error_;
};

}  // namespace hvc
