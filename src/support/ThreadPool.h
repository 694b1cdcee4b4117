//===- support/ThreadPool.h - Fixed-size worker pool -----------------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A minimal fixed-size thread pool.  The experiment layer runs
/// *independent* trials (each owning its own DataGrid) on it; a simulator
/// itself never touches a pool.
///
/// Tasks are plain closures; submit() enqueues, wait() blocks until every
/// submitted task has finished.  The pool is reusable across wait() calls
/// and joins its workers on destruction.
///
//===----------------------------------------------------------------------===//

#ifndef DGSIM_SUPPORT_THREADPOOL_H
#define DGSIM_SUPPORT_THREADPOOL_H

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dgsim {

/// Fixed worker count, FIFO queue.  Exceptions must not escape tasks (the
/// codebase is exception-free; tasks report failures through their own
/// state).
class ThreadPool {
public:
  /// Spawns \p Threads workers (at least 1).
  explicit ThreadPool(unsigned Threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Enqueues a task.  Must not be called concurrently with the pool's
  /// destructor.
  void submit(std::function<void()> Task);

  /// Blocks until the queue is empty and no task is executing.
  void wait();

private:
  void workerLoop();

  std::vector<std::thread> Workers;
  std::deque<std::function<void()>> Queue;
  std::mutex Mutex;
  std::condition_variable WorkAvailable;
  std::condition_variable AllIdle;
  size_t Running = 0;
  bool ShuttingDown = false;
};

} // namespace dgsim

#endif // DGSIM_SUPPORT_THREADPOOL_H
