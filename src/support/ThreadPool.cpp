//===- support/ThreadPool.cpp ------------------------------------------------===//
//
// Part of dgsim.  SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include <cassert>

using namespace dgsim;

ThreadPool::ThreadPool(unsigned Threads) {
  if (Threads == 0)
    Threads = 1;
  Workers.reserve(Threads);
  for (unsigned I = 0; I < Threads; ++I)
    Workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    ShuttingDown = true;
  }
  WorkAvailable.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

void ThreadPool::submit(std::function<void()> Task) {
  assert(Task && "cannot submit an empty task");
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    assert(!ShuttingDown && "submit() after shutdown began");
    Queue.push_back(std::move(Task));
  }
  WorkAvailable.notify_one();
}

void ThreadPool::wait() {
  std::unique_lock<std::mutex> Lock(Mutex);
  AllIdle.wait(Lock, [this] { return Queue.empty() && Running == 0; });
}

void ThreadPool::workerLoop() {
  std::unique_lock<std::mutex> Lock(Mutex);
  while (true) {
    WorkAvailable.wait(Lock,
                       [this] { return ShuttingDown || !Queue.empty(); });
    if (Queue.empty()) {
      // ShuttingDown and drained: exit.  Pending tasks still run to
      // completion before destruction finishes.
      return;
    }
    std::function<void()> Task = std::move(Queue.front());
    Queue.pop_front();
    ++Running;
    Lock.unlock();
    Task();
    Lock.lock();
    --Running;
    if (Queue.empty() && Running == 0)
      AllIdle.notify_all();
  }
}
