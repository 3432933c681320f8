#include "src/support/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>

namespace spex {

// The pool whose WorkerLoop runs on this thread (null off-pool).
static thread_local const ThreadPool* current_pool = nullptr;

ThreadPool::ThreadPool(size_t num_threads) {
  size_t count = std::max<size_t>(1, num_threads);
  workers_.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutting_down_ = true;
  }
  task_ready_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::Enqueue(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    tasks_.push(std::move(task));
  }
  task_ready_.notify_one();
}

void ThreadPool::WorkerLoop() {
  current_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      task_ready_.wait(lock, [this] { return shutting_down_ || !tasks_.empty(); });
      if (tasks_.empty()) {
        return;  // Shutdown with a drained queue.
      }
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ThreadPool::TaskGroup::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++pending_;
  }
  pool_.Enqueue([this, task = std::move(task)]() mutable {
    task();
    task = nullptr;  // Captures die while Wait() still blocks.
    // Notify under the lock: Wait() cannot return (and the group cannot be
    // destroyed) until this task has released it.
    std::lock_guard<std::mutex> lock(mutex_);
    if (--pending_ == 0) {
      done_.notify_all();
    }
  });
}

void ThreadPool::TaskGroup::Wait() {
  if (current_pool == &pool_) {
    std::fputs("spex: a ThreadPool task waited on a TaskGroup of its own pool\n", stderr);
    std::abort();
  }
  std::unique_lock<std::mutex> lock(mutex_);
  done_.wait(lock, [this] { return pending_ == 0; });
}

size_t ThreadPool::ResolveThreadCount(size_t requested) {
  if (requested != 0) {
    return requested;
  }
  unsigned hardware = std::thread::hardware_concurrency();
  return hardware == 0 ? 1 : hardware;
}

void ForEachIndex(ThreadPool* pool, size_t count, size_t workers,
                  const std::function<void(size_t)>& fn) {
  std::atomic<size_t> cursor{0};
  auto claim = [&] {
    for (size_t i = cursor.fetch_add(1, std::memory_order_relaxed); i < count;
         i = cursor.fetch_add(1, std::memory_order_relaxed)) {
      fn(i);
    }
  };
  const size_t claimers = pool == nullptr ? 1 : std::min(workers, count);
  if (claimers <= 1) {
    claim();
    return;
  }
  ThreadPool::TaskGroup group(*pool);
  for (size_t k = 1; k < claimers; ++k) {
    group.Submit(claim);  // By reference: Wait() below outlives every claim.
  }
  claim();
  group.Wait();
}

}  // namespace spex
