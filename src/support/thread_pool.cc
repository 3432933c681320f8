#include "src/support/thread_pool.h"

#include <algorithm>
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

void ThreadPool::ShardRange(size_t count, size_t workers,
                            const std::function<void(size_t, size_t)>& fn) {
  if (count == 0) {
    return;
  }
  workers = std::min(workers, count);
  if (workers <= 1) {
    fn(0, count);
    return;
  }
  size_t chunk = (count + workers - 1) / workers;
  TaskGroup group(*this);
  for (size_t begin = 0; begin < count; begin += chunk) {
    size_t end = std::min(begin + chunk, count);
    // By reference: the group's Wait() keeps fn alive past every shard.
    group.Submit([&fn, begin, end] { fn(begin, end); });
  }
  group.Wait();
}

size_t ThreadPool::ResolveThreadCount(size_t requested) {
  if (requested != 0) {
    return requested;
  }
  unsigned hardware = std::thread::hardware_concurrency();
  return hardware == 0 ? 1 : hardware;
}

}  // namespace spex
