// Fixed-size worker pool for fan-out/join parallelism.
//
// SPEX's parallel workloads (injection campaigns, fleet batches, corpus
// runs) are embarrassingly parallel over pre-sized result slots, so this is
// deliberately a plain shared-queue pool: no work stealing, no futures.
// They all fan out through ForEachIndex. Determinism is the caller's job —
// write results into per-index slots, never append. Completion is per
// call: every task belongs to a TaskGroup, whose Wait() joins only that
// group's tasks, so clients sharing one pool share its workers but never
// wait for each other's work.
//
// A pool task must never wait on a group of its own pool: it would hold a
// worker while waiting for workers. TaskGroup::Wait() aborts if it does.
#ifndef SPEX_SUPPORT_THREAD_POOL_H_
#define SPEX_SUPPORT_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace spex {

class ThreadPool {
 public:
  // Spawns `num_threads` workers (clamped to at least 1).
  explicit ThreadPool(size_t num_threads);
  // Runs every queued task, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t size() const { return workers_.size(); }

  // The completion handle of one fan-out. Tasks must not throw. The
  // destructor waits, so tasks may reference the caller's stack.
  class TaskGroup {
   public:
    explicit TaskGroup(ThreadPool& pool) : pool_(pool) {}
    ~TaskGroup() { Wait(); }

    TaskGroup(const TaskGroup&) = delete;
    TaskGroup& operator=(const TaskGroup&) = delete;

    void Submit(std::function<void()> task);
    // Blocks until every task submitted through this group has finished.
    // Aborts when called from a task running on the same pool.
    void Wait();

   private:
    ThreadPool& pool_;
    std::mutex mutex_;
    std::condition_variable done_;
    size_t pending_ = 0;
  };

  // Maps a user-facing thread-count knob to a worker count:
  // 0 = hardware concurrency (at least 1), otherwise the value itself.
  static size_t ResolveThreadCount(size_t requested);

 private:
  void Enqueue(std::function<void()> task);
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable task_ready_;
  bool shutting_down_ = false;
};

// Calls fn(i) exactly once for every i in [0, count). Up to
// min(workers, count) claimers pull indices from one shared cursor: the
// calling thread plus up to `workers - 1` tasks of a private TaskGroup on
// `pool`, so an expensive index never holds up the cheap ones behind it.
// With a null pool or workers <= 1 the calling thread runs every index in
// order and nothing waits, which is legal anywhere; otherwise the call
// must not come from a task of `pool`. fn must not throw.
void ForEachIndex(ThreadPool* pool, size_t count, size_t workers,
                  const std::function<void(size_t)>& fn);

// Maps a user-facing `int num_threads` knob to ForEachIndex's `workers`:
// 1 (or negative) = serial, 0 = the full width of `pool`, N = N claimers.
// Without a pool every value means serial.
size_t ClaimerCount(int num_threads, const ThreadPool* pool);

}  // namespace spex

#endif  // SPEX_SUPPORT_THREAD_POOL_H_
