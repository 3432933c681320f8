// Bounded multi-producer/multi-consumer queue — the admission-control
// primitive behind spexcheckd.
//
// The existing ThreadPool is a fan-out/join device: unbounded queue, each
// caller joins its own task group. A service needs the opposite shape:
// producers (the accept loop) must *fail fast* when consumers (request
// workers) fall behind, because the alternative is an unbounded backlog of
// sockets whose clients gave up long ago. TryPush is therefore non-blocking — a full
// queue is the signal to shed with 503 + Retry-After — while Pop blocks,
// because an idle worker has nothing better to do.
//
// Close() is the drain half of graceful shutdown: producers are refused
// from that point on, consumers keep popping until the queue is empty,
// then Pop returns nullopt and workers exit their loops.
#ifndef SPEX_SUPPORT_BOUNDED_QUEUE_H_
#define SPEX_SUPPORT_BOUNDED_QUEUE_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace spex {

template <typename T>
class BoundedQueue {
 public:
  // Capacity is clamped to at least 1; a zero-capacity queue would turn
  // every TryPush into a shed.
  explicit BoundedQueue(size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  // Non-blocking: false when the queue is full or closed. Full-queue
  // rejection is the admission-control signal, not an error.
  bool TryPush(T item) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (closed_ || items_.size() >= capacity_) {
        return false;
      }
      items_.push_back(std::move(item));
    }
    ready_.notify_one();
    return true;
  }

  // Blocks until an item arrives or the queue is closed *and* drained;
  // nullopt means "no more work ever" (the worker-exit signal).
  std::optional<T> Pop() {
    std::unique_lock<std::mutex> lock(mutex_);
    ready_.wait(lock, [&] { return closed_ || !items_.empty(); });
    if (items_.empty()) {
      return std::nullopt;
    }
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  // Refuse new pushes; wake every blocked Pop. Items already queued are
  // still handed out (drain semantics).
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      closed_ = true;
    }
    ready_.notify_all();
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return items_.size();
  }
  size_t capacity() const { return capacity_; }
  bool closed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return closed_;
  }

 private:
  const size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable ready_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace spex

#endif  // SPEX_SUPPORT_BOUNDED_QUEUE_H_
