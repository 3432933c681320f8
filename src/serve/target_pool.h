// Hot-target cache for spexcheckd: loaded spex::Session/Target pairs
// keyed by corpus target name, LRU-evicted when the cache is full.
//
// Loading a target (parse -> lower -> constraint inference) costs orders
// of magnitude more than checking one config against it, and a fleet
// checker sees the same handful of targets over and over — so the daemon
// keeps each loaded target hot, together with the campaign snapshot cache
// living inside it (the warm-check fast path the benches measure). Memory
// is the counter-pressure: each entry owns a full Session, so the pool
// holds at most `capacity` of them and evicts the least-recently-used
// entry when a new target needs the slot.
//
// Eviction vs. in-flight requests: Acquire hands out a shared_ptr. The
// pool dropping its reference (eviction) therefore never destroys a
// Session a request is still replaying on — the entry dies when the last
// in-flight check returns its pointer.
//
// Per-target replay budgets: with `replay_budget` > 0 each entry carries
// a token bucket (capacity = budget, refill = budget tokens/second on the
// injected clock). A dynamic check consumes one token; an empty bucket is
// the per-target degradation signal — the request is served the static
// check instead, so ONE noisy target (a fleet re-checking a broken config
// in a tight loop, a runaway client) degrades only its own traffic while
// every other target keeps full dynamic service. This is fairness at the
// target granularity, beneath the server's global replay cap.
//
// Thread-safety: all members are internally synchronized. Cold loads run
// under the pool mutex, so two concurrent first-requests for different
// targets serialize their loads; acceptable because loads are rare
// (bounded by capacity x target-universe) and keeping it simple keeps it
// obviously correct. Hot acquires are a map lookup + stamp bump. Budget
// consumption takes a tiny per-entry mutex, never the pool mutex.
#ifndef SPEX_SERVE_TARGET_POOL_H_
#define SPEX_SERVE_TARGET_POOL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/api/session.h"
#include "src/support/clock.h"
#include "src/support/status.h"

namespace spex {

class TargetPool {
 public:
  // One hot target. `target` points into `session` and shares its
  // lifetime; both are immutable after load (checks mutate only the
  // campaign internals, which are themselves thread-safe).
  struct Entry {
    std::string name;
    std::unique_ptr<Session> session;
    Target* target = nullptr;
    // Token bucket for the per-target replay budget (armed when the
    // pool's replay_budget > 0). Guarded by budget_mutex; the degraded
    // counter is atomic so /statz reads it without the lock.
    std::mutex budget_mutex;
    double budget_tokens = 0;
    MonotonicTime budget_refilled{};
    std::atomic<uint64_t> budget_degraded{0};
  };

  // Per-target budget state, snapshot for /statz.
  struct BudgetState {
    std::string name;
    double tokens = 0;          // Remaining replay tokens (≤ budget).
    uint64_t degraded = 0;      // Dynamic requests this target degraded.
  };

  // `capacity` is clamped to >= 1. `session_options` seeds every entry's
  // Session (engine knobs, campaign threads). A non-empty `store_dir`
  // attaches a persistent verdict store ("<store_dir>/<name>.vst") to each
  // target on cold load, so verdicts survive evictions AND daemon
  // restarts — a re-loaded target starts warm from disk. Store-open
  // failures degrade to checking without a store; they never fail a load.
  // `replay_budget` arms the per-target token bucket (0 = unlimited);
  // `clock` drives its refill (null = steady clock — tests inject a
  // ManualClock so budget exhaustion is deterministic).
  explicit TargetPool(size_t capacity, SessionOptions session_options = {},
                      std::string store_dir = {}, size_t replay_budget = 0,
                      std::shared_ptr<Clock> clock = nullptr);

  TargetPool(const TargetPool&) = delete;
  TargetPool& operator=(const TargetPool&) = delete;

  // Find-or-load. Unknown corpus names return kNotFound (checked against
  // EvaluatedTargets() up front — corpus FindTarget aborts on unknown
  // names, and an abort is exactly what a serving boundary exists to
  // prevent); a load whose analysis fails returns kInternal with the
  // diagnostics. On success the entry is pinned by the returned
  // shared_ptr for as long as the caller holds it.
  std::shared_ptr<Entry> Acquire(const std::string& name, Status* status);

  // Consumes one replay token from `entry`'s bucket. True = the dynamic
  // replay may run; false = the target's budget is exhausted and THIS
  // request must degrade to static (the entry's degraded counter is
  // already bumped). Always true when budgets are disarmed.
  bool TryConsumeReplayToken(Entry* entry);

  size_t size() const;
  size_t capacity() const { return capacity_; }
  size_t replay_budget() const { return replay_budget_; }
  // Cumulative counters for /statz: cold loads vs. cache hits, evictions.
  size_t loads() const;
  size_t hits() const;
  size_t evictions() const;
  // Budget state of every resident target (empty when budgets disarmed).
  std::vector<BudgetState> BudgetStates() const;

 private:
  struct Slot {
    std::shared_ptr<Entry> entry;
    uint64_t last_used = 0;
  };

  MonotonicTime Now() const { return clock_ ? clock_->Now() : MonotonicNow(); }

  const size_t capacity_;
  const SessionOptions session_options_;
  const std::string store_dir_;
  const size_t replay_budget_;
  const std::shared_ptr<Clock> clock_;
  mutable std::mutex mutex_;
  uint64_t tick_ = 0;  // Monotonic use counter; drives LRU order.
  std::unordered_map<std::string, Slot> slots_;
  size_t loads_ = 0;
  size_t hits_ = 0;
  size_t evictions_ = 0;
};

}  // namespace spex

#endif  // SPEX_SERVE_TARGET_POOL_H_
