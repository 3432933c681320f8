// spexcheckd's serving core: config checking as a fault-contained service.
//
// CheckServer turns the embeddable spex::Session façade into a network
// daemon with one non-negotiable invariant: NO REQUEST EVER TAKES THE
// PROCESS DOWN, OR HOLDS IT HOSTAGE. Every layer enforces a piece of it:
//
//   event loop   One front-end thread owns an epoll set of nonblocking
//                sockets: it accepts, reads requests incrementally
//                (HttpParser state machine per connection), tracks
//                keep-alive idle time on a deadline heap, and hands only
//                COMPLETE, well-framed requests to the workers. A
//                slow-loris client dribbling bytes, or a kept-alive
//                connection parked between requests, costs one connection
//                slot and a heap entry — NEVER a worker thread. Workers
//                block only on checking work (and a bounded response
//                write), not on client sockets.
//   admission    Two bounds, answered from the front end: a connection
//                cap (max_connections — beyond it new arrivals are shed
//                with 503) and a bounded request queue between the event
//                loop and the worker pool (full queue => the parsed
//                request is shed with 503 + Retry-After). The cost of an
//                overload is one refused client, not an unbounded
//                backlog.
//   deadlines    Every request carries a CancelToken armed with its
//                deadline (client-supplied ?deadline_ms, capped default).
//                The token is polled inside the interpreter's step loop,
//                so a pathological config is cut off mid-replay and
//                reported as `deadline_exceeded` — a verdict about the
//                request's budget, never confused with the paper's
//                crash/hang verdict about the target. Socket-side
//                deadlines (read_timeout for mid-request stalls,
//                keepalive_idle_timeout for parked reuse) live on the
//                event loop's deadline heap against an injectable Clock,
//                so tests drive expiry deterministically.
//   degradation  Dynamic replays are capped globally
//                (max_inflight_replays) and per target
//                (per_target_replay_budget, a token bucket per pool
//                entry). At either cap a dynamic request is not shed: it
//                degrades to the static-only check (milliseconds, no
//                interpreter) and the response says so — partial answer
//                over no answer. The per-target bucket means one noisy
//                target degrades only its own traffic.
//   containment  Malformed requests, unknown targets, oversized bodies,
//                replay faults: each maps to a structured per-request
//                spex::Status (and its HTTP mapping). Framing errors are
//                answered by the front end before a worker ever sees the
//                connection. Batches keep their per-config containment
//                semantics — a poisoned config errors its own report line
//                only.
//   drain        Shutdown() (SIGTERM in the daemon) stops accepting new
//                connections, closes idle and mid-read connections (their
//                requests were never admitted), and lets queued +
//                in-flight requests finish under drain_deadline; past it,
//                the drain token that parents every request token fires —
//                cancelling stragglers cooperatively. No admitted request
//                is ever killed mid-write.
//
// Wire protocol (HTTP/1.1, close-by-default with opt-in keep-alive, JSONL
// bodies in the schema spexcheck prints: src/api/report_json.h). A client
// sending "Connection: keep-alive" may reuse its connection for sequential
// requests, bounded by keepalive_max_requests and keepalive_idle_timeout —
// reuse amortizes the TCP handshake for fleet drivers, and an idle reused
// connection costs a connection slot on the event loop, not a worker:
//
//   GET  /healthz                      "ok" (503 "draining" during drain)
//   GET  /statz                        JSON counters (admission, pool, ...)
//   POST /check?target=NAME[&...]      body = config text; response = one
//                                      JSON line per violation + a summary
//                                      line.
//   POST /batch?target=NAME[&...]      body = configs framed by "=== name"
//                                      lines; response = one report line
//                                      per config (violations inside) + a
//                                      batch summary line.
//
//   Query knobs: mode=static|dynamic (default dynamic), deadline_ms=N
//   (request budget; 0 = none, capped at the server's default),
//   replay_deadline_ms=N (per-suspect budget), name=... (report label for
//   /check).
#ifndef SPEX_SERVE_SERVER_H_
#define SPEX_SERVE_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/serve/fault.h"
#include "src/serve/target_pool.h"
#include "src/support/bounded_queue.h"
#include "src/support/cancellation.h"
#include "src/support/clock.h"
#include "src/support/deadline_heap.h"
#include "src/support/status.h"

namespace spex {

struct HttpRequest;
class HttpParser;

struct ServerOptions {
  // 0 = ephemeral; the bound port is CheckServer::port() after Start().
  // The daemon listens on 127.0.0.1 only — fronting proxies own the
  // external surface.
  uint16_t port = 0;
  size_t num_workers = 4;
  // Open connections the event loop will hold at once (reading, queued,
  // being served, or idle keep-alive). Beyond this, new arrivals are shed
  // with 503 from the front end. Each slot costs one fd + one HttpParser
  // (≤ header cap + body cap bytes) — connection state is cheap; worker
  // time is not, which is exactly why the two are bounded separately.
  size_t max_connections = 256;
  // Admission: parsed requests pending between the event loop and the
  // workers. Full => 503 + Retry-After, written from the front end.
  size_t queue_capacity = 64;
  // Dynamic replays running at once; at the cap a dynamic request
  // degrades to static instead of queueing behind slow replays.
  size_t max_inflight_replays = 2;
  // Per-target replay budget: a token bucket per hot target (capacity =
  // budget, refill = budget/second). A dynamic request on a target whose
  // bucket is empty degrades to static — one noisy target cannot consume
  // every replay slot. 0 = unlimited (disarmed).
  size_t per_target_replay_budget = 0;
  size_t max_body_bytes = 1 << 20;
  // Per-request budget when the client sends none; also the cap on what a
  // client may ask for (a client must not buy unbounded worker time).
  // Zero disables deadlines entirely (trusted-embedder mode).
  std::chrono::milliseconds default_deadline{2000};
  // How long a connection may take to deliver one complete request,
  // measured from its first byte — the slow-loris bound, enforced by the
  // event loop's deadline heap (expired mid-request => 408).
  std::chrono::milliseconds read_timeout{2000};
  // How long Shutdown() lets in-flight requests finish before the drain
  // token cancels them cooperatively.
  std::chrono::milliseconds drain_deadline{5000};
  // Hot targets kept loaded (LRU beyond this).
  size_t target_capacity = 4;
  // HTTP/1.1 keep-alive ("Connection: keep-alive" from the client): how
  // many requests one connection may carry before the server closes it
  // (the fairness cap — a chatty client cannot own a connection slot
  // forever), and how long an idle reused connection is held open between
  // requests. Connections stay close-by-default for clients that do not
  // opt in.
  size_t keepalive_max_requests = 100;
  std::chrono::milliseconds keepalive_idle_timeout{2000};
  // Directory for per-target persistent verdict stores ("" = disabled).
  // Each target loaded by the pool gets "<store_dir>/<name>.vst"; re-checks
  // of unchanged configs are then served from disk without replaying.
  std::string store_dir;
  // Time source for the socket-side deadlines (read timeout, keep-alive
  // idle, budget refill). Null = steady clock. Tests install a
  // ManualClock so "the idle timeout elapsed" is a deterministic
  // statement, not a sleep.
  std::shared_ptr<Clock> clock;
  SessionOptions session;
  FaultInjector faults;
};

// Monotonic counters + point-in-time gauges, snapshot via
// CheckServer::stats(). Every terminal outcome of a request increments
// exactly one of the outcome counters.
struct ServerStats {
  uint64_t accepted = 0;
  uint64_t served_ok = 0;
  uint64_t shed = 0;               // 503 from admission (connection cap / queue full / draining).
  uint64_t degraded = 0;           // Dynamic request served static at a replay cap or budget.
  uint64_t budget_degraded = 0;    // Subset of `degraded` caused by a per-target budget.
  uint64_t invalid_requests = 0;   // 400s: framing, validation, oversize.
  uint64_t not_found = 0;          // Unknown route or target.
  uint64_t deadline_exceeded = 0;  // Request budget fired mid-check.
  uint64_t cancelled = 0;          // Explicit cancellation (drain, faults).
  uint64_t read_timeouts = 0;      // Slow-loris cutoffs (408 from the event loop).
  uint64_t internal_errors = 0;    // Contained exceptions; 500s.
  uint64_t batch_configs = 0;      // Configs checked via /batch.
  uint64_t keepalive_reuses = 0;   // Requests served on a reused connection.
  uint64_t store_hits = 0;         // Unique executions served from the verdict store.
  uint64_t partial_reads = 0;      // Read events that ended with a request still incomplete.
  uint64_t client_aborts = 0;      // Peer closed mid-request (partial/mid-body disconnect).
  // Gauges (state of the event loop at snapshot time).
  uint64_t open_connections = 0;   // Connections the server currently holds.
  uint64_t idle_keepalive = 0;     // Subset parked between keep-alive requests.
};

class CheckServer {
 public:
  explicit CheckServer(ServerOptions options = {});
  // Shutdown() + Join() if still running: destroying the server is always
  // a graceful drain.
  ~CheckServer();

  CheckServer(const CheckServer&) = delete;
  CheckServer& operator=(const CheckServer&) = delete;

  // Binds, listens and spawns the event-loop + worker threads.
  // kUnavailable when the port cannot be bound.
  Status Start();
  uint16_t port() const { return port_; }

  // Graceful shutdown: idempotent, callable from any thread (not from a
  // signal handler — the daemon's handler sets a flag its main loop
  // polls). Returns immediately; Join() waits for the drain.
  void Shutdown();
  void Join();
  bool draining() const { return draining_.load(std::memory_order_acquire); }

  ServerStats stats() const;
  // The pool, for tests asserting hit/eviction/budget behavior.
  const TargetPool& targets() const { return *targets_; }

 private:
  // Per-connection state machine, owned by exactly one thread at a time:
  // the event loop while reading / idle, a worker while a parsed request
  // is being served. Handoffs go through mutex-guarded queues.
  struct Conn {
    ~Conn();
    int fd = -1;
    uint64_t id = 0;       // Distinguishes reused fd numbers in the heap.
    std::unique_ptr<HttpParser> parser;
    size_t served = 0;     // Completed requests on this connection.
    bool idle = false;     // Parked between keep-alive requests (0 bytes in).
    MonotonicTime deadline{};  // Currently armed read/idle deadline.
  };
  // Lazy-cancelled deadline-heap entry; validated against the connection's
  // live state when popped.
  struct DeadlineEntry {
    int fd = -1;
    uint64_t conn_id = 0;
    MonotonicTime armed{};
  };

  MonotonicTime Now() const;
  void Wake();  // Nudges the event loop (eventfd) from any thread.

  // --- Event-loop thread ---
  void EventLoop();
  void HandleAccept();
  void HandleReadable(int fd);
  // Arms `deadline` on the heap and the connection.
  void ArmConnDeadline(Conn* conn, std::chrono::milliseconds timeout);
  void ExpireDeadlines(MonotonicTime now);
  // Pulls connections workers handed back for keep-alive reuse.
  void AdoptReturnedConns();
  // Parsed request complete: off epoll, into the worker queue (or shed).
  void DispatchConn(int fd);
  // Answers `status` from the front end (zero-wait write) and closes.
  void ShedConn(int fd, const Status& status);
  // Removes from epoll + conns_ and destroys (front-end paths).
  void CloseConn(int fd);
  void DestroyConn(std::unique_ptr<Conn> conn);

  // --- Worker threads ---
  void WorkerLoop();
  void ServeConn(std::unique_ptr<Conn> conn);
  // Routes one parsed request. `keep_alive` is the server's decision for
  // this response; the return says whether the connection stays open
  // (every error path closes).
  bool HandleRequest(int fd, const HttpRequest& request, bool keep_alive);
  // Routes /check and /batch. `batch` selects the body framing. Returns
  // whether the connection stays open.
  bool HandleCheck(int fd, const std::string& query, const std::string& body, bool batch,
                   bool keep_alive, TargetPool::Entry* entry_hint = nullptr);
  void WriteError(int fd, const Status& status);

  ServerOptions options_;
  std::unique_ptr<TargetPool> targets_;
  std::unique_ptr<BoundedQueue<std::unique_ptr<Conn>>> queue_;
  // Parent of every request token; fired (with the drain deadline) by
  // Shutdown so stragglers cancel cooperatively.
  CancelToken drain_token_;
  std::atomic<bool> draining_{false};
  std::atomic<size_t> inflight_replays_{0};

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd: shutdown, returned conns, manual-clock advance.
  uint16_t port_ = 0;
  std::thread event_thread_;
  std::vector<std::thread> workers_;
  bool started_ = false;

  // Event-loop-private state (no locks: one owner thread).
  std::unordered_map<int, std::unique_ptr<Conn>> conns_;
  DeadlineHeap<DeadlineEntry> deadlines_;
  uint64_t next_conn_id_ = 0;

  // Worker -> event loop handback of kept-alive connections.
  std::mutex returned_mutex_;
  std::vector<std::unique_ptr<Conn>> returned_;

  // Counters (relaxed; read as a snapshot).
  std::atomic<uint64_t> stat_accepted_{0};
  std::atomic<uint64_t> stat_served_ok_{0};
  std::atomic<uint64_t> stat_shed_{0};
  std::atomic<uint64_t> stat_degraded_{0};
  std::atomic<uint64_t> stat_budget_degraded_{0};
  std::atomic<uint64_t> stat_invalid_{0};
  std::atomic<uint64_t> stat_not_found_{0};
  std::atomic<uint64_t> stat_deadline_{0};
  std::atomic<uint64_t> stat_cancelled_{0};
  std::atomic<uint64_t> stat_read_timeouts_{0};
  std::atomic<uint64_t> stat_internal_{0};
  std::atomic<uint64_t> stat_batch_configs_{0};
  std::atomic<uint64_t> stat_keepalive_reuses_{0};
  std::atomic<uint64_t> stat_store_hits_{0};
  std::atomic<uint64_t> stat_partial_reads_{0};
  std::atomic<uint64_t> stat_client_aborts_{0};
  std::atomic<uint64_t> gauge_open_connections_{0};
  std::atomic<uint64_t> gauge_idle_keepalive_{0};
};

}  // namespace spex

#endif  // SPEX_SERVE_SERVER_H_
