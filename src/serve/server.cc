#include "src/serve/server.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <optional>
#include <utility>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include "src/api/batch_check.h"
#include "src/api/config_set.h"
#include "src/api/report_json.h"
#include "src/serve/http.h"
#include "src/support/strings.h"

namespace spex {

namespace {

// RAII slot in the dynamic-replay cap. Not acquiring is not an error —
// it is the degradation signal.
class ReplayGate {
 public:
  ReplayGate(std::atomic<size_t>* inflight, size_t max) : inflight_(inflight) {
    size_t current = inflight_->fetch_add(1, std::memory_order_acq_rel);
    if (current >= max) {
      inflight_->fetch_sub(1, std::memory_order_acq_rel);
      inflight_ = nullptr;
    }
  }
  ~ReplayGate() {
    if (inflight_ != nullptr) {
      inflight_->fetch_sub(1, std::memory_order_acq_rel);
    }
  }
  ReplayGate(const ReplayGate&) = delete;
  ReplayGate& operator=(const ReplayGate&) = delete;
  bool acquired() const { return inflight_ != nullptr; }

 private:
  std::atomic<size_t>* inflight_;
};

void SetNonBlocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) {
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  }
}

std::string StatusJson(const Status& status) {
  std::string json = R"({"type":"error")";
  AppendJsonString("status", StatusCodeName(status.code()), &json);
  AppendJsonString("message", status.message(), &json);
  return json + "}\n";
}

// "=== <name>" framing for /batch bodies. Content before the first frame
// marker must be blank — anything else is a malformed batch, reported as
// such rather than silently dropped.
Status ParseBatchBody(const std::string& body, std::vector<ConfigInput>* out) {
  ConfigInput* current = nullptr;
  uint32_t line_number = 0;
  for (const std::string& line : SplitString(body, '\n')) {
    ++line_number;
    if (line.rfind("=== ", 0) == 0) {
      std::string name(TrimWhitespace(std::string_view(line).substr(4)));
      if (name.empty()) {
        return Status::InvalidArgument("line " + std::to_string(line_number) +
                                       ": '===' frame with an empty config name");
      }
      out->push_back(ConfigInput{std::move(name), std::string()});
      current = &out->back();
      continue;
    }
    if (current == nullptr) {
      if (!TrimWhitespace(line).empty()) {
        return Status::InvalidArgument("line " + std::to_string(line_number) +
                                       ": content before the first '=== <name>' frame");
      }
      continue;
    }
    current->text += line;
    current->text += '\n';
  }
  if (out->empty()) {
    return Status::InvalidArgument("batch body contains no '=== <name>' frames");
  }
  return Status::Ok();
}

// The request's effective budget: the client may ask for less than the
// server default, never for more (worker time is the server's to ration).
// A server default of zero disables deadlines (trusted-embedder mode).
std::chrono::milliseconds EffectiveDeadline(const std::string& query,
                                            std::chrono::milliseconds server_default) {
  auto requested = ParseInt64(QueryParam(query, "deadline_ms"));
  std::chrono::milliseconds asked{requested.has_value() && *requested > 0 ? *requested : 0};
  if (server_default.count() == 0) {
    return asked;
  }
  if (asked.count() == 0) {
    return server_default;
  }
  return std::min(asked, server_default);
}

}  // namespace

// All connection accounting lives here: whoever destroys the Conn —
// worker after a closed response, event loop on expiry, drain cleanup,
// a shed race — the fd is closed and the gauges stay truthful.
CheckServer::Conn::~Conn() {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

CheckServer::CheckServer(ServerOptions options)
    : options_(std::move(options)),
      targets_(std::make_unique<TargetPool>(options_.target_capacity, options_.session,
                                            options_.store_dir,
                                            options_.per_target_replay_budget,
                                            options_.clock)),
      queue_(std::make_unique<BoundedQueue<std::unique_ptr<Conn>>>(options_.queue_capacity)) {}

CheckServer::~CheckServer() {
  Shutdown();
  Join();
}

MonotonicTime CheckServer::Now() const {
  return options_.clock ? options_.clock->Now() : MonotonicNow();
}

void CheckServer::Wake() {
  if (wake_fd_ >= 0) {
    uint64_t one = 1;
    ssize_t ignored = ::write(wake_fd_, &one, sizeof(one));
    (void)ignored;
  }
}

Status CheckServer::Start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Unavailable(std::string("socket(): ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status status = Status::Unavailable(std::string("bind(): ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  if (::listen(listen_fd_, 128) < 0) {
    Status status = Status::Unavailable(std::string("listen(): ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  socklen_t addr_len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &addr_len);
  port_ = ntohs(addr.sin_port);
  SetNonBlocking(listen_fd_);

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  if (epoll_fd_ < 0 || wake_fd_ < 0) {
    Status status = Status::Unavailable(std::string("epoll/eventfd: ") + std::strerror(errno));
    Join();  // Closes whatever opened.
    return status;
  }
  epoll_event event{};
  event.events = EPOLLIN;
  event.data.fd = listen_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &event);
  event.data.fd = wake_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &event);

  // A ManualClock only moves when a test advances it; the waker turns
  // that advance into an epoll wakeup so armed deadlines are re-checked.
  if (auto* manual = dynamic_cast<ManualClock*>(options_.clock.get())) {
    manual->SetWaker([this] { Wake(); });
  }

  size_t workers = std::max<size_t>(1, options_.num_workers);
  workers_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  event_thread_ = std::thread([this] { EventLoop(); });
  started_ = true;
  return Status::Ok();
}

void CheckServer::Shutdown() {
  bool expected = false;
  if (!draining_.compare_exchange_strong(expected, true)) {
    return;
  }
  // The drain order is the containment order: (1) no new work past the
  // listener (the event loop also closes idle + mid-read connections —
  // their requests were never admitted), (2) queued + in-flight work
  // finishes on its own under the drain deadline, (3) the deadline fires
  // the drain token and every request token parented to it cancels
  // cooperatively at the next poll.
  if (options_.drain_deadline.count() > 0) {
    drain_token_.ArmDeadlineAfter(options_.drain_deadline);
  } else {
    drain_token_.Cancel();
  }
  queue_->Close();
  if (listen_fd_ >= 0) {
    ::shutdown(listen_fd_, SHUT_RDWR);
  }
  Wake();
}

void CheckServer::Join() {
  if (event_thread_.joinable()) {
    event_thread_.join();
  }
  for (std::thread& worker : workers_) {
    if (worker.joinable()) {
      worker.join();
    }
  }
  workers_.clear();
  // Workers racing the drain may have handed connections back after the
  // event loop exited; destroy them now (the Conn destructor closes).
  {
    std::lock_guard<std::mutex> lock(returned_mutex_);
    for (auto& conn : returned_) {
      DestroyConn(std::move(conn));
    }
    returned_.clear();
  }
  if (auto* manual = dynamic_cast<ManualClock*>(options_.clock.get())) {
    manual->SetWaker(nullptr);
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (wake_fd_ >= 0) {
    ::close(wake_fd_);
    wake_fd_ = -1;
  }
  if (epoll_fd_ >= 0) {
    ::close(epoll_fd_);
    epoll_fd_ = -1;
  }
}

// ---------------------------------------------------------------------------
// Event-loop thread: accept, read, expire. Never checks a config, never
// blocks on a client.

void CheckServer::EventLoop() {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  while (true) {
    int timeout_ms = -1;
    if (!deadlines_.empty()) {
      MonotonicTime now = Now();
      MonotonicTime next = deadlines_.next_deadline();
      if (next <= now) {
        timeout_ms = 0;
      } else {
        auto delta =
            std::chrono::duration_cast<std::chrono::milliseconds>(next - now).count() + 1;
        timeout_ms = static_cast<int>(std::min<long long>(delta, 60'000));
      }
    }
    int ready = ::epoll_wait(epoll_fd_, events, kMaxEvents, timeout_ms);
    if (ready < 0) {
      if (errno == EINTR) {
        continue;
      }
      break;  // epoll fd gone: the server is being torn down.
    }
    for (int i = 0; i < ready; ++i) {
      int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        uint64_t drained = 0;
        ssize_t ignored = ::read(wake_fd_, &drained, sizeof(drained));
        (void)ignored;
      } else if (fd == listen_fd_) {
        HandleAccept();
      } else {
        HandleReadable(fd);
      }
    }
    AdoptReturnedConns();
    if (draining()) {
      break;
    }
    ExpireDeadlines(Now());
  }
  // Drain: every connection still owned by the event loop holds work that
  // was never admitted (partial requests, parked keep-alives) — close
  // them all; admitted requests finish on the workers.
  for (auto& [fd, conn] : conns_) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
    DestroyConn(std::move(conn));
  }
  conns_.clear();
  AdoptReturnedConns();  // Destroys (draining) whatever workers returned.
}

void CheckServer::HandleAccept() {
  while (true) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) {
        continue;
      }
      return;  // EAGAIN (no more arrivals) or listener shut down.
    }
    stat_accepted_.fetch_add(1, std::memory_order_relaxed);
    if (draining()) {
      ShedConn(fd, Status::Unavailable("server is draining; no new work accepted"));
      continue;
    }
    if (gauge_open_connections_.load(std::memory_order_relaxed) >= options_.max_connections) {
      // Connection-slot admission: cheap state, but still bounded — a
      // slow-loris herd must exhaust this cap, not the process's fds.
      ShedConn(fd, Status::ResourceExhausted(
                       "connection limit (" + std::to_string(options_.max_connections) +
                       " open) reached; retry later"));
      continue;
    }
    auto conn = std::make_unique<Conn>();
    conn->fd = fd;
    conn->id = ++next_conn_id_;
    conn->parser = std::make_unique<HttpParser>(options_.max_body_bytes);
    gauge_open_connections_.fetch_add(1, std::memory_order_relaxed);
    epoll_event event{};
    event.events = EPOLLIN;
    event.data.fd = fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &event);
    Conn* raw = conn.get();
    conns_[fd] = std::move(conn);
    // The slow-loris budget starts at accept: one complete request within
    // read_timeout, or 408.
    ArmConnDeadline(raw, options_.read_timeout);
  }
}

void CheckServer::HandleReadable(int fd) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) {
    return;  // Stale event for a connection already dispatched or closed.
  }
  Conn* conn = it->second.get();
  char chunk[16384];
  while (true) {
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        break;  // Read everything available; request still incomplete.
      }
      // Hard socket error mid-request: nobody left to answer.
      if (!conn->idle && conn->parser->wire_bytes() > 0) {
        stat_client_aborts_.fetch_add(1, std::memory_order_relaxed);
      }
      CloseConn(fd);
      return;
    }
    if (n == 0) {
      // Peer closed. An idle keep-alive close is the protocol working; a
      // close mid-request (partial headers, mid-body) is a client abort —
      // count it, clean up, and the pool never hears about it.
      if (!conn->idle && conn->parser->wire_bytes() > 0) {
        stat_client_aborts_.fetch_add(1, std::memory_order_relaxed);
      }
      CloseConn(fd);
      return;
    }
    if (conn->idle) {
      // First bytes of the next request on a reused connection: the idle
      // bound is over, the read bound begins.
      conn->idle = false;
      gauge_idle_keepalive_.fetch_sub(1, std::memory_order_relaxed);
      ArmConnDeadline(conn, options_.read_timeout);
    }
    HttpParser::State state = conn->parser->Consume(chunk, static_cast<size_t>(n));
    if (state == HttpParser::State::kError) {
      stat_invalid_.fetch_add(1, std::memory_order_relaxed);
      Status error = conn->parser->error();
      int http = HttpStatusFor(error.code());
      WriteHttpResponse(fd, http, HttpReasonFor(http), "application/json", StatusJson(error),
                        {}, false, /*eagain_timeout_ms=*/0);
      CloseConn(fd);
      return;
    }
    if (state == HttpParser::State::kComplete) {
      DispatchConn(fd);
      return;
    }
  }
  if (conn->parser->wire_bytes() > 0) {
    stat_partial_reads_.fetch_add(1, std::memory_order_relaxed);
  }
}

void CheckServer::ArmConnDeadline(Conn* conn, std::chrono::milliseconds timeout) {
  if (timeout.count() <= 0) {
    conn->deadline = MonotonicTime();  // Disarmed; stale heap entries never match.
    return;
  }
  conn->deadline = Now() + timeout;
  deadlines_.Push(conn->deadline, DeadlineEntry{conn->fd, conn->id, conn->deadline});
}

void CheckServer::ExpireDeadlines(MonotonicTime now) {
  deadlines_.PopExpired(now, [&](DeadlineEntry entry) {
    auto it = conns_.find(entry.fd);
    if (it == conns_.end()) {
      return;  // Connection already dispatched or closed: lazy-cancelled.
    }
    Conn* conn = it->second.get();
    if (conn->id != entry.conn_id || conn->deadline != entry.armed) {
      return;  // Re-armed since this entry was pushed: superseded.
    }
    if (conn->idle) {
      // Idle keep-alive expiry: the client simply had nothing more to
      // send. Close silently — this is the protocol working, not a
      // slow-loris cutoff.
      CloseConn(entry.fd);
      return;
    }
    // Slow-loris cutoff: a client that cannot finish its request within
    // the read timeout gets 408 and its connection slot back.
    stat_read_timeouts_.fetch_add(1, std::memory_order_relaxed);
    WriteHttpResponse(entry.fd, 408, HttpReasonFor(408), "application/json",
                      StatusJson(Status::DeadlineExceeded("timed out reading request")), {},
                      false, /*eagain_timeout_ms=*/0);
    CloseConn(entry.fd);
  });
}

void CheckServer::AdoptReturnedConns() {
  std::vector<std::unique_ptr<Conn>> adopted;
  {
    std::lock_guard<std::mutex> lock(returned_mutex_);
    adopted.swap(returned_);
  }
  for (auto& conn : adopted) {
    if (draining()) {
      DestroyConn(std::move(conn));
      continue;
    }
    conn->idle = true;
    epoll_event event{};
    event.events = EPOLLIN;
    event.data.fd = conn->fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conn->fd, &event);
    Conn* raw = conn.get();
    conns_[conn->fd] = std::move(conn);
    ArmConnDeadline(raw, options_.keepalive_idle_timeout);
    // Published only once the idle deadline is armed: a stats() reader
    // that sees the connection idle (acquire) knows the clock reading the
    // deadline was taken from, so time it advances afterwards counts.
    gauge_idle_keepalive_.fetch_add(1, std::memory_order_release);
  }
}

void CheckServer::DispatchConn(int fd) {
  auto node = conns_.extract(fd);
  if (node.empty()) {
    return;
  }
  std::unique_ptr<Conn> conn = std::move(node.mapped());
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  conn->deadline = MonotonicTime();  // Socket deadlines are the front end's; disarm.
  // The event loop is the queue's only producer, so this pre-check is
  // authoritative: consumers only ever shrink the queue under us.
  bool admitted = false;
  if (!draining() && queue_->size() < queue_->capacity()) {
    admitted = queue_->TryPush(std::move(conn));
  }
  if (admitted) {
    return;
  }
  // Admission shed: the queue is full (overload) or closed (draining).
  // Answer from the event loop — cheap, bounded, zero-wait — so the
  // client learns to back off instead of hanging on an unread socket.
  stat_shed_.fetch_add(1, std::memory_order_relaxed);
  if (conn == nullptr) {
    return;  // Lost the drain race inside TryPush; the Conn closed itself.
  }
  Status status = draining()
                      ? Status::Unavailable("server is draining; no new work accepted")
                      : Status::ResourceExhausted(
                            "request queue full (" +
                            std::to_string(queue_->capacity()) + " pending); retry later");
  int http = HttpStatusFor(status.code());
  WriteHttpResponse(fd, http, HttpReasonFor(http), "application/json", StatusJson(status),
                    {{"Retry-After", "1"}}, false, /*eagain_timeout_ms=*/0);
  DestroyConn(std::move(conn));
}

void CheckServer::ShedConn(int fd, const Status& status) {
  stat_shed_.fetch_add(1, std::memory_order_relaxed);
  int http = HttpStatusFor(status.code());
  WriteHttpResponse(fd, http, HttpReasonFor(http), "application/json", StatusJson(status),
                    {{"Retry-After", "1"}}, false, /*eagain_timeout_ms=*/0);
  ::close(fd);
}

void CheckServer::CloseConn(int fd) {
  auto node = conns_.extract(fd);
  if (node.empty()) {
    return;
  }
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  DestroyConn(std::move(node.mapped()));
}

void CheckServer::DestroyConn(std::unique_ptr<Conn> conn) {
  if (conn == nullptr) {
    return;
  }
  if (conn->idle) {
    gauge_idle_keepalive_.fetch_sub(1, std::memory_order_relaxed);
  }
  gauge_open_connections_.fetch_sub(1, std::memory_order_relaxed);
  conn.reset();  // ~Conn closes the fd.
}

// ---------------------------------------------------------------------------
// Worker threads: check configs, write responses. Never read a socket.

void CheckServer::WorkerLoop() {
  while (true) {
    std::optional<std::unique_ptr<Conn>> conn = queue_->Pop();
    if (!conn.has_value()) {
      return;  // Closed and drained: the worker-exit signal.
    }
    ServeConn(std::move(*conn));
  }
}

void CheckServer::ServeConn(std::unique_ptr<Conn> conn) {
  const HttpRequest& request = conn->parser->request();
  if (conn->served > 0) {
    stat_keepalive_reuses_.fetch_add(1, std::memory_order_relaxed);
  }
  // The server's keep-alive decision for this response: the client must
  // opt in, the per-connection request cap must have room, and a
  // draining server wants its sockets back.
  const bool keep_alive = RequestWantsKeepAlive(request) &&
                          conn->served + 1 < options_.keepalive_max_requests && !draining();
  const bool stay_open = HandleRequest(conn->fd, request, keep_alive);
  if (!stay_open || draining()) {
    DestroyConn(std::move(conn));
    return;
  }
  // Keep-alive: hand the connection back to the event loop, which owns
  // idle time. The worker is free the moment the response is written.
  ++conn->served;
  conn->parser->Reset();
  {
    std::lock_guard<std::mutex> lock(returned_mutex_);
    returned_.push_back(std::move(conn));
  }
  Wake();
}

void CheckServer::WriteError(int fd, const Status& status) {
  int http = HttpStatusFor(status.code());
  std::vector<std::pair<std::string, std::string>> extra;
  if (http == 503) {
    extra.emplace_back("Retry-After", "1");
  }
  WriteHttpResponse(fd, http, HttpReasonFor(http), "application/json", StatusJson(status),
                    extra);
}

bool CheckServer::HandleRequest(int fd, const HttpRequest& request, bool keep_alive) {
  auto [path, query_view] = SplitRequestTarget(request.path);
  std::string query(query_view);
  if (request.method == "GET" && path == "/healthz") {
    if (draining()) {
      WriteHttpResponse(fd, 503, HttpReasonFor(503), "text/plain", "draining\n",
                        {{"Retry-After", "1"}});
      return false;
    }
    WriteHttpResponse(fd, 200, "OK", "text/plain", "ok\n", {}, keep_alive);
    return keep_alive;
  }
  if (request.method == "GET" && path == "/statz") {
    ServerStats snapshot = stats();
    std::string body = "{";
    const std::pair<const char*, uint64_t> counters[] = {
        {"accepted", snapshot.accepted}, {"served_ok", snapshot.served_ok}, {"shed", snapshot.shed},
        {"degraded", snapshot.degraded}, {"budget_degraded", snapshot.budget_degraded},
        {"invalid_requests", snapshot.invalid_requests}, {"not_found", snapshot.not_found},
        {"deadline_exceeded", snapshot.deadline_exceeded}, {"cancelled", snapshot.cancelled},
        {"read_timeouts", snapshot.read_timeouts}, {"internal_errors", snapshot.internal_errors},
        {"batch_configs", snapshot.batch_configs}, {"keepalive_reuses", snapshot.keepalive_reuses},
        {"store_hits", snapshot.store_hits}, {"partial_reads", snapshot.partial_reads},
        {"client_aborts", snapshot.client_aborts}, {"open_connections", snapshot.open_connections},
        {"idle_keepalive", snapshot.idle_keepalive}, {"max_connections", options_.max_connections},
        {"queue_depth", queue_->size()},
        {"inflight_replays", inflight_replays_.load(std::memory_order_relaxed)},
        {"per_target_replay_budget", targets_->replay_budget()},
        {"targets_loaded", targets_->size()}, {"target_loads", targets_->loads()},
        {"target_hits", targets_->hits()}, {"target_evictions", targets_->evictions()}};
    for (const auto& [name, value] : counters) {
      AppendJsonNumber(name, value, &body);
    }
    // Per-target budget state: how many replay tokens each hot target has
    // left and how often its traffic degraded — the operator's view of
    // "which target is the noisy one".
    body += ",\"target_budget\":[";
    for (const TargetPool::BudgetState& state : targets_->BudgetStates()) {
      body += body.back() == '[' ? "{" : ",{";
      AppendJsonString("name", state.name, &body);
      AppendJsonNumber("tokens", static_cast<uint64_t>(state.tokens), &body);
      AppendJsonNumber("degraded", state.degraded, &body);
      body += '}';
    }
    body += ']';
    AppendJsonBool("draining", draining(), &body);
    body += "}\n";
    WriteHttpResponse(fd, 200, "OK", "application/json", body, {}, keep_alive);
    return keep_alive;
  }
  if (request.method == "POST" && (path == "/check" || path == "/batch")) {
    return HandleCheck(fd, query, request.body, path == "/batch", keep_alive);
  }
  stat_not_found_.fetch_add(1, std::memory_order_relaxed);
  WriteError(fd, Status::NotFound("no route for " + request.method + " " +
                                  std::string(path)));
  return false;
}

bool CheckServer::HandleCheck(int fd, const std::string& query, const std::string& body,
                              bool batch, bool keep_alive, TargetPool::Entry*) {
  // The whole request path runs under catch-all containment: a thrown
  // bad_alloc or logic error becomes this request's 500, never the
  // daemon's last words.
  try {
    std::string target_name = QueryParam(query, "target");
    if (target_name.empty()) {
      stat_invalid_.fetch_add(1, std::memory_order_relaxed);
      WriteError(fd, Status::InvalidArgument("missing required query parameter 'target'"));
      return false;
    }
    Status status;
    std::shared_ptr<TargetPool::Entry> entry = targets_->Acquire(target_name, &status);
    if (!status.ok()) {
      (status.code() == StatusCode::kNotFound ? stat_not_found_ : stat_internal_)
          .fetch_add(1, std::memory_order_relaxed);
      WriteError(fd, status);
      return false;
    }

    const bool want_dynamic = QueryParam(query, "mode") != "static";
    CancelToken token(&drain_token_);
    std::chrono::milliseconds deadline =
        EffectiveDeadline(query, options_.default_deadline);
    if (deadline.count() > 0) {
      token.ArmDeadlineAfter(deadline);
    }
    options_.faults.OnRequestToken(&token);

    CheckOptions check;
    check.mode = want_dynamic ? CheckMode::kDynamic : CheckMode::kStatic;
    check.cancel = &token;
    auto replay_ms = ParseInt64(QueryParam(query, "replay_deadline_ms"));
    if (replay_ms.has_value() && *replay_ms > 0) {
      check.deadline = std::chrono::milliseconds(*replay_ms);
    }

    // Graceful degradation, two gates before a dynamic replay may run:
    // the target's own token bucket (one noisy target degrades alone),
    // then the global in-flight cap (the whole daemon's replay budget).
    // At either, a dynamic request is served statically instead of
    // queueing behind slow replays or being shed — the static verdict is
    // still the paper's pre-flight check, delivered in microseconds, and
    // the response says it was degraded.
    bool degraded = false;
    if (want_dynamic && !targets_->TryConsumeReplayToken(entry.get())) {
      check.mode = CheckMode::kStatic;
      degraded = true;
      stat_degraded_.fetch_add(1, std::memory_order_relaxed);
      stat_budget_degraded_.fetch_add(1, std::memory_order_relaxed);
    }
    ReplayGate gate(&inflight_replays_,
                    want_dynamic && !degraded ? options_.max_inflight_replays : SIZE_MAX);
    if (want_dynamic && !degraded && !gate.acquired()) {
      check.mode = CheckMode::kStatic;
      degraded = true;
      stat_degraded_.fetch_add(1, std::memory_order_relaxed);
    }
    options_.faults.BeforeCheck();

    // Both routes answer in the schema spexcheck prints (report_json.h):
    // /check streams the config's violations (and any include faults),
    // /batch one report per config; a summary line closes either.
    std::string response;
    BatchSummary summary;
    BatchOptions batch_options;
    batch_options.check = check;
    batch_options.num_threads = 1;  // Concurrency comes from the worker pool.
    std::optional<size_t> files_resolved;  // Multi-file /check bodies only.
    if (!batch) {
      // A body opening with '{' is the multi-file form: a JSON object
      // naming the set's files, resolved (includes, last-wins overrides)
      // to one flattened effective config before checking. Anything else
      // is the classic raw-config-text form.
      size_t first_byte = body.find_first_not_of(" \t\r\n");
      const bool set_body = first_byte != std::string::npos && body[first_byte] == '{';
      ConfigSetInput set_input;
      Status valid = set_body ? ParseConfigSetJson(body, &set_input)
                              : ValidateConfigText(body, entry->target->dialect());
      if (!valid.ok()) {
        stat_invalid_.fetch_add(1, std::memory_order_relaxed);
        WriteError(fd, valid);
        return false;
      }
      std::string name = QueryParam(query, "name");
      if (name.empty()) {
        name = set_body ? set_input.name : "config";
      }
      // Routed through a 1-config batch rather than CheckConfig: verdicts
      // are bit-identical (the batch identity guarantee), and the
      // BatchSummary carries the verdict-store counters a bare CheckConfig
      // cannot report — so /check can say whether it was served from disk.
      if (set_body) {
        set_input.name = name;
        std::vector<ConfigSetInput> sets;
        sets.push_back(std::move(set_input));
        std::vector<ResolvedConfigSet> resolutions;
        summary = entry->target->CheckConfigSet(sets, batch_options, &resolutions);
        files_resolved = resolutions.front().files_resolved;
        for (const ConfigSetError& set_error : resolutions.front().errors) {
          response += ConfigSetErrorRecord(set_error) + "\n";
        }
      } else {
        std::vector<ConfigInput> single;
        single.push_back(ConfigInput{name, body});
        summary = entry->target->CheckConfigBatch(single, batch_options);
      }
      for (const Violation& violation : summary.reports.front().violations) {
        response += ViolationRecord(violation) + "\n";
      }
    } else {
      std::vector<ConfigInput> inputs;
      Status framed = ParseBatchBody(body, &inputs);
      if (!framed.ok()) {
        stat_invalid_.fetch_add(1, std::memory_order_relaxed);
        WriteError(fd, framed);
        return false;
      }
      summary = entry->target->CheckConfigBatch(inputs, batch_options);
      stat_batch_configs_.fetch_add(inputs.size(), std::memory_order_relaxed);
      for (const ConfigReport& report : summary.reports) {
        response += ReportRecord(report) + "\n";
      }
    }
    stat_store_hits_.fetch_add(summary.store_hits, std::memory_order_relaxed);
    const char* phase = batch ? "mid-batch" : "mid-check";
    Status final = !token.cancelled() ? Status::Ok()
                   : token.reason() == CancelToken::Reason::kDeadline
                       ? Status::DeadlineExceeded(std::string("request budget exhausted ") + phase)
                       : Status::Cancelled(std::string("request cancelled ") + phase);
    response += batch ? BatchSummaryRecord(summary, final, degraded)
                      : CheckSummaryRecord(summary, final, target_name, check.mode,
                                           files_resolved, degraded);
    response += "\n";
    int http = HttpStatusFor(final.code());
    (final.ok() ? stat_served_ok_
                : final.code() == StatusCode::kDeadlineExceeded ? stat_deadline_
                                                                : stat_cancelled_)
        .fetch_add(1, std::memory_order_relaxed);
    // Only a clean verdict keeps the connection: a request that blew its
    // budget leaves the connection in a state not worth reasoning about.
    const bool stay_open = keep_alive && final.ok();
    WriteHttpResponse(fd, http, HttpReasonFor(http), "application/jsonl", response, {},
                      stay_open);
    return stay_open;
  } catch (const std::exception& error) {
    stat_internal_.fetch_add(1, std::memory_order_relaxed);
    WriteError(fd, Status::Internal(std::string("contained request failure: ") +
                                    error.what()));
  } catch (...) {
    stat_internal_.fetch_add(1, std::memory_order_relaxed);
    WriteError(fd, Status::Internal("contained request failure of unknown type"));
  }
  return false;
}

ServerStats CheckServer::stats() const {
  ServerStats snapshot;
  snapshot.accepted = stat_accepted_.load(std::memory_order_relaxed);
  snapshot.served_ok = stat_served_ok_.load(std::memory_order_relaxed);
  snapshot.shed = stat_shed_.load(std::memory_order_relaxed);
  snapshot.degraded = stat_degraded_.load(std::memory_order_relaxed);
  snapshot.budget_degraded = stat_budget_degraded_.load(std::memory_order_relaxed);
  snapshot.invalid_requests = stat_invalid_.load(std::memory_order_relaxed);
  snapshot.not_found = stat_not_found_.load(std::memory_order_relaxed);
  snapshot.deadline_exceeded = stat_deadline_.load(std::memory_order_relaxed);
  snapshot.cancelled = stat_cancelled_.load(std::memory_order_relaxed);
  snapshot.read_timeouts = stat_read_timeouts_.load(std::memory_order_relaxed);
  snapshot.internal_errors = stat_internal_.load(std::memory_order_relaxed);
  snapshot.batch_configs = stat_batch_configs_.load(std::memory_order_relaxed);
  snapshot.keepalive_reuses = stat_keepalive_reuses_.load(std::memory_order_relaxed);
  snapshot.store_hits = stat_store_hits_.load(std::memory_order_relaxed);
  snapshot.partial_reads = stat_partial_reads_.load(std::memory_order_relaxed);
  snapshot.client_aborts = stat_client_aborts_.load(std::memory_order_relaxed);
  snapshot.open_connections = gauge_open_connections_.load(std::memory_order_relaxed);
  snapshot.idle_keepalive = gauge_idle_keepalive_.load(std::memory_order_acquire);
  return snapshot;
}

}  // namespace spex
