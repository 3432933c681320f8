// Minimal HTTP/1.1 request/response handling over raw POSIX sockets.
//
// spexcheckd speaks just enough HTTP for curl, a load balancer's health
// probe, and the soak harness: Content-Length bodies only (no chunked
// upload, no TLS). Connections are close-by-default; a client that sends
// "Connection: keep-alive" may reuse the connection for sequential
// requests (the server caps the count and the idle gap — see
// ServerOptions). True pipelining is not supported: bytes past the
// current request's Content-Length are discarded, so clients must await
// each response. That floor is a feature — every parsing decision here is
// a containment decision, because the bytes are untrusted:
//
//   - the header block is capped (kMaxHeaderBytes) and the body is capped
//     by the parser's `max_body` — an oversized request is a structured
//     kInvalidArgument, never an allocation the client controls;
//   - parsing is incremental (HttpParser): the event-loop front end feeds
//     whatever bytes a nonblocking read produced and learns "need more /
//     complete / error" — a slow-loris client that dribbles one byte a
//     second costs a connection slot and a deadline-heap entry, never a
//     blocked thread;
//   - any malformed framing (bad request line, bad Content-Length) is a
//     per-connection error report, and the connection is simply closed.
//
// The parser allocates at most header-cap + body-cap per connection and
// touches nothing global, so a hostile request's blast radius is its own
// connection slot — which the server's connection cap already bounds.
#ifndef SPEX_SERVE_HTTP_H_
#define SPEX_SERVE_HTTP_H_

#include <cstddef>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/support/status.h"

namespace spex {

// Parsed request. `path` is the raw request-target ("/check?target=mysql");
// use SplitRequestTarget/QueryParam to decompose it. Header names are
// lower-cased at parse time (HTTP headers are case-insensitive).
struct HttpRequest {
  std::string method;
  std::string path;
  std::map<std::string, std::string> headers;
  std::string body;
};

inline constexpr size_t kMaxHeaderBytes = 16 * 1024;

// Incremental HTTP/1.1 request parser: a per-connection state machine the
// event loop drives with whatever bytes each nonblocking read produced.
//
//   HttpParser parser(max_body);
//   while (recv gives bytes) {
//     switch (parser.Consume(data, n)) {
//       case kNeedMore:  keep the connection in epoll, deadline armed;
//       case kComplete:  hand parser.request() to a worker;
//       case kError:     answer parser.error() (HTTP 4xx) and close;
//     }
//   }
//
// Extra bytes past the current request's Content-Length are consumed and
// discarded (no pipelining — same contract as before). Reset() rearms the
// machine for the next request on a kept-alive connection.
class HttpParser {
 public:
  enum class State {
    kNeedMore,  // Mid-request: header block or body still incomplete.
    kComplete,  // request() is fully framed and within every cap.
    kError,     // error() says why; the connection is not worth keeping.
  };

  explicit HttpParser(size_t max_body) : max_body_(max_body) { Reset(); }

  // Feeds `n` bytes; returns the state after consuming all of them.
  // Calling Consume after kComplete/kError discards the bytes (the server
  // answers the current request or closes before reading more).
  State Consume(const char* data, size_t n);

  State state() const { return state_; }
  // Valid in state kComplete.
  const HttpRequest& request() const { return request_; }
  // Valid in state kError; always kInvalidArgument (a framing problem).
  const Status& error() const { return error_; }
  // Bytes consumed toward the *current* request. Zero on a kept-alive
  // connection means "idle between requests" — the signal that lets the
  // server close an expired idle connection silently instead of
  // answering 408.
  size_t wire_bytes() const { return wire_bytes_; }

  // Back to "waiting for a fresh request" — the keep-alive rearm.
  void Reset();

 private:
  State Fail(std::string message);
  // Parses the accumulated header block once "\r\n\r\n" is seen.
  State FinishHeaders(size_t header_end);

  size_t max_body_;
  State state_ = State::kNeedMore;
  Status error_;
  HttpRequest request_;
  std::string buffer_;       // Header accumulation (capped by kMaxHeaderBytes).
  size_t body_length_ = 0;   // Declared Content-Length once headers parsed.
  bool in_body_ = false;
  size_t wire_bytes_ = 0;
};

// Writes a complete response (status line, headers, Content-Length, body).
// `keep_alive` selects the Connection header: the caller decides whether
// this connection survives the response (client asked + under the cap +
// not draining) and must close the socket itself when it says false.
// Works on nonblocking sockets: on EAGAIN the writer polls for
// writability up to `eagain_timeout_ms` total (0 = give up immediately —
// the front-end thread's mode, which must never wait on one client).
// Best-effort: a client that vanished mid-write is its own problem — the
// return only says whether every byte was accepted by the kernel.
bool WriteHttpResponse(int fd, int status_code, std::string_view reason,
                       std::string_view content_type, std::string_view body,
                       const std::vector<std::pair<std::string, std::string>>& extra_headers = {},
                       bool keep_alive = false, int eagain_timeout_ms = 5000);

// True when the client opted into connection reuse ("Connection:
// keep-alive", case-insensitive, possibly in a comma-separated list).
// Close-by-default otherwise — existing read-to-EOF clients keep working.
bool RequestWantsKeepAlive(const HttpRequest& request);

// "/check?target=mysql&mode=dynamic" -> {"/check", "target=mysql&mode=dynamic"}.
std::pair<std::string_view, std::string_view> SplitRequestTarget(std::string_view target);

// Value of `key` in a query string, or empty. No percent-decoding beyond
// '+' -> ' ' — target names and modes are [a-z_]+ by construction.
std::string QueryParam(std::string_view query, std::string_view key);

// The HTTP status line a spex::Status maps to. kOk -> 200; kCancelled maps
// to 499 (the de-facto "client closed request" code), kResourceExhausted
// and kUnavailable to 503 (the server tells the client to come back, with
// Retry-After added by the caller), kDeadlineExceeded to 504.
int HttpStatusFor(StatusCode code);
const char* HttpReasonFor(int http_status);

}  // namespace spex

#endif  // SPEX_SERVE_HTTP_H_
