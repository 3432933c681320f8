#include "src/serve/http.h"

#include <cerrno>

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "src/support/strings.h"

namespace spex {

namespace {

std::string_view TrimOws(std::string_view text) { return TrimWhitespace(text); }

}  // namespace

void HttpParser::Reset() {
  state_ = State::kNeedMore;
  error_ = Status::Ok();
  request_ = HttpRequest();
  buffer_.clear();
  body_length_ = 0;
  in_body_ = false;
  wire_bytes_ = 0;
}

HttpParser::State HttpParser::Fail(std::string message) {
  state_ = State::kError;
  error_ = Status::InvalidArgument(std::move(message));
  buffer_.clear();
  return state_;
}

HttpParser::State HttpParser::FinishHeaders(size_t header_end) {
  std::string_view header_block = std::string_view(buffer_).substr(0, header_end);
  size_t line_end = header_block.find("\r\n");
  std::string_view request_line =
      line_end == std::string_view::npos ? header_block : header_block.substr(0, line_end);
  size_t sp1 = request_line.find(' ');
  size_t sp2 = sp1 == std::string_view::npos ? std::string_view::npos
                                             : request_line.find(' ', sp1 + 1);
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos) {
    return Fail("malformed request line");
  }
  request_.method = std::string(request_line.substr(0, sp1));
  request_.path = std::string(request_line.substr(sp1 + 1, sp2 - sp1 - 1));
  std::string_view rest = line_end == std::string_view::npos
                              ? std::string_view()
                              : header_block.substr(line_end + 2);
  while (!rest.empty()) {
    size_t eol = rest.find("\r\n");
    std::string_view line = eol == std::string_view::npos ? rest : rest.substr(0, eol);
    rest = eol == std::string_view::npos ? std::string_view() : rest.substr(eol + 2);
    size_t colon = line.find(':');
    if (colon == std::string_view::npos) {
      continue;  // Tolerate junk header lines; framing is what matters.
    }
    std::string name = ToLowerCopy(TrimOws(line.substr(0, colon)));
    request_.headers[name] = std::string(TrimOws(line.substr(colon + 1)));
  }

  body_length_ = 0;
  auto it = request_.headers.find("content-length");
  if (it != request_.headers.end()) {
    auto parsed = ParseInt64(it->second);
    if (!parsed.has_value() || *parsed < 0) {
      return Fail("malformed Content-Length");
    }
    body_length_ = static_cast<size_t>(*parsed);
  }
  if (body_length_ > max_body_) {
    return Fail("request body of " + std::to_string(body_length_) +
                " bytes exceeds the " + std::to_string(max_body_) + "-byte limit");
  }

  // Whatever followed the blank line is body (possibly all of it).
  request_.body = buffer_.substr(header_end + 4);
  buffer_.clear();
  if (request_.body.size() >= body_length_) {
    request_.body.resize(body_length_);  // Ignore pipelined trailing bytes.
    state_ = State::kComplete;
  } else {
    in_body_ = true;
    state_ = State::kNeedMore;
  }
  return state_;
}

HttpParser::State HttpParser::Consume(const char* data, size_t n) {
  if (state_ != State::kNeedMore) {
    return state_;  // Already terminal; extra bytes are the client's loss.
  }
  wire_bytes_ += n;
  if (in_body_) {
    size_t want = body_length_ - request_.body.size();
    request_.body.append(data, std::min(n, want));
    if (request_.body.size() >= body_length_) {
      state_ = State::kComplete;
    }
    return state_;
  }
  buffer_.append(data, n);
  size_t header_end = buffer_.find("\r\n\r\n");
  if (header_end == std::string::npos) {
    if (buffer_.size() > kMaxHeaderBytes) {
      // An attacker streaming endless headers hits the cap, not the heap.
      return Fail("request header block exceeds " + std::to_string(kMaxHeaderBytes) +
                  " bytes");
    }
    return state_;  // Still accumulating headers.
  }
  if (header_end > kMaxHeaderBytes) {
    return Fail("request header block exceeds " + std::to_string(kMaxHeaderBytes) +
                " bytes");
  }
  return FinishHeaders(header_end);
}

bool RequestWantsKeepAlive(const HttpRequest& request) {
  auto it = request.headers.find("connection");
  if (it == request.headers.end()) {
    return false;
  }
  // The header is a comma-separated token list; scan for "keep-alive".
  std::string_view value = it->second;
  while (!value.empty()) {
    size_t comma = value.find(',');
    std::string_view token = comma == std::string_view::npos ? value : value.substr(0, comma);
    value = comma == std::string_view::npos ? std::string_view() : value.substr(comma + 1);
    if (ToLowerCopy(TrimOws(token)) == "keep-alive") {
      return true;
    }
  }
  return false;
}

bool WriteHttpResponse(int fd, int status_code, std::string_view reason,
                       std::string_view content_type, std::string_view body,
                       const std::vector<std::pair<std::string, std::string>>& extra_headers,
                       bool keep_alive, int eagain_timeout_ms) {
  std::string response;
  response.reserve(128 + body.size());
  response += "HTTP/1.1 ";
  response += std::to_string(status_code);
  response += ' ';
  response += reason;
  response += "\r\nContent-Type: ";
  response += content_type;
  response += "\r\nContent-Length: ";
  response += std::to_string(body.size());
  response += keep_alive ? "\r\nConnection: keep-alive\r\n" : "\r\nConnection: close\r\n";
  for (const auto& [name, value] : extra_headers) {
    response += name;
    response += ": ";
    response += value;
    response += "\r\n";
  }
  response += "\r\n";
  response += body;
  size_t written = 0;
  int wait_budget_ms = eagain_timeout_ms;
  while (written < response.size()) {
    ssize_t n = ::send(fd, response.data() + written, response.size() - written, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // Nonblocking socket, full send buffer: the client is not reading.
        // Wait for writability within the caller's budget — a worker may
        // spare a bounded wait, the event loop (budget 0) never waits.
        if (wait_budget_ms <= 0) {
          return false;
        }
        int slice = wait_budget_ms < 100 ? wait_budget_ms : 100;
        struct pollfd pfd{fd, POLLOUT, 0};
        int ready = ::poll(&pfd, 1, slice);
        wait_budget_ms -= slice;
        if (ready < 0 && errno != EINTR) {
          return false;
        }
        continue;
      }
      return false;  // Client gone; its loss.
    }
    written += static_cast<size_t>(n);
  }
  return true;
}

std::pair<std::string_view, std::string_view> SplitRequestTarget(std::string_view target) {
  size_t question = target.find('?');
  if (question == std::string_view::npos) {
    return {target, std::string_view()};
  }
  return {target.substr(0, question), target.substr(question + 1)};
}

std::string QueryParam(std::string_view query, std::string_view key) {
  while (!query.empty()) {
    size_t amp = query.find('&');
    std::string_view pair = amp == std::string_view::npos ? query : query.substr(0, amp);
    query = amp == std::string_view::npos ? std::string_view() : query.substr(amp + 1);
    size_t eq = pair.find('=');
    std::string_view pair_key = eq == std::string_view::npos ? pair : pair.substr(0, eq);
    if (pair_key != key) {
      continue;
    }
    std::string value(eq == std::string_view::npos ? std::string_view() : pair.substr(eq + 1));
    for (char& c : value) {
      if (c == '+') {
        c = ' ';
      }
    }
    return value;
  }
  return std::string();
}

int HttpStatusFor(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return 200;
    case StatusCode::kInvalidArgument:
      return 400;
    case StatusCode::kNotFound:
      return 404;
    case StatusCode::kDeadlineExceeded:
      return 504;
    case StatusCode::kCancelled:
      return 499;
    case StatusCode::kResourceExhausted:
      return 503;
    case StatusCode::kUnavailable:
      return 503;
    case StatusCode::kInternal:
      return 500;
  }
  return 500;
}

const char* HttpReasonFor(int http_status) {
  switch (http_status) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 408:
      return "Request Timeout";
    case 499:
      return "Client Closed Request";
    case 500:
      return "Internal Server Error";
    case 503:
      return "Service Unavailable";
    case 504:
      return "Gateway Timeout";
    default:
      return "Unknown";
  }
}

}  // namespace spex
