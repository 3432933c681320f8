// spexcheckd's serving core over real loopback sockets: routing, the
// JSONL check/batch protocol, per-request containment (bad targets, bad
// framing, oversized bodies), admission shedding, graceful degradation at
// the replay cap, deadline verdicts under injected slowness, the hot
// target pool, and graceful drain. Every test talks to a live
// CheckServer exactly the way curl would.
#include "src/serve/server.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "src/serve/http.h"

namespace spex {
namespace {

int ConnectLoopback(uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

// Sends one raw HTTP request and reads the response to EOF (the server
// closes after each response).
std::string RoundTrip(uint16_t port, const std::string& request) {
  int fd = ConnectLoopback(port);
  if (fd < 0) {
    return "<connect failed>";
  }
  size_t sent = 0;
  while (sent < request.size()) {
    ssize_t n = ::send(fd, request.data() + sent, request.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      ::close(fd);
      return "<send failed>";
    }
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char chunk[4096];
  while (true) {
    ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      break;
    }
    response.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string Request(const std::string& method, const std::string& target,
                    const std::string& body = "") {
  std::string request = method + " " + target + " HTTP/1.1\r\nHost: localhost\r\n";
  request += "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n";
  request += body;
  return request;
}

int StatusOf(const std::string& response) {
  if (response.rfind("HTTP/1.1 ", 0) != 0) {
    return -1;
  }
  return std::atoi(response.c_str() + 9);
}

std::string BodyOf(const std::string& response) {
  size_t split = response.find("\r\n\r\n");
  return split == std::string::npos ? std::string() : response.substr(split + 4);
}

// storage_a: the smallest corpus target, key=value dialect — loads fast
// enough to pay on every test that needs a real end-to-end check.
constexpr const char* kTarget = "storage_a";

TEST(ServeTest, HealthzAnswersOk) {
  CheckServer server;
  ASSERT_TRUE(server.Start().ok());
  std::string response = RoundTrip(server.port(), Request("GET", "/healthz"));
  EXPECT_EQ(StatusOf(response), 200);
  EXPECT_EQ(BodyOf(response), "ok\n");
}

TEST(ServeTest, CheckReturnsViolationLinesAndSummary) {
  CheckServer server;
  ASSERT_TRUE(server.Start().ok());
  std::string response = RoundTrip(
      server.port(),
      Request("POST", std::string("/check?target=") + kTarget + "&name=bad.conf",
              "log_level = 99999\n"));
  EXPECT_EQ(StatusOf(response), 200) << response;
  std::string body = BodyOf(response);
  EXPECT_NE(body.find("\"type\":\"summary\""), std::string::npos) << body;
  EXPECT_NE(body.find("\"status\":\"ok\""), std::string::npos) << body;
  EXPECT_NE(body.find("\"mode\":\"dynamic\""), std::string::npos) << body;

  ServerStats stats = server.stats();
  EXPECT_EQ(stats.served_ok, 1u);
  EXPECT_EQ(stats.internal_errors, 0u);
}

// A '{'-opening /check body is the multi-file form: an include tree that
// is flattened last-wins before checking, with violations re-addressed
// to the winning assignment's file and annotated with what it overrode.
TEST(ServeTest, CheckAcceptsMultiFileConfigSetBody) {
  CheckServer server;
  ASSERT_TRUE(server.Start().ok());
  std::string body =
      "{\"files\":["
      "{\"name\":\"base.conf\",\"text\":\"wafl.readahead.chunk = 64\\n"
      "include conf.d/site.conf\\n\"},"
      "{\"name\":\"conf.d/site.conf\",\"text\":\"wafl.readahead.chunk = 99999\\n\"}]}";
  std::string response = RoundTrip(
      server.port(), Request("POST", std::string("/check?target=") + kTarget, body));
  EXPECT_EQ(StatusOf(response), 200) << response;
  std::string out = BodyOf(response);
  EXPECT_NE(out.find("\"file\":\"conf.d/site.conf\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"note\":\"overridden at base.conf:1 (earlier value '64')\""),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("\"files\":2"), std::string::npos) << out;

  // Contained resolution faults surface as config_set_error records, not
  // request failures.
  std::string cyclic =
      "{\"files\":[{\"name\":\"loop.conf\",\"text\":\"include loop.conf\\n\"}]}";
  response = RoundTrip(server.port(),
                       Request("POST", std::string("/check?target=") + kTarget, cyclic));
  EXPECT_EQ(StatusOf(response), 200) << response;
  out = BodyOf(response);
  EXPECT_NE(out.find("\"type\":\"config_set_error\""), std::string::npos) << out;
  EXPECT_NE(out.find("\"kind\":\"include-cycle\""), std::string::npos) << out;

  // A malformed JSON body is a clean 400; the daemon keeps serving.
  response = RoundTrip(server.port(),
                       Request("POST", std::string("/check?target=") + kTarget, "{\"files\":[}"));
  EXPECT_EQ(StatusOf(response), 400) << response;
  EXPECT_NE(BodyOf(response).find("config-set body"), std::string::npos);
  EXPECT_EQ(StatusOf(RoundTrip(server.port(), Request("GET", "/healthz"))), 200);
}

// With a per-target verdict store, the second identical /check is served
// entirely from disk — the response says "cached":true and /statz counts
// the store hits. The first (cold) request must say "cached":false.
TEST(ServeTest, CheckReportsCachedWhenServedFromVerdictStore) {
  std::string store_dir =
      (std::filesystem::temp_directory_path() / "spex_serve_store_test").string();
  std::filesystem::remove_all(store_dir);
  std::filesystem::create_directories(store_dir);

  ServerOptions options;
  options.store_dir = store_dir;
  CheckServer server(options);
  ASSERT_TRUE(server.Start().ok());
  const std::string request =
      Request("POST", std::string("/check?target=") + kTarget + "&name=bad.conf",
              "log_level = 99999\n");

  std::string cold = BodyOf(RoundTrip(server.port(), request));
  EXPECT_NE(cold.find("\"cached\":false"), std::string::npos) << cold;
  EXPECT_EQ(server.stats().store_hits, 0u);

  std::string warm = BodyOf(RoundTrip(server.port(), request));
  EXPECT_NE(warm.find("\"cached\":true"), std::string::npos) << warm;
  EXPECT_GT(server.stats().store_hits, 0u);

  // Same verdicts either way: the violation lines are byte-identical.
  EXPECT_EQ(cold.substr(0, cold.find("{\"type\":\"summary\"")),
            warm.substr(0, warm.find("{\"type\":\"summary\"")));

  // /statz surfaces the counter.
  std::string statz = BodyOf(RoundTrip(server.port(), Request("GET", "/statz")));
  EXPECT_NE(statz.find("\"store_hits\":"), std::string::npos) << statz;

  // /batch over the same config is warm too and says so.
  std::string batch = BodyOf(RoundTrip(
      server.port(), Request("POST", std::string("/batch?target=") + kTarget,
                             "=== user.conf\nlog_level = 99999\n")));
  EXPECT_NE(batch.find("\"cached\":true"), std::string::npos) << batch;

  server.Shutdown();
  server.Join();
  std::filesystem::remove_all(store_dir);
}

TEST(ServeTest, UnknownTargetIs404NotAnAbort) {
  CheckServer server;
  ASSERT_TRUE(server.Start().ok());
  std::string response = RoundTrip(
      server.port(), Request("POST", "/check?target=definitely_not_a_target", "a = 1\n"));
  EXPECT_EQ(StatusOf(response), 404);
  EXPECT_NE(BodyOf(response).find("\"status\":\"not_found\""), std::string::npos);
  // The daemon is still alive and serving.
  EXPECT_EQ(StatusOf(RoundTrip(server.port(), Request("GET", "/healthz"))), 200);
  EXPECT_EQ(server.stats().not_found, 1u);
}

TEST(ServeTest, UnknownRouteIs404AndMissingTargetIs400) {
  CheckServer server;
  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(StatusOf(RoundTrip(server.port(), Request("GET", "/nope"))), 404);
  EXPECT_EQ(StatusOf(RoundTrip(server.port(), Request("POST", "/check", "a = 1\n"))), 400);
  EXPECT_EQ(server.stats().invalid_requests, 1u);
}

TEST(ServeTest, OversizedBodyIsRejectedPerRequest) {
  ServerOptions options;
  options.max_body_bytes = 64;
  CheckServer server(std::move(options));
  ASSERT_TRUE(server.Start().ok());
  std::string huge(1024, 'x');
  std::string response = RoundTrip(
      server.port(), Request("POST", std::string("/check?target=") + kTarget, huge));
  EXPECT_EQ(StatusOf(response), 400);
  EXPECT_EQ(StatusOf(RoundTrip(server.port(), Request("GET", "/healthz"))), 200);
}

TEST(ServeTest, MalformedRequestLineIs400) {
  CheckServer server;
  ASSERT_TRUE(server.Start().ok());
  std::string response = RoundTrip(server.port(), "totally_not_http\r\n\r\n");
  EXPECT_EQ(StatusOf(response), 400);
}

TEST(ServeTest, BatchFramesConfigsAndContainsPoisonedOnes) {
  CheckServer server;
  ASSERT_TRUE(server.Start().ok());
  std::string body =
      "=== good.conf\n"
      "log_level = 2\n"
      "=== poisoned.conf\n"
      "this line has no equals sign\n"
      "=== bad.conf\n"
      "log_level = 99999\n";
  std::string response = RoundTrip(
      server.port(), Request("POST", std::string("/batch?target=") + kTarget, body));
  EXPECT_EQ(StatusOf(response), 200) << response;
  std::string jsonl = BodyOf(response);
  EXPECT_NE(jsonl.find("\"config\":\"poisoned.conf\""), std::string::npos) << jsonl;
  EXPECT_NE(jsonl.find("\"status\":\"invalid_argument\""), std::string::npos) << jsonl;
  EXPECT_NE(jsonl.find("\"type\":\"batch_summary\""), std::string::npos) << jsonl;
  EXPECT_NE(jsonl.find("\"configs_with_errors\":1"), std::string::npos) << jsonl;
  EXPECT_EQ(server.stats().batch_configs, 3u);
}

TEST(ServeTest, BatchBodyWithJunkBeforeFirstFrameIs400) {
  CheckServer server;
  ASSERT_TRUE(server.Start().ok());
  std::string response = RoundTrip(
      server.port(),
      Request("POST", std::string("/batch?target=") + kTarget, "not a frame\n=== a.conf\n"));
  EXPECT_EQ(StatusOf(response), 400);
  EXPECT_NE(BodyOf(response).find("before the first"), std::string::npos);
}

TEST(ServeTest, DynamicDegradesToStaticAtTheReplayCap) {
  ServerOptions options;
  options.max_inflight_replays = 0;  // Every dynamic request is over the cap.
  CheckServer server(std::move(options));
  ASSERT_TRUE(server.Start().ok());
  std::string response = RoundTrip(
      server.port(),
      Request("POST", std::string("/check?target=") + kTarget, "log_level = 99999\n"));
  EXPECT_EQ(StatusOf(response), 200) << response;
  std::string body = BodyOf(response);
  EXPECT_NE(body.find("\"mode\":\"static\""), std::string::npos) << body;
  EXPECT_NE(body.find("\"degraded\":true"), std::string::npos) << body;
  EXPECT_EQ(server.stats().degraded, 1u);

  // An explicitly static request is not "degraded" — it got what it asked.
  std::string static_response = RoundTrip(
      server.port(),
      Request("POST", std::string("/check?target=") + kTarget + "&mode=static",
              "log_level = 99999\n"));
  EXPECT_NE(BodyOf(static_response).find("\"degraded\":false"), std::string::npos);
  EXPECT_EQ(server.stats().degraded, 1u);
}

TEST(ServeTest, QueueOverflowShedsWith503AndRetryAfter) {
  // A half-sent request can no longer pin a worker (the event loop admits
  // only complete requests), so the worker must be pinned with real
  // checking work: slow_replay holds it mid-check while complete requests
  // pile into the one-slot queue.
  ::setenv("SPEXCHECKD_FAULTS", "slow_replay:800", 1);
  ServerOptions options;
  options.faults = FaultInjector::FromEnv();
  ::unsetenv("SPEXCHECKD_FAULTS");
  options.num_workers = 1;
  options.queue_capacity = 1;
  CheckServer server(std::move(options));
  ASSERT_TRUE(server.Start().ok());

  // Warm the target so the pinned requests spend their time in the
  // injected delay, not a cold load.
  EXPECT_EQ(StatusOf(RoundTrip(server.port(),
                               Request("POST", std::string("/check?target=") + kTarget,
                                       "log_level = 2\n"))),
            200);

  // Occupy the single worker with one slow check, the single queue slot
  // with another.
  const std::string slow_check =
      Request("POST", std::string("/check?target=") + kTarget, "log_level = 2\n");
  int busy = ConnectLoopback(server.port());
  ASSERT_GE(busy, 0);
  ASSERT_GT(::send(busy, slow_check.data(), slow_check.size(), MSG_NOSIGNAL), 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(200));  // Worker picks it up.
  int queued = ConnectLoopback(server.port());
  ASSERT_GE(queued, 0);
  ASSERT_GT(::send(queued, slow_check.data(), slow_check.size(), MSG_NOSIGNAL), 0);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));  // Parsed and queued.

  // The next complete request must be shed from the event loop, not hung.
  std::string response = RoundTrip(server.port(), Request("GET", "/healthz"));
  EXPECT_EQ(StatusOf(response), 503) << response;
  EXPECT_NE(response.find("Retry-After"), std::string::npos);
  EXPECT_NE(BodyOf(response).find("\"status\":\"resource_exhausted\""), std::string::npos);
  EXPECT_GE(server.stats().shed, 1u);

  ::close(busy);
  ::close(queued);
}

TEST(ServeTest, SlowRequestUnderTinyDeadlineReports504NotAHang) {
  // slow_replay injects wall-clock delay before the check; a 1ms request
  // budget is then guaranteed to have expired. The verdict must be the
  // checker's own deadline_exceeded — never the paper's hang verdict,
  // which would blame the SUT for the service's budget.
  ::setenv("SPEXCHECKD_FAULTS", "slow_replay:50", 1);
  ServerOptions options;
  options.faults = FaultInjector::FromEnv();
  ::unsetenv("SPEXCHECKD_FAULTS");
  ASSERT_TRUE(options.faults.armed());

  CheckServer server(std::move(options));
  ASSERT_TRUE(server.Start().ok());
  std::string response = RoundTrip(
      server.port(),
      Request("POST", std::string("/check?target=") + kTarget + "&deadline_ms=1",
              "log_level = 99999\n"));
  EXPECT_EQ(StatusOf(response), 504) << response;
  std::string body = BodyOf(response);
  EXPECT_NE(body.find("\"status\":\"deadline_exceeded\""), std::string::npos) << body;
  EXPECT_EQ(body.find("hang"), std::string::npos) << body;
  EXPECT_EQ(server.stats().deadline_exceeded, 1u);
  // The partial response still carries whatever completed before expiry.
  EXPECT_NE(body.find("\"type\":\"summary\""), std::string::npos) << body;
}

TEST(ServeTest, TargetPoolServesHotAndEvictsLru) {
  ServerOptions options;
  options.target_capacity = 1;
  CheckServer server(std::move(options));
  ASSERT_TRUE(server.Start().ok());

  std::string check = std::string("/check?target=") + kTarget + "&mode=static";
  EXPECT_EQ(StatusOf(RoundTrip(server.port(), Request("POST", check, "a = 1\n"))), 200);
  EXPECT_EQ(StatusOf(RoundTrip(server.port(), Request("POST", check, "a = 1\n"))), 200);
  EXPECT_EQ(server.targets().loads(), 1u);
  EXPECT_EQ(server.targets().hits(), 1u);
  EXPECT_EQ(server.targets().evictions(), 0u);

  // A second target with capacity 1 evicts the first.
  std::string other = "/check?target=vsftpd&mode=static";
  EXPECT_EQ(StatusOf(RoundTrip(server.port(), Request("POST", other, "a=1\n"))), 200);
  EXPECT_EQ(server.targets().loads(), 2u);
  EXPECT_EQ(server.targets().evictions(), 1u);
  EXPECT_EQ(server.targets().size(), 1u);
}

TEST(ServeTest, StatzExposesCounters) {
  CheckServer server;
  ASSERT_TRUE(server.Start().ok());
  RoundTrip(server.port(), Request("GET", "/healthz"));
  std::string response = RoundTrip(server.port(), Request("GET", "/statz"));
  EXPECT_EQ(StatusOf(response), 200);
  std::string body = BodyOf(response);
  for (const char* field : {"\"accepted\":", "\"shed\":", "\"degraded\":",
                            "\"inflight_replays\":", "\"target_loads\":", "\"draining\":false"}) {
    EXPECT_NE(body.find(field), std::string::npos) << body;
  }
}

TEST(ServeTest, ShutdownDrainsAndRefusesNewWork) {
  CheckServer server;
  ASSERT_TRUE(server.Start().ok());
  uint16_t port = server.port();
  EXPECT_EQ(StatusOf(RoundTrip(port, Request("GET", "/healthz"))), 200);

  server.Shutdown();
  EXPECT_TRUE(server.draining());
  server.Join();

  // The listener is gone: new connections are refused outright.
  EXPECT_EQ(ConnectLoopback(port), -1);
  // Idempotent: a second shutdown (and the destructor's) is a no-op.
  server.Shutdown();
}

TEST(ServeTest, FaultInjectorParsesEnvAndIgnoresTypos) {
  ::setenv("SPEXCHECKD_FAULTS", "slow_replay:25,cancel_midway:16,definitely_a_typo", 1);
  FaultInjector faults = FaultInjector::FromEnv();
  ::unsetenv("SPEXCHECKD_FAULTS");
  EXPECT_TRUE(faults.armed());
  // cancel_midway arms the request token's poll-count seam.
  CancelToken token;
  faults.OnRequestToken(&token);
  for (int i = 0; i < 15; ++i) {
    EXPECT_FALSE(token.ShouldCancel()) << "poll " << i;
  }
  EXPECT_TRUE(token.ShouldCancel());

  ::setenv("SPEXCHECKD_FAULTS", "", 1);
  EXPECT_FALSE(FaultInjector::FromEnv().armed());
  ::unsetenv("SPEXCHECKD_FAULTS");
  EXPECT_FALSE(FaultInjector::FromEnv().armed());
}

TEST(ServeTest, HostileTrafficNeverKillsTheServer) {
  ServerOptions options;
  options.max_body_bytes = 4096;
  CheckServer server(std::move(options));
  ASSERT_TRUE(server.Start().ok());

  const std::string hostile[] = {
      "GET\r\n\r\n",
      "POST /check HTTP/1.1\r\nContent-Length: banana\r\n\r\n",
      Request("POST", "/check?target=storage_a", std::string(8192, 'y')),
      Request("POST", "/batch?target=storage_a", "=== \n"),
      Request("POST", std::string("/check?target=") + std::string(512, 'z'), "a = 1\n"),
      std::string("\x00\x01\x02\r\n\r\n", 7),
  };
  for (const std::string& request : hostile) {
    std::string response = RoundTrip(server.port(), request);
    int status = StatusOf(response);
    EXPECT_TRUE(status >= 400 && status < 500) << "status " << status << " for: " << request;
  }
  // Still standing, still correct.
  EXPECT_EQ(StatusOf(RoundTrip(server.port(), Request("GET", "/healthz"))), 200);
  EXPECT_EQ(server.stats().internal_errors, 0u);
}

}  // namespace
}  // namespace spex
