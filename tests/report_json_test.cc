// The shared JSON-lines report schema (src/api/report_json): the string
// escape and its decoder as a pair — every control byte, valid and
// invalid UTF-8, round trips — a pinned golden of the records one small
// storage_a fleet produces, and cross-surface identity: spexcheckd's
// /batch report lines are byte-identical to the encoder's lines for the
// same Target::CheckConfigBatch reports (what spexcheck prints), and its
// /check violation lines carry exactly the report's violation objects.
#include "src/api/report_json.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "src/api/session.h"
#include "src/serve/server.h"
#include "src/support/strings.h"

namespace spex {
namespace {

// Decodes `literal` as the body of one JSON string.
Status Decode(const std::string& literal, std::string* out) {
  std::string quoted = "\"" + literal + "\"";
  size_t pos = 0;
  Status status = DecodeJsonString(quoted, &pos, out);
  if (status.ok()) {
    EXPECT_EQ(pos, quoted.size());
  }
  return status;
}

// An independent UTF-8 validity check, by code point rather than by the
// encoder's byte-range table: rejects overlongs, surrogates, code points
// past U+10FFFF, stray continuation bytes and truncated sequences.
bool IsValidUtf8(const std::string& text) {
  for (size_t i = 0; i < text.size();) {
    auto byte = [&](size_t k) { return static_cast<unsigned char>(text[k]); };
    size_t length = byte(i) < 0x80 ? 1 : byte(i) >> 5 == 0x6 ? 2 : byte(i) >> 4 == 0xE ? 3
                                     : byte(i) >> 3 == 0x1E ? 4 : 0;
    if (length == 0 || i + length > text.size()) {
      return false;
    }
    uint32_t code = length == 1 ? byte(i) : byte(i) & (0x7F >> length);
    for (size_t k = 1; k < length; ++k) {
      if ((byte(i + k) & 0xC0) != 0x80) {
        return false;
      }
      code = (code << 6) | (byte(i + k) & 0x3F);
    }
    const uint32_t min_code[] = {0, 0, 0x80, 0x800, 0x10000};
    if (code < min_code[length] || code > 0x10FFFF || (code >= 0xD800 && code <= 0xDFFF)) {
      return false;
    }
    i += length;
  }
  return true;
}

TEST(ReportJsonTest, EscapeTable) {
  EXPECT_EQ(JsonEscape(""), "");
  EXPECT_EQ(JsonEscape("plain ascii ~!@#$%^&*()_+{}[]:;'<>?,./"),
            "plain ascii ~!@#$%^&*()_+{}[]:;'<>?,./");
  EXPECT_EQ(JsonEscape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(JsonEscape("C:\\path"), "C:\\\\path");
  EXPECT_EQ(JsonEscape("\x7f"), "\x7f");  // DEL is a legal JSON string byte.
  // Every control byte: the three short escapes, \u00xx for the rest.
  for (int c = 0; c < 0x20; ++c) {
    std::string expected;
    if (c == '\n') {
      expected = "\\n";
    } else if (c == '\r') {
      expected = "\\r";
    } else if (c == '\t') {
      expected = "\\t";
    } else {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
      expected = buffer;
    }
    EXPECT_EQ(JsonEscape(std::string(1, static_cast<char>(c))), expected) << "byte " << c;
  }
  // Well-formed UTF-8 passes through byte for byte, at every length and
  // at the edges of every range.
  for (const char* valid : {"\xc2\x80", "\xc3\xa9", "\xdf\xbf", "\xe0\xa0\x80", "\xe2\x82\xac",
                            "\xed\x9f\xbf", "\xee\x80\x80", "\xef\xbf\xbf", "\xf0\x90\x80\x80",
                            "\xf0\x9f\x98\x80", "\xf4\x8f\xbf\xbf"}) {
    EXPECT_EQ(JsonEscape(valid), valid);
  }
  // Every byte outside a well-formed sequence is one U+FFFD escape.
  struct Case {
    const char* in;
    const char* out;
  };
  const Case invalid[] = {
      {"9\xff\xfe", "9\\ufffd\\ufffd"},                          // Never-valid bytes.
      {"\x80x", "\\ufffdx"},                                     // Stray continuation.
      {"\xc0\xaf", "\\ufffd\\ufffd"},                            // Overlong 2-byte '/'.
      {"\xc1\xbf", "\\ufffd\\ufffd"},                            // Overlong 2-byte.
      {"\xe0\x80\xaf", "\\ufffd\\ufffd\\ufffd"},                 // Overlong 3-byte.
      {"\xf0\x80\x80\xaf", "\\ufffd\\ufffd\\ufffd\\ufffd"},      // Overlong 4-byte.
      {"\xed\xa0\x80", "\\ufffd\\ufffd\\ufffd"},                 // Surrogate U+D800.
      {"\xed\xbf\xbf", "\\ufffd\\ufffd\\ufffd"},                 // Surrogate U+DFFF.
      {"\xe2\x82", "\\ufffd\\ufffd"},                            // Truncated at the end.
      {"\xe2\x82" "A", "\\ufffd\\ufffdA"},                       // Truncated mid-text.
      {"\xf0\x9f\x98", "\\ufffd\\ufffd\\ufffd"},                 // Truncated 4-byte.
      {"\xf4\x90\x80\x80", "\\ufffd\\ufffd\\ufffd\\ufffd"},      // U+110000.
      {"\xf5\x80\x80\x80", "\\ufffd\\ufffd\\ufffd\\ufffd"},      // Lead past F4.
      {"a\xc3\xa9\xff\xc3\xa9", "a\xc3\xa9\\ufffd\xc3\xa9"},     // Valid neighbors kept.
  };
  for (const Case& c : invalid) {
    EXPECT_EQ(JsonEscape(c.in), c.out) << c.out;
  }
}

TEST(ReportJsonTest, DecodeHandlesEveryEscapeAndSurrogatePairs) {
  std::string out;
  ASSERT_TRUE(Decode("\\\"\\\\\\/\\b\\f\\n\\r\\t", &out).ok());
  EXPECT_EQ(out, "\"\\/\b\f\n\r\t");
  ASSERT_TRUE(Decode("\\u0041\\u00e9\\u20AC\\u0000", &out).ok());
  EXPECT_EQ(out, std::string("A\xc3\xa9\xe2\x82\xac\0", 7));
  ASSERT_TRUE(Decode("\\ud83d\\ude00", &out).ok());
  EXPECT_EQ(out, "\xf0\x9f\x98\x80");
  ASSERT_TRUE(Decode("\\udbff\\udfff", &out).ok());
  EXPECT_EQ(out, "\xf4\x8f\xbf\xbf");
  ASSERT_TRUE(Decode("\\ufffd", &out).ok());
  EXPECT_EQ(out, "\xef\xbf\xbd");

  struct Bad {
    const char* literal;
    const char* message;
    size_t pos;  // Offset in the quoted text where decoding stopped.
  };
  const Bad bad[] = {
      {"\\ud83d", "lone high surrogate", 1},
      {"x\\ud83dx", "lone high surrogate", 2},
      {"\\ud83d\\u0041", "lone high surrogate", 1},
      {"\\ude00\\ud83d", "lone low surrogate", 1},
      {"\\udc00", "lone low surrogate", 1},
      {"\\q", "unknown escape", 3},
      {"\\u12", "truncated \\u escape", 3},
      {"\\uzzzz", "bad hex digit", 3},
  };
  for (const Bad& b : bad) {
    std::string quoted = std::string("\"") + b.literal + "\"";
    size_t pos = 0;
    Status status = DecodeJsonString(quoted, &pos, &out);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << b.literal;
    EXPECT_NE(status.message().find(b.message), std::string::npos)
        << b.literal << ": " << status.message();
    EXPECT_EQ(pos, b.pos) << b.literal;
  }
  size_t pos = 0;
  EXPECT_EQ(DecodeJsonString("\"unterminated", &pos, &out).message(), "unterminated string");
  pos = 0;
  EXPECT_EQ(DecodeJsonString("\"\\u00", &pos, &out).message(), "truncated \\u escape");
  pos = 0;
  EXPECT_EQ(DecodeJsonString("x", &pos, &out).message(), "expected a string");
}

// Deterministic LCG so the corpus is identical on every platform/run.
class Lcg {
 public:
  explicit Lcg(uint64_t seed) : state_(seed) {}
  uint32_t Next(uint32_t bound) {
    state_ = state_ * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<uint32_t>((state_ >> 33) % bound);
  }

 private:
  uint64_t state_;
};

TEST(ReportJsonTest, DecodeInvertsEscapeOnValidUtf8) {
  // Every byte 0x00-0x7f in one string.
  std::string ascii;
  for (int c = 0; c < 0x80; ++c) {
    ascii.push_back(static_cast<char>(c));
  }
  std::string out;
  ASSERT_TRUE(Decode(JsonEscape(ascii), &out).ok());
  EXPECT_EQ(out, ascii);

  // Random valid UTF-8: code points drawn from every encoding length,
  // surrogates excluded.
  Lcg rng(13);
  for (int round = 0; round < 500; ++round) {
    std::string text;
    for (uint32_t n = rng.Next(24); n > 0; --n) {
      const uint32_t limits[] = {0x80, 0x800, 0x10000, 0x110000};
      uint32_t code = rng.Next(limits[rng.Next(4)]);
      if (code >= 0xD800 && code <= 0xDFFF) {
        code -= 0x800;
      }
      // Encode by hand, independent of the decoder's AppendUtf8.
      if (code < 0x80) {
        text.push_back(static_cast<char>(code));
      } else if (code < 0x800) {
        text += {static_cast<char>(0xC0 | (code >> 6)), static_cast<char>(0x80 | (code & 0x3F))};
      } else if (code < 0x10000) {
        text += {static_cast<char>(0xE0 | (code >> 12)),
                 static_cast<char>(0x80 | ((code >> 6) & 0x3F)),
                 static_cast<char>(0x80 | (code & 0x3F))};
      } else {
        text += {static_cast<char>(0xF0 | (code >> 18)),
                 static_cast<char>(0x80 | ((code >> 12) & 0x3F)),
                 static_cast<char>(0x80 | ((code >> 6) & 0x3F)),
                 static_cast<char>(0x80 | (code & 0x3F))};
      }
    }
    ASSERT_TRUE(IsValidUtf8(text));
    std::string escaped = JsonEscape(text);
    ASSERT_TRUE(Decode(escaped, &out).ok()) << escaped;
    EXPECT_EQ(out, text);
  }
}

TEST(ReportJsonTest, EscapeOfArbitraryBytesIsValidUtf8) {
  Lcg rng(7);
  for (int round = 0; round < 2000; ++round) {
    std::string bytes;
    for (uint32_t n = rng.Next(16); n > 0; --n) {
      // Bias toward the interesting high half.
      bytes.push_back(static_cast<char>(rng.Next(2) == 0 ? rng.Next(256) : 0x80 + rng.Next(128)));
    }
    std::string escaped = JsonEscape(bytes);
    EXPECT_TRUE(IsValidUtf8(escaped)) << escaped;
    std::string out;
    ASSERT_TRUE(Decode(escaped, &out).ok()) << escaped;
    EXPECT_TRUE(IsValidUtf8(out));
    if (IsValidUtf8(bytes)) {
      EXPECT_EQ(out, bytes);
    }
  }
}

// ---------------------------------------------------------------------------
// The schema on one real fleet.

// storage_a: the smallest corpus target, key=value dialect.
constexpr const char* kTarget = "storage_a";

std::vector<ConfigInput> Fleet() {
  return {
      {"good.conf", "raid.scrub.stripe_0 = 64\n"},
      {"bad.conf", "log_level = 99999\n"},
      {"poisoned.conf", "this line has no equals sign\n"},
  };
}

BatchSummary CheckFleet() {
  Session session;
  Target* target = session.LoadTarget(kTarget);
  EXPECT_NE(target, nullptr) << session.RenderDiagnostics();
  if (target == nullptr) {
    return BatchSummary();
  }
  std::vector<ConfigInput> fleet = Fleet();
  BatchOptions options;
  options.check.mode = CheckMode::kDynamic;  // spexcheck's default.
  return target->CheckConfigBatch(fleet, options);
}

// A rename, reorder or format change of any field fails here first.
TEST(ReportJsonTest, PinnedGoldenForOneFleet) {
  BatchSummary summary = CheckFleet();
  ASSERT_EQ(summary.reports.size(), 3u);
  EXPECT_EQ(ReportRecord(summary.reports[0]),
            R"({"type":"report","config":"good.conf","index":0,"suspects":0,)"
            R"("shared_replays":0,"violations":[]})");
  const std::string bad_violation =
      R"("category":"unknown-param","param":"log_level","value":"99999","file":"bad.conf",)"
      R"j("line":1,"message":"unknown parameter (no constraint was inferred for this name)",)j"
      R"("reaction":"good reaction","vulnerability":false,)"
      R"("prediction":"the system detects this setting and pinpoints it in its error message")";
  EXPECT_EQ(ReportRecord(summary.reports[1]),
            R"({"type":"report","config":"bad.conf","index":1,"suspects":1,)"
            R"("shared_replays":0,"violations":[{)" + bad_violation + "}]}");
  EXPECT_EQ(ViolationRecord(summary.reports[1].violations.at(0)),
            R"({"type":"violation",)" + bad_violation + "}");
  // status/error only on a failed report.
  EXPECT_EQ(ReportRecord(summary.reports[2]),
            R"({"type":"report","config":"poisoned.conf","index":2,"suspects":0,)"
            R"("shared_replays":0,"status":"invalid_argument",)"
            R"("error":"line 1: settings line has no '='","violations":[]})");
  EXPECT_EQ(SummaryRecord(summary),
            R"({"summary":{"configs_checked":3,"configs_with_errors":1,)"
            R"("configs_with_violations":1,"total_violations":1,"total_suspects":1,)"
            R"("unique_replays":1,"dedup_ratio":0,"store_hits":0,"store_misses":0,)"
            R"("store_appends":0},"schema":1})");

  // dedup_ratio prints as a stream prints a double: 0.7, 0.333333.
  BatchSummary counters;
  counters.total_suspects = 10;
  counters.unique_replays = 3;
  std::string fields;
  AppendBatchCounters(counters, &fields);
  EXPECT_NE(fields.find(R"("unique_replays":3,"dedup_ratio":0.7,)"), std::string::npos) << fields;
  counters.total_suspects = 3;
  counters.unique_replays = 2;
  fields.clear();
  AppendBatchCounters(counters, &fields);
  EXPECT_NE(fields.find(R"("dedup_ratio":0.333333,)"), std::string::npos) << fields;

  ResolvedConfigSet set;
  set.name = "site/main.conf";
  set.files_resolved = 1;
  set.errors.push_back(
      ConfigSetError{ConfigSetError::Kind::kIncludeCycle, "site/main.conf", 3, "site/main.conf"});
  EXPECT_EQ(ConfigSetRecord(set),
            R"({"type":"config_set","config":"site/main.conf","files":1,"errors":[)"
            R"({"kind":"include-cycle","file":"site/main.conf","line":3,)"
            R"("target":"site/main.conf"}]})");
  EXPECT_EQ(ConfigErrorRecord("gone.conf", "cannot read file"),
            R"({"type":"config_error","config":"gone.conf","error":"cannot read file"})");
}

// The --matrix and spexcheckd closing records, on hand-built values.
TEST(ReportJsonTest, PinnedGoldenForMatrixAndServeRecords) {
  ConfigReport cell;
  cell.name = "a.conf";
  cell.index = 2;
  EXPECT_EQ(CellRecord(1, "v\"2", cell),
            R"({"type":"cell","version":1,"version_label":"v\"2","config":"a.conf",)"
            R"("index":2,"suspects":0,"shared_replays":0,"violations":[]})");

  VersionReport column;
  column.index = 1;
  column.label = "v2";
  column.status = Status::NotFound("no such target");
  EXPECT_EQ(VersionRecord(column),
            R"({"type":"version","version":1,"label":"v2","status":"not_found",)"
            R"("error":"no such target"})");
  column.status = Status::Ok();
  std::string counters;
  AppendBatchCounters(column.batch, &counters);
  EXPECT_EQ(VersionRecord(column),
            R"({"type":"version","version":1,"label":"v2",)" + counters + "}");

  ConfigTransition transition;
  transition.config = "a.conf";
  transition.config_index = 2;
  transition.from_version = 0;
  transition.to_version = 1;
  transition.from_label = "v1";
  transition.to_label = "v2";
  transition.transition = Transition::kRegression;
  transition.added = 1;
  transition.detail = "+ [range] x = \"1\"";
  EXPECT_EQ(DiffRecord(transition),
            R"({"type":"diff","config":"a.conf","config_index":2,"from":0,"to":1,)"
            R"("from_label":"v1","to_label":"v2","transition":"regression","added":1,)"
            R"("removed":0,"changed":0,"detail":"+ [range] x = \"1\""})");

  MatrixSummary matrix;
  matrix.versions_requested = 3;
  matrix.versions_checked = 2;
  matrix.configs = 4;
  matrix.cells = 8;
  matrix.total_violations = 5;
  matrix.unique_replays = 6;
  matrix.store_hits = 7;
  matrix.transitions_by_kind = {1, 2, 3, 4};  // stable, changed, fix, regression.
  EXPECT_EQ(MatrixSummaryRecord(matrix),
            R"({"type":"matrix_summary","schema":1,"versions_requested":3,)"
            R"("versions_checked":2,"configs":4,"cells":8,"total_violations":5,)"
            R"("unique_replays":6,"store_hits":7,"regressions":4,"fixes":3,)"
            R"("changed_reactions":2,"stable":1})");

  EXPECT_EQ(ConfigSetErrorRecord(ConfigSetError{ConfigSetError::Kind::kMissingInclude,
                                                "main.conf", 2, "gone.conf"}),
            R"({"type":"config_set_error","kind":"missing-include","file":"main.conf",)"
            R"("line":2,"target":"gone.conf"})");

  BatchSummary served;
  served.total_violations = 2;
  served.total_suspects = 3;
  served.store_hits = 3;  // Every suspect from the store: cached.
  EXPECT_EQ(CheckSummaryRecord(served, Status::Ok(), "squid", CheckMode::kDynamic, 4, true),
            R"({"type":"summary","schema":1,"status":"ok","target":"squid",)"
            R"("mode":"dynamic","violations":2,"files":4,"degraded":true,"cached":true})");
  served.unique_replays = 1;
  EXPECT_EQ(CheckSummaryRecord(served, Status::Cancelled("x"), "squid", CheckMode::kStatic,
                               std::nullopt, false),
            R"({"type":"summary","schema":1,"status":"cancelled","target":"squid",)"
            R"("mode":"static","violations":2,"degraded":false,"cached":false})");
  counters.clear();
  AppendBatchCounters(served, &counters);
  EXPECT_EQ(BatchSummaryRecord(served, Status::Ok(), false),
            R"({"type":"batch_summary","schema":1,"status":"ok",)" + counters +
                R"(,"degraded":false,"cached":false})");
}

// ---------------------------------------------------------------------------
// Cross-surface identity against a live CheckServer.

// Sends one HTTP request over loopback and reads the response to EOF.
std::string Post(uint16_t port, const std::string& target, const std::string& body) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (fd < 0 || ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    if (fd >= 0) {
      ::close(fd);
    }
    return "<connect failed>";
  }
  std::string request = "POST " + target + " HTTP/1.1\r\nHost: localhost\r\nContent-Length: " +
                        std::to_string(body.size()) + "\r\n\r\n" + body;
  for (size_t sent = 0; sent < request.size();) {
    ssize_t n = ::send(fd, request.data() + sent, request.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      ::close(fd);
      return "<send failed>";
    }
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char chunk[4096];
  for (ssize_t n; (n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0;) {
    response.append(chunk, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

// The JSONL lines of a response body, or empty when the status is not 200.
std::vector<std::string> BodyLines(const std::string& response) {
  size_t split = response.find("\r\n\r\n");
  if (response.rfind("HTTP/1.1 200 ", 0) != 0 || split == std::string::npos) {
    return {};
  }
  std::vector<std::string> lines = SplitString(response.substr(split + 4), '\n');
  while (!lines.empty() && lines.back().empty()) {
    lines.pop_back();
  }
  return lines;
}

TEST(ReportJsonTest, BatchAndCheckSpeakTheCliSchema) {
  BatchSummary cli = CheckFleet();
  ASSERT_EQ(cli.reports.size(), 3u);

  CheckServer server;
  ASSERT_TRUE(server.Start().ok());
  std::string batch_body;
  for (const ConfigInput& config : Fleet()) {
    batch_body += "=== " + config.name + "\n" + config.text;
  }
  std::vector<std::string> batch =
      BodyLines(Post(server.port(), std::string("/batch?target=") + kTarget, batch_body));
  // One report line per config, then batch_summary — nothing else.
  ASSERT_EQ(batch.size(), cli.reports.size() + 1);
  for (size_t i = 0; i < cli.reports.size(); ++i) {
    EXPECT_EQ(batch[i], ReportRecord(cli.reports[i]));
  }
  std::string counters;
  AppendBatchCounters(cli, &counters);
  EXPECT_EQ(batch.back(), R"({"type":"batch_summary","schema":1,"status":"ok",)" + counters +
                              R"(,"degraded":false,"cached":false})");

  for (const ConfigReport& report : cli.reports) {
    std::string response = Post(
        server.port(), std::string("/check?target=") + kTarget + "&name=" + report.name,
        Fleet()[report.index].text);
    if (!report.status.ok()) {
      // The batch contains a poisoned config per report; /check refuses
      // the same text outright.
      EXPECT_EQ(response.rfind("HTTP/1.1 400 ", 0), 0u) << response;
      continue;
    }
    std::vector<std::string> lines = BodyLines(response);
    ASSERT_FALSE(lines.empty()) << response;
    EXPECT_EQ(lines.back().rfind(R"({"type":"summary","schema":1,"status":"ok",)", 0), 0u)
        << lines.back();
    EXPECT_NE(lines.back().find(R"("degraded":false)"), std::string::npos) << lines.back();
    // The violation lines, minus "type", are the report's violations array.
    std::string from_check = "[";
    const std::string type_prefix = R"({"type":"violation",)";
    for (size_t i = 0; i + 1 < lines.size(); ++i) {
      ASSERT_EQ(lines[i].rfind(type_prefix, 0), 0u) << lines[i];
      from_check += (i == 0 ? "{" : ",{") + lines[i].substr(type_prefix.size());
    }
    from_check += "]";
    std::string record = ReportRecord(report);
    size_t array = record.find(R"("violations":[)");
    ASSERT_NE(array, std::string::npos);
    EXPECT_EQ(from_check,
              record.substr(array + 13, record.size() - 1 - (array + 13)))
        << report.name;
  }
}

}  // namespace
}  // namespace spex
