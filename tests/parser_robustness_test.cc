// Malformed-input robustness for the multi-file resolution boundary:
// truncated include directives, self-includes, deep nesting, include
// bombs, non-UTF8 bytes, megabyte-long lines, and hostile /check JSON
// bodies. The bar everywhere is containment — a clean error record or
// kInvalidArgument, never a crash, never an unbounded expansion. Runs
// under TSan in scripts/smoke.sh alongside the serve suites.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/api/config_set.h"
#include "src/api/session.h"

namespace spex {
namespace {

size_t CountErrors(const ResolvedConfigSet& set, ConfigSetError::Kind kind) {
  size_t count = 0;
  for (const ConfigSetError& error : set.errors) {
    if (error.kind == kind) {
      ++count;
    }
  }
  return count;
}

TEST(ParserRobustnessTest, TruncatedIncludeDirectivesAreContained) {
  // An include with no operand (truncated mid-edit) in both spellings.
  for (const char* text : {"a = 1\ninclude\nb = 2\n", "a = 1\ninclude \nb = 2\n",
                           "a = 1\ninclude =\nb = 2\n", "a = 1\ninclude \"\"\nb = 2\n"}) {
    std::vector<ConfigInput> files = {{"root.conf", text}};
    ResolvedConfigSet set = ResolveConfigSet(files, ConfigDialect::kKeyEqualsValue);
    ASSERT_TRUE(set.resolved()) << text;
    EXPECT_EQ(CountErrors(set, ConfigSetError::Kind::kMissingInclude), 1u) << text;
    // The settings around the broken directive survive.
    EXPECT_EQ(set.effective.Get("a"), "1") << text;
    EXPECT_EQ(set.effective.Get("b"), "2") << text;
  }
}

TEST(ParserRobustnessTest, SelfIncludeIsASingleCycleError) {
  std::vector<ConfigInput> files = {{"me.conf", "a = 1\ninclude me.conf\nb = 2\n"}};
  ResolvedConfigSet set = ResolveConfigSet(files, ConfigDialect::kKeyEqualsValue);
  ASSERT_TRUE(set.resolved());
  ASSERT_EQ(set.errors.size(), 1u);
  EXPECT_EQ(set.errors[0].kind, ConfigSetError::Kind::kIncludeCycle);
  EXPECT_EQ(set.errors[0].file, "me.conf");
  EXPECT_EQ(set.errors[0].line, 2u);
  EXPECT_EQ(set.effective.Get("b"), "2");
}

TEST(ParserRobustnessTest, EightDeepNestingResolvesAndTooDeepIsContained) {
  // f0 -> f1 -> ... -> f8: eight levels of include, all legal.
  std::vector<ConfigInput> files;
  for (int i = 0; i <= 8; ++i) {
    std::string text = "depth" + std::to_string(i) + " = " + std::to_string(i) + "\n";
    if (i < 8) {
      text += "include f" + std::to_string(i + 1) + ".conf\n";
    }
    files.push_back(ConfigInput{"f" + std::to_string(i) + ".conf", text});
  }
  ResolvedConfigSet set = ResolveConfigSet(files, ConfigDialect::kKeyEqualsValue);
  ASSERT_TRUE(set.resolved());
  EXPECT_TRUE(set.errors.empty());
  EXPECT_EQ(set.files_resolved, 9u);
  EXPECT_EQ(set.effective.Get("depth8"), "8");

  // A chain deeper than max_include_depth stops with one error record and
  // keeps everything above the cut.
  files.clear();
  for (int i = 0; i <= 20; ++i) {
    std::string text = "depth" + std::to_string(i) + " = " + std::to_string(i) + "\n";
    if (i < 20) {
      text += "include f" + std::to_string(i + 1) + ".conf\n";
    }
    files.push_back(ConfigInput{"f" + std::to_string(i) + ".conf", text});
  }
  set = ResolveConfigSet(files, ConfigDialect::kKeyEqualsValue);
  ASSERT_TRUE(set.resolved());
  EXPECT_EQ(CountErrors(set, ConfigSetError::Kind::kDepthExceeded), 1u);
  EXPECT_LT(set.files_resolved, files.size());
  EXPECT_EQ(set.effective.Get("depth16"), "16");
}

TEST(ParserRobustnessTest, IncludeBombStopsAtTheFileCapWithOneRecord) {
  // A wide fan-out behind a small cap: expansion must stop, not flood.
  std::vector<ConfigInput> files;
  std::string root_text;
  for (int i = 0; i < 64; ++i) {
    root_text += "include leaf" + std::to_string(i) + ".conf\n";
  }
  files.push_back(ConfigInput{"root.conf", root_text});
  for (int i = 0; i < 64; ++i) {
    files.push_back(
        ConfigInput{"leaf" + std::to_string(i) + ".conf", "k" + std::to_string(i) + " = 1\n"});
  }
  ConfigSetOptions options;
  options.max_files = 8;
  ResolvedConfigSet set = ResolveConfigSet(files, ConfigDialect::kKeyEqualsValue, options);
  ASSERT_TRUE(set.resolved());
  EXPECT_EQ(set.files_resolved, 8u);
  EXPECT_EQ(CountErrors(set, ConfigSetError::Kind::kTooManyFiles), 1u);
  EXPECT_EQ(set.errors.size(), 1u);  // One record, not one per stopped leaf.
}

TEST(ParserRobustnessTest, NonUtf8BytesFlowThroughWithoutCrashing) {
  std::string text = "normal = 1\n";
  text += "bin\xFF\x80key = va\xFElue\n";
  text += "include \xC0\xC1.conf\n";  // Missing include named in garbage bytes.
  std::vector<ConfigInput> files = {{"root.conf", text}};
  ResolvedConfigSet set = ResolveConfigSet(files, ConfigDialect::kKeyEqualsValue);
  ASSERT_TRUE(set.resolved());
  EXPECT_EQ(set.effective.Get("normal"), "1");
  EXPECT_EQ(CountErrors(set, ConfigSetError::Kind::kMissingInclude), 1u);
  EXPECT_TRUE(set.effective.Get("bin\xFF\x80key").has_value());
}

TEST(ParserRobustnessTest, MegabyteLineIsParsedNotChoked) {
  std::string huge(1 << 20, 'x');
  std::string text = "big = " + huge + "\ninclude tail.conf\n";
  std::vector<ConfigInput> files = {
      {"root.conf", std::move(text)},
      {"tail.conf", "after = 1\n"},
  };
  ResolvedConfigSet set = ResolveConfigSet(files, ConfigDialect::kKeyEqualsValue);
  ASSERT_TRUE(set.resolved());
  ASSERT_TRUE(set.effective.Get("big").has_value());
  EXPECT_EQ(set.effective.Get("big")->size(), huge.size());
  EXPECT_EQ(set.effective.Get("after"), "1");
}

TEST(ParserRobustnessTest, HostileJsonBodiesAreCleanInvalidArgument) {
  ConfigSetInput input;
  std::vector<std::string> bodies = {
      std::string(1 << 20, '['),                      // A megabyte of nesting.
      std::string(1 << 20, '{'),
      "{\"files\":[" + std::string(4096, '{') + "]}",
      "{\"files\":[{\"name\":\"a\",\"text\":\"" + std::string(64, '\\'),  // Truncated escapes.
      "{\"files\":[{\"name\":\"a\",\"text\":\"\\u00",                     // Truncated \u.
      "{\"files\":[{\"name\":\"a\",\"text\":\"\\uZZZZ\"}]}",
      "{\"files\":[{\"name\":\"a\",\"text\":\"\\udc00\"}]}",  // Lone low surrogate.
      "{\"files\":[{\"name\":\"a\",\"text\":\"\\ud800",       // Truncated pair.
      "{\"files\":[{\"name\":\"a\",\"text\":\"x\"}",  // Unclosed object.
  };
  // Embedded NUL inside a string: bytes pass through or the body is
  // rejected — both contained.
  std::string nul_body = "{\"files\":[{\"name\":\"a";
  nul_body.push_back('\0');
  nul_body += "b\",\"text\":\"x\"}]}";
  bodies.push_back(std::move(nul_body));
  for (const std::string& body : bodies) {
    Status status = ParseConfigSetJson(body, &input);
    // Either rejected outright or (NUL case) parsed into plain bytes —
    // never a crash, never an unbounded loop.
    if (!status.ok()) {
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    }
  }
  // A body that is pure binary noise.
  std::string noise;
  for (int i = 0; i < 4096; ++i) {
    noise.push_back(static_cast<char>(i * 37));
  }
  EXPECT_EQ(ParseConfigSetJson(noise, &input).code(), StatusCode::kInvalidArgument);
}

TEST(ParserRobustnessTest, MalformedTreesCheckEndToEndWithoutCrashing) {
  constexpr const char* kTinySource = R"(
    int depth = 1;
    int started = 0;
    int handle_config_line(char *key, char *value) {
      if (!strcmp(key, "depth")) { depth = atoi(value); }
      return 0;
    }
    int server_init() { started = 1; return 0; }
    int test_started() { return started; }
  )";
  Session session;
  SutSpec sut;
  sut.tests.push_back({"started", "test_started", 1, 1});
  sut.param_storage["depth"] = "depth";
  Target* target = session.LoadSource(kTinySource, "", "tiny.c",
                                      ConfigDialect::kKeyEqualsValue, sut, "depth = 1\n");
  ASSERT_NE(target, nullptr) << session.RenderDiagnostics();

  std::vector<ConfigSetInput> sets(4);
  sets[0].files = {{"self.conf", "include self.conf\ndepth = 2\n"}};
  sets[1].files = {{"trunc.conf", "include\ndepth = 3\n"}};
  sets[2].files = {{"bin.conf", "depth = \xFF\xFE\n"}};
  sets[3].files = {{"huge.conf", "depth = " + std::string(1 << 20, '9') + "\n"}};
  std::vector<ResolvedConfigSet> resolutions;
  BatchSummary summary = target->CheckConfigSet(sets, {}, nullptr, &resolutions);
  ASSERT_EQ(summary.reports.size(), 4u);
  for (const ConfigReport& report : summary.reports) {
    EXPECT_TRUE(report.status.ok()) << report.name;  // Contained, not failed.
  }
  EXPECT_EQ(CountErrors(resolutions[0], ConfigSetError::Kind::kIncludeCycle), 1u);
  EXPECT_EQ(CountErrors(resolutions[1], ConfigSetError::Kind::kMissingInclude), 1u);
}

}  // namespace
}  // namespace spex
