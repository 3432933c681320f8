// spex::Session façade tests: the user-facing ConfigChecker (one seeded
// violation per constraint category), clean-config behaviour, campaign
// bit-identity through the façade vs. a directly driven full replay,
// snapshot-cache reuse across repeated campaigns, and the dynamic check
// mode (observed Table-3 reactions per seeded category, bit-identity
// against ground-truth full replay, warm-cache reuse, concurrency).
#include "src/api/session.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <future>
#include <mutex>
#include <thread>

#include "src/inject/generator.h"
#include "src/support/thread_pool.h"

namespace spex {
namespace {

// A small server exercising every checkable constraint category:
//  - worker_threads/idle_timeout/cache_kb/cache_ttl: int table params with
//    declared ranges (basic type + range),
//  - idle_timeout feeds sleep()        -> TIME in seconds (unit),
//  - cache_kb * 1024 feeds malloc()    -> SIZE in kilobytes (unit scale),
//  - log_format compared with strcmp   -> case-sensitive enum (case),
//  - cache_ttl only used when use_cache != 0 -> control dependency.
constexpr const char* kServerSource = R"(
  struct config_int { char *name; int *variable; int min; int max; };
  int worker_threads = 4;
  int idle_timeout = 60;
  int cache_kb = 2048;
  int cache_ttl = 300;
  int log_format = 0;
  int use_cache = 1;
  struct config_int int_options[] = {
    { "worker_threads", &worker_threads, 1, 64 },
    { "idle_timeout", &idle_timeout, 0, 3600 },
    { "cache_kb", &cache_kb, 64, 1048576 },
    { "cache_ttl", &cache_ttl, 1, 86400 },
  };
  void parse_extra(char *key, char *value) {
    if (!strcasecmp(key, "log_format")) {
      if (!strcmp(value, "plain")) { log_format = 0; }
      else if (!strcmp(value, "json")) { log_format = 1; }
    }
    if (!strcasecmp(key, "use_cache")) {
      if (!strcasecmp(value, "on")) { use_cache = 1; } else { use_cache = 0; }
    }
  }
  void apply_config() {
    long bytes = cache_kb * 1024;
    malloc(bytes);
    sleep(idle_timeout);
    if (use_cache != 0) {
      sleep(cache_ttl);
    }
  }
)";

constexpr const char* kServerAnnotations =
    "@STRUCT int_options { par = 0, var = 1, min = 2, max = 3 }\n"
    "@PARSER parse_extra { par = arg0, var = arg1 }";

Target* LoadServer(Session& session) {
  Target* target = session.LoadSource(kServerSource, kServerAnnotations, "server.c");
  EXPECT_NE(target, nullptr) << session.RenderDiagnostics();
  return target;
}

bool HasViolation(const std::vector<Violation>& violations, ViolationCategory category,
                  const std::string& param) {
  for (const Violation& violation : violations) {
    if (violation.category == category && violation.param == param) {
      return true;
    }
  }
  return false;
}

TEST(SessionCheckTest, CleanConfigProducesZeroViolations) {
  Session session;
  Target* target = LoadServer(session);
  ASSERT_NE(target, nullptr);
  std::vector<Violation> violations = target->CheckConfig(
      "worker_threads = 8\n"
      "idle_timeout = 120\n"
      "cache_kb = 1024\n"
      "log_format = json\n"
      "use_cache = on\n"
      "cache_ttl = 600\n",
      "clean.conf");
  for (const Violation& violation : violations) {
    ADD_FAILURE() << "unexpected: " << violation.ToString();
  }
}

TEST(SessionCheckTest, FlagsBasicTypeViolations) {
  Session session;
  Target* target = LoadServer(session);
  ASSERT_NE(target, nullptr);
  std::vector<Violation> violations =
      target->CheckConfig("worker_threads = not_a_number\n", "bad.conf");
  ASSERT_TRUE(HasViolation(violations, ViolationCategory::kBasicType, "worker_threads"));
  EXPECT_EQ(violations[0].file, "bad.conf");
  EXPECT_EQ(violations[0].line, 1u);
  // Fractional values are a distinct, explained failure.
  violations = target->CheckConfig("worker_threads = 12.5\n", "bad.conf");
  ASSERT_TRUE(HasViolation(violations, ViolationCategory::kBasicType, "worker_threads"));
  EXPECT_NE(violations[0].message.find("fractional"), std::string::npos);
}

TEST(SessionCheckTest, FlagsRangeViolationsWithLineNumbers) {
  Session session;
  Target* target = LoadServer(session);
  ASSERT_NE(target, nullptr);
  std::vector<Violation> violations = target->CheckConfig(
      "# tuned for production\n"
      "worker_threads = 99\n"
      "cache_ttl = 0\n",
      "range.conf");
  ASSERT_EQ(violations.size(), 2u);
  EXPECT_TRUE(HasViolation(violations, ViolationCategory::kRange, "worker_threads"));
  EXPECT_TRUE(HasViolation(violations, ViolationCategory::kRange, "cache_ttl"));
  // Line-addressable: the comment shifts the settings to lines 2 and 3.
  EXPECT_EQ(violations[0].line, 2u);
  EXPECT_EQ(violations[1].line, 3u);
  EXPECT_NE(violations[0].message.find("accepted range"), std::string::npos);
}

TEST(SessionCheckTest, FlagsUnitScaleViolations) {
  Session session;
  Target* target = LoadServer(session);
  ASSERT_NE(target, nullptr);
  // Milliseconds into a seconds parameter.
  std::vector<Violation> violations =
      target->CheckConfig("idle_timeout = 500ms\n", "unit.conf");
  ASSERT_TRUE(HasViolation(violations, ViolationCategory::kUnit, "idle_timeout"));
  EXPECT_NE(violations[0].message.find("'ms'"), std::string::npos);
  EXPECT_NE(violations[0].message.find("'s'"), std::string::npos);
  // Gigabytes into a kilobytes parameter (the Figure 5(a) "9G").
  violations = target->CheckConfig("cache_kb = 9G\n", "unit.conf");
  ASSERT_TRUE(HasViolation(violations, ViolationCategory::kUnit, "cache_kb"));
  // A suffix in the parameter's own unit is still not parseable.
  violations = target->CheckConfig("idle_timeout = 120s\n", "unit.conf");
  ASSERT_TRUE(HasViolation(violations, ViolationCategory::kUnit, "idle_timeout"));
  EXPECT_NE(violations[0].message.find("plain number"), std::string::npos);
}

TEST(SessionCheckTest, FlagsCaseSensitivityViolations) {
  Session session;
  Target* target = LoadServer(session);
  ASSERT_NE(target, nullptr);
  // log_format values are compared with strcmp: "Json" only differs in
  // case from accepted "json".
  std::vector<Violation> violations =
      target->CheckConfig("log_format = Json\n", "case.conf");
  ASSERT_TRUE(HasViolation(violations, ViolationCategory::kCase, "log_format"));
  EXPECT_NE(violations[0].message.find("case"), std::string::npos);
  // use_cache is compared with strcasecmp: case variation is fine.
  violations = target->CheckConfig("use_cache = ON\n", "case.conf");
  EXPECT_FALSE(HasViolation(violations, ViolationCategory::kCase, "use_cache"));
  // A value that is wrong beyond case is a range violation, not a case one.
  violations = target->CheckConfig("log_format = xml\n", "case.conf");
  ASSERT_TRUE(HasViolation(violations, ViolationCategory::kRange, "log_format"));
}

TEST(SessionCheckTest, FlagsControlDependencyViolations) {
  Session session;
  Target* target = LoadServer(session);
  ASSERT_NE(target, nullptr);
  // cache_ttl is only consulted when use_cache != 0; setting it alongside
  // use_cache = off is the paper's silent-ignorance trap.
  std::vector<Violation> violations = target->CheckConfig(
      "use_cache = off\n"
      "cache_ttl = 500\n",
      "dep.conf");
  ASSERT_TRUE(HasViolation(violations, ViolationCategory::kControlDep, "cache_ttl"));
  for (const Violation& violation : violations) {
    if (violation.category == ViolationCategory::kControlDep) {
      EXPECT_EQ(violation.line, 2u);
      EXPECT_NE(violation.message.find("use_cache"), std::string::npos);
    }
  }
  // With the master enabled the dependent is fine.
  violations = target->CheckConfig("use_cache = on\ncache_ttl = 500\n", "dep.conf");
  EXPECT_FALSE(HasViolation(violations, ViolationCategory::kControlDep, "cache_ttl"));
}

TEST(SessionCheckTest, FlagsUnknownParametersWithSuggestion) {
  Session session;
  Target* target = LoadServer(session);
  ASSERT_NE(target, nullptr);
  std::vector<Violation> violations =
      target->CheckConfig("Worker_Threads = 8\n", "typo.conf");
  ASSERT_TRUE(HasViolation(violations, ViolationCategory::kUnknownParam, "Worker_Threads"));
  EXPECT_NE(violations[0].message.find("worker_threads"), std::string::npos);
  violations = target->CheckConfig("no_such_knob = 1\n", "typo.conf");
  ASSERT_TRUE(HasViolation(violations, ViolationCategory::kUnknownParam, "no_such_knob"));
}

TEST(SessionCheckTest, ViolationToStringIsFileLineAddressable) {
  Session session;
  Target* target = LoadServer(session);
  ASSERT_NE(target, nullptr);
  std::vector<Violation> violations =
      target->CheckConfig("worker_threads = 99\n", "etc/server.conf");
  ASSERT_EQ(violations.size(), 1u);
  std::string rendered = violations[0].ToString();
  EXPECT_NE(rendered.find("etc/server.conf:1:"), std::string::npos) << rendered;
  EXPECT_NE(rendered.find("[range]"), std::string::npos) << rendered;
  // The constraint's own source location (the mapping-table row) is kept
  // for "fix the code" reports.
  EXPECT_TRUE(violations[0].constraint_loc.IsValid());
}

TEST(SessionCheckTest, LoadSourceSurfacesDiagnostics) {
  Session session;
  Target* target = session.LoadSource("int broken = ;", "", "broken.c");
  EXPECT_EQ(target, nullptr);
  EXPECT_FALSE(session.ok());
  EXPECT_FALSE(session.RenderDiagnostics().empty());
  // Failure is per load: the bad source must not poison later loads.
  Target* good = LoadServer(session);
  ASSERT_NE(good, nullptr);
  EXPECT_TRUE(good->CheckConfig("worker_threads = 8\n").empty());
}

TEST(SessionCheckTest, EngineOptionsApplyToLoadTarget) {
  // An impossible confidence threshold filters every control dependency;
  // LoadTarget must honor the session's engine options, not the defaults.
  SessionOptions strict;
  strict.engine.confidence_threshold = 1.5;
  Session strict_session(strict);
  Target* strict_target = strict_session.LoadTarget("vsftpd");
  ASSERT_NE(strict_target, nullptr) << strict_session.RenderDiagnostics();
  EXPECT_TRUE(strict_target->InferConstraints().control_deps.empty());

  Session default_session;
  Target* default_target = default_session.LoadTarget("vsftpd");
  ASSERT_NE(default_target, nullptr) << default_session.RenderDiagnostics();
  EXPECT_FALSE(default_target->InferConstraints().control_deps.empty());
}

// --- Façade campaigns vs. an independent, directly driven campaign.

void ExpectSameSummaries(const CampaignSummary& expected, const CampaignSummary& actual,
                         const char* label) {
  ASSERT_EQ(actual.results.size(), expected.results.size()) << label;
  for (size_t i = 0; i < expected.results.size(); ++i) {
    const InjectionResult& a = expected.results[i];
    const InjectionResult& b = actual.results[i];
    ASSERT_EQ(a.config.param, b.config.param) << label << ": order diverged at " << i;
    ASSERT_EQ(a.config.value, b.config.value) << label << ": order diverged at " << i;
    EXPECT_EQ(a.category, b.category) << label << ": " << a.config.Describe();
    EXPECT_EQ(a.detail, b.detail) << label << ": " << a.config.Describe();
    EXPECT_EQ(a.logs, b.logs) << label << ": " << a.config.Describe();
    EXPECT_EQ(a.pinpointed, b.pinpointed) << label << ": " << a.config.Describe();
    EXPECT_EQ(a.tests_run, b.tests_run) << label << ": " << a.config.Describe();
  }
  EXPECT_EQ(actual.total_tests_run, expected.total_tests_run) << label;
}

// The reference every façade campaign is compared against: a serial,
// ground-truth full replay on a campaign driven directly over
// `analysis`, sharing nothing with any Session.
CampaignSummary FullReplayReference(const TargetAnalysis& analysis) {
  InjectionCampaign campaign(*analysis.module, analysis.bundle.sut,
                             OsSimulator::StandardEnvironment());
  CampaignSummary summary;
  summary.results = campaign.ReplayExternal(
      ConfigFile::Parse(analysis.bundle.template_config, analysis.bundle.dialect),
      MisconfigGenerator().Generate(analysis.constraints), /*use_parse_snapshot=*/false);
  for (const InjectionResult& result : summary.results) {
    summary.total_tests_run += result.tests_run;
  }
  return summary;
}

TEST(SessionCampaignTest, FacadeCampaignBitIdenticalToFullReplay) {
  DiagnosticEngine diags;
  ApiRegistry apis = ApiRegistry::BuiltinC();
  TargetAnalysis analysis = AnalyzeTarget(FindTarget("squid"), apis, &diags);
  ASSERT_FALSE(diags.HasErrors()) << diags.Render();
  CampaignSummary reference = FullReplayReference(analysis);

  Session session;
  Target* target = session.LoadTarget("squid");
  ASSERT_NE(target, nullptr) << session.RenderDiagnostics();
  ExpectSameSummaries(reference, target->RunCampaign(), "facade serial");
  ExpectSameSummaries(reference, target->RunCampaign(4), "facade 4 workers");
}

TEST(SessionCampaignTest, RepeatedCampaignReusesSnapshots) {
  Session session;
  Target* target = session.LoadTarget("squid");
  ASSERT_NE(target, nullptr) << session.RenderDiagnostics();

  CampaignSummary first = target->RunCampaign();
  CampaignCacheStats after_first = target->campaign_cache_stats();
  EXPECT_GT(after_first.snapshots_built, 0u);
  EXPECT_GT(after_first.delta_replays, 0u);

  CampaignSummary second = target->RunCampaign();
  CampaignCacheStats after_second = target->campaign_cache_stats();
  // The second batch replays from cached prefixes: zero new snapshot
  // builds (the ROADMAP open item this PR closes).
  EXPECT_EQ(after_second.snapshots_built, after_first.snapshots_built);
  EXPECT_GT(after_second.delta_replays, after_first.delta_replays);
  ExpectSameSummaries(first, second, "repeated campaign");
}

// A thread count is a per-call argument, not campaign state: serial,
// parallel and serial again all run on the target's one campaign, so its
// counters only ever grow and no run rebuilds a snapshot.
TEST(SessionCampaignTest, WidthChangeKeepsTheCampaign) {
  Session session;
  Target* target = session.LoadTarget("squid");
  ASSERT_NE(target, nullptr) << session.RenderDiagnostics();

  auto at_least = [](const CampaignCacheStats& now, const CampaignCacheStats& before,
                     const char* label) {
    EXPECT_GE(now.snapshots_built, before.snapshots_built) << label;
    EXPECT_GE(now.delta_replays, before.delta_replays) << label;
    EXPECT_GE(now.full_replays, before.full_replays) << label;
    EXPECT_GE(now.verifications, before.verifications) << label;
    EXPECT_GE(now.store_hits, before.store_hits) << label;
    EXPECT_GE(now.store_misses, before.store_misses) << label;
    EXPECT_GE(now.store_appends, before.store_appends) << label;
  };
  target->RunCampaign();
  const CampaignCacheStats serial = target->campaign_cache_stats();
  EXPECT_GT(serial.snapshots_built, 0u);
  target->RunCampaign(2);
  const CampaignCacheStats parallel = target->campaign_cache_stats();
  at_least(parallel, serial, "serial -> 2 workers");
  EXPECT_EQ(parallel.snapshots_built, serial.snapshots_built);
  target->RunCampaign();
  const CampaignCacheStats serial_again = target->campaign_cache_stats();
  at_least(serial_again, parallel, "2 workers -> serial");
  EXPECT_EQ(serial_again.snapshots_built, serial.snapshots_built);
}

TEST(SessionCampaignTest, SourceLoadedTargetCampaignUsesTemplate) {
  // LoadSource with a SUT spec and a template config drives the full
  // SPEX-INJ loop; the template's baseline settings must be present in
  // every applied config (not an empty file plus the delta).
  Session session;
  SutSpec sut;
  sut.param_storage["threads"] = "threads";
  Target* target = session.LoadSource(R"(
    int threads = 4;
    int started = 0;
    int handle_config_line(char *key, char *value) {
      if (!strcasecmp(key, "threads")) { threads = atoi(value); return 0; }
      return 0;
    }
    int server_init() { started = 1; return 0; }
  )",
                                      "@PARSER handle_config_line { par = arg0, var = arg1 }",
                                      "micro.c", ConfigDialect::kKeyEqualsValue, sut,
                                      "threads = 4\n");
  ASSERT_NE(target, nullptr) << session.RenderDiagnostics();
  CampaignSummary summary = target->RunCampaign();
  ASSERT_FALSE(summary.results.empty());
  // atoi("not_a_number") silently becomes 0: with the template line
  // present the injected value replaces it and the checker-visible
  // reaction is a silent violation.
  bool saw_silent = false;
  for (const InjectionResult& result : summary.results) {
    if (result.config.value == "not_a_number" &&
        result.category == ReactionCategory::kSilentViolation) {
      saw_silent = true;
    }
  }
  EXPECT_TRUE(saw_silent);
}

TEST(SessionCheckTest, MinuteSuffixOnMinuteParameterIsUnitChecked) {
  // 'm' is both minutes and megabytes; on a minutes parameter it must be
  // read as minutes ("30m" and "30min" get the same verdict).
  Session session;
  Target* target = session.LoadSource(R"(
    struct config_int { char *name; int *variable; };
    int backup_interval = 30;
    struct config_int table[] = { { "backup_interval", &backup_interval } };
    void apply() { sleep(backup_interval * 60); }
  )",
                                      "@STRUCT table { par = 0, var = 1 }", "minutes.c");
  ASSERT_NE(target, nullptr) << session.RenderDiagnostics();
  for (const char* value : {"30m", "30min"}) {
    std::vector<Violation> violations =
        target->CheckConfig(std::string("backup_interval = ") + value + "\n", "min.conf");
    ASSERT_TRUE(HasViolation(violations, ViolationCategory::kUnit, "backup_interval"))
        << value;
    EXPECT_NE(violations[0].message.find("plain number"), std::string::npos) << value;
  }
}

// --- Dynamic check mode: observed Table-3 reactions on user configs.

// The kServerSource constraint surface plus a full SUT driver, so the same
// seeded violation categories can be *replayed*: a struct-table parser on
// atoi (silent violations), a 64-slot array indexed by worker_threads
// (crash for out-of-range values), a strcmp'd enum that keeps its default
// on any unmatched word, a use_cache-gated cache_ttl (silent ignorance),
// and unknown directives dropped without a message.
constexpr const char* kDynamicServerSource = R"(
  struct config_int { char *name; int *variable; int min; int max; };
  int worker_threads = 4;
  int idle_timeout = 60;
  int cache_kb = 2048;
  int cache_ttl = 300;
  int log_format = 0;
  int use_cache = 1;
  int slots[64];
  int started = 0;
  struct config_int int_options[] = {
    { "worker_threads", &worker_threads, 1, 64 },
    { "idle_timeout", &idle_timeout, 0, 3600 },
    { "cache_kb", &cache_kb, 64, 1048576 },
    { "cache_ttl", &cache_ttl, 1, 86400 },
  };
  void parse_extra(char *key, char *value) {
    if (!strcasecmp(key, "log_format")) {
      if (!strcmp(value, "plain")) { log_format = 0; }
      else if (!strcmp(value, "json")) { log_format = 1; }
    }
    if (!strcasecmp(key, "use_cache")) {
      if (!strcasecmp(value, "on")) { use_cache = 1; } else { use_cache = 0; }
    }
  }
  int handle_config_line(char *key, char *value) {
    int i;
    for (i = 0; i < 4; i++) {
      if (!strcmp(int_options[i].name, key)) {
        *int_options[i].variable = atoi(value);
        return 0;
      }
    }
    parse_extra(key, value);
    return 0;
  }
  int server_init() {
    int i;
    for (i = 0; i < worker_threads; i++) { slots[i] = 1; }
    long bytes = cache_kb * 1024;
    malloc(bytes);
    sleep(idle_timeout);
    if (use_cache != 0) {
      sleep(cache_ttl);
    }
    started = 1;
    return 0;
  }
  int test_started() { return started; }
)";

constexpr const char* kDynamicServerTemplate =
    "worker_threads = 4\n"
    "idle_timeout = 60\n"
    "cache_kb = 2048\n"
    "cache_ttl = 300\n"
    "log_format = plain\n"
    "use_cache = on\n";

Target* LoadDynamicServer(Session& session) {
  SutSpec sut;
  sut.tests.push_back({"started", "test_started", 1, 1});
  for (const char* param :
       {"worker_threads", "idle_timeout", "cache_kb", "cache_ttl", "log_format", "use_cache"}) {
    sut.param_storage[param] = param;
  }
  Target* target =
      session.LoadSource(kDynamicServerSource, kServerAnnotations, "dynserver.c",
                         ConfigDialect::kKeyEqualsValue, sut, kDynamicServerTemplate);
  EXPECT_NE(target, nullptr) << session.RenderDiagnostics();
  return target;
}

// Field-by-field equality, including every dynamic-verdict field — the
// "bit-identical to ground truth" acceptance bar.
void ExpectSameViolations(const std::vector<Violation>& expected,
                          const std::vector<Violation>& actual, const char* label) {
  ASSERT_EQ(actual.size(), expected.size()) << label;
  for (size_t i = 0; i < expected.size(); ++i) {
    const Violation& a = expected[i];
    const Violation& b = actual[i];
    EXPECT_EQ(a.category, b.category) << label << " #" << i;
    EXPECT_EQ(a.param, b.param) << label << " #" << i;
    EXPECT_EQ(a.value, b.value) << label << " #" << i;
    EXPECT_EQ(a.file, b.file) << label << " #" << i;
    EXPECT_EQ(a.line, b.line) << label << " #" << i;
    EXPECT_EQ(a.message, b.message) << label << " #" << i;
    ASSERT_EQ(a.reaction.has_value(), b.reaction.has_value()) << label << " #" << i;
    if (a.reaction.has_value()) {
      EXPECT_EQ(*a.reaction, *b.reaction) << label << " #" << i;
    }
    EXPECT_EQ(a.reaction_detail, b.reaction_detail) << label << " #" << i;
    EXPECT_EQ(a.evidence_logs, b.evidence_logs) << label << " #" << i;
    EXPECT_EQ(a.prediction, b.prediction) << label << " #" << i;
  }
}

std::optional<ReactionCategory> ReactionFor(const std::vector<Violation>& violations,
                                            const std::string& param) {
  for (const Violation& violation : violations) {
    if (violation.param == param && violation.reaction.has_value()) {
      return violation.reaction;
    }
  }
  return std::nullopt;
}

TEST(SessionDynamicTest, SeededCategoriesGetObservedReactions) {
  Session session;
  Target* target = LoadDynamicServer(session);
  ASSERT_NE(target, nullptr);
  CheckOptions dynamic;
  dynamic.mode = CheckMode::kDynamic;

  // Basic type: atoi silently reads garbage as 0.
  std::vector<Violation> violations =
      target->CheckConfig("worker_threads = not_a_number\n", "user.conf", dynamic);
  ASSERT_TRUE(HasViolation(violations, ViolationCategory::kBasicType, "worker_threads"));
  EXPECT_EQ(ReactionFor(violations, "worker_threads"), ReactionCategory::kSilentViolation);

  // Range: 99 workers index past the 64-slot array — a startup crash.
  violations = target->CheckConfig("worker_threads = 99\n", "user.conf", dynamic);
  ASSERT_TRUE(HasViolation(violations, ViolationCategory::kRange, "worker_threads"));
  EXPECT_EQ(ReactionFor(violations, "worker_threads"), ReactionCategory::kCrashHang);

  // Unit: 500ms into a seconds parameter is accepted as 500 — off by the
  // scale factor, silently.
  violations = target->CheckConfig("idle_timeout = 500ms\n", "user.conf", dynamic);
  ASSERT_TRUE(HasViolation(violations, ViolationCategory::kUnit, "idle_timeout"));
  EXPECT_EQ(ReactionFor(violations, "idle_timeout"), ReactionCategory::kSilentViolation);

  // Case: "Json" matches neither strcmp arm, so the default stays — the
  // user's word is silently replaced.
  violations = target->CheckConfig("log_format = Json\n", "user.conf", dynamic);
  ASSERT_TRUE(HasViolation(violations, ViolationCategory::kCase, "log_format"));
  EXPECT_EQ(ReactionFor(violations, "log_format"), ReactionCategory::kSilentViolation);

  // Control dependency: cache_ttl is never consulted once use_cache is
  // off — and the system never says so.
  violations =
      target->CheckConfig("use_cache = off\ncache_ttl = 500\n", "user.conf", dynamic);
  ASSERT_TRUE(HasViolation(violations, ViolationCategory::kControlDep, "cache_ttl"));
  EXPECT_EQ(ReactionFor(violations, "cache_ttl"), ReactionCategory::kSilentIgnorance);
  // The master itself parses fine: "off" means 0, and 0 is what lands in
  // storage, so no false silent-violation alarm on the boolean word.
  EXPECT_FALSE(HasViolation(violations, ViolationCategory::kDynamicReaction, "use_cache"));

  // Unknown parameter: the parser's directive scan drops it on the floor.
  violations = target->CheckConfig("cache_size = 64\n", "user.conf", dynamic);
  ASSERT_TRUE(HasViolation(violations, ViolationCategory::kUnknownParam, "cache_size"));
  EXPECT_EQ(ReactionFor(violations, "cache_size"), ReactionCategory::kSilentIgnorance);

  // A flagged setting whose value happens to equal the template default is
  // still replayed: with the master off, cache_ttl = 300 is exactly as
  // ignored as any other value, and the violation gets its verdict.
  violations =
      target->CheckConfig("use_cache = off\ncache_ttl = 300\n", "user.conf", dynamic);
  ASSERT_TRUE(HasViolation(violations, ViolationCategory::kControlDep, "cache_ttl"));
  EXPECT_EQ(ReactionFor(violations, "cache_ttl"), ReactionCategory::kSilentIgnorance);
}

TEST(SessionDynamicTest, DynamicVerdictsBitIdenticalToGroundTruthFullReplay) {
  // Two sessions so the snapshot-path target and the ground-truth target
  // cannot share any campaign state; every seeded category must agree on
  // every violation field.
  Session snapshot_session;
  Session ground_session;
  Target* snapshot_target = LoadDynamicServer(snapshot_session);
  Target* ground_target = LoadDynamicServer(ground_session);
  ASSERT_NE(snapshot_target, nullptr);
  ASSERT_NE(ground_target, nullptr);
  CheckOptions with_snapshot;
  with_snapshot.mode = CheckMode::kDynamic;
  with_snapshot.use_parse_snapshot = true;
  CheckOptions ground_truth;
  ground_truth.mode = CheckMode::kDynamic;
  ground_truth.use_parse_snapshot = false;

  const char* kSeededConfigs[] = {
      "worker_threads = not_a_number\n",                        // basic type
      "worker_threads = 99\n",                                  // range
      "idle_timeout = 500ms\n",                                 // unit scale
      "cache_kb = 9G\n",                                        // unit scale (size)
      "log_format = Json\n",                                    // case sensitivity
      "use_cache = off\ncache_ttl = 500\n",                     // control dependency
      "cache_size = 64\n",                                      // unknown parameter
      "worker_threads = 99\nidle_timeout = 500ms\n"
      "log_format = Json\ncache_size = 64\n",                   // combined delta
  };
  for (const char* config : kSeededConfigs) {
    // Check each config twice on the snapshot target: the second pass runs
    // against a warm cache and must not change a single field either.
    std::vector<Violation> expected =
        ground_target->CheckConfig(config, "user.conf", ground_truth);
    ExpectSameViolations(expected, snapshot_target->CheckConfig(config, "user.conf", with_snapshot),
                         config);
    ExpectSameViolations(expected, snapshot_target->CheckConfig(config, "user.conf", with_snapshot),
                         config);
  }
}

TEST(SessionDynamicTest, StaticallyCleanSettingYieldsDynamicReactionViolation) {
  // No range is inferred for `threads`, so "threads = 100" passes every
  // static check — only the replay can reveal the startup crash.
  Session session;
  SutSpec sut;
  sut.tests.push_back({"started", "test_started", 1, 1});
  sut.param_storage["threads"] = "threads";
  Target* target = session.LoadSource(R"(
    int threads = 4;
    int slots[8];
    int started = 0;
    int handle_config_line(char *key, char *value) {
      if (!strcasecmp(key, "threads")) { threads = atoi(value); return 0; }
      return 0;
    }
    int server_init() {
      int i;
      for (i = 0; i < threads; i++) { slots[i] = 1; }
      started = 1;
      return 0;
    }
    int test_started() { return started; }
  )",
                                      "@PARSER handle_config_line { par = arg0, var = arg1 }",
                                      "micro.c", ConfigDialect::kKeyEqualsValue, sut,
                                      "threads = 4\n");
  ASSERT_NE(target, nullptr) << session.RenderDiagnostics();

  EXPECT_TRUE(target->CheckConfig("threads = 100\n").empty())
      << "statically clean by construction";
  CheckOptions dynamic;
  dynamic.mode = CheckMode::kDynamic;
  std::vector<Violation> violations =
      target->CheckConfig("threads = 100\n", "user.conf", dynamic);
  ASSERT_TRUE(HasViolation(violations, ViolationCategory::kDynamicReaction, "threads"));
  EXPECT_EQ(ReactionFor(violations, "threads"), ReactionCategory::kCrashHang);
  EXPECT_EQ(violations[0].line, 1u);
  EXPECT_FALSE(violations[0].prediction.empty());
  // A tolerated delta reports nothing new.
  EXPECT_TRUE(target->CheckConfig("threads = 6\n", "user.conf", dynamic).empty());
}

TEST(SessionDynamicTest, RejectedDeltaParseReportsParseStageViolation) {
  // The SUT rejects the garbage mid-parse: the dynamic checker must fold
  // that into a parse-stage verdict (good reaction — the message pinpoints
  // the value), not crash or misclassify.
  Session session;
  SutSpec sut;
  sut.param_storage["threads"] = "threads";
  Target* target = session.LoadSource(R"(
    int threads = 4;
    int handle_config_line(char *key, char *value) {
      if (!strcasecmp(key, "threads")) {
        int v;
        if (parse_int_strict(value, &v) < 0) {
          log_error("invalid value '%s' for parameter threads", value);
          return -1;
        }
        threads = v;
        return 0;
      }
      return 0;
    }
    int server_init() { return 0; }
  )",
                                      "@PARSER handle_config_line { par = arg0, var = arg1 }",
                                      "strict.c", ConfigDialect::kKeyEqualsValue, sut,
                                      "threads = 4\n");
  ASSERT_NE(target, nullptr) << session.RenderDiagnostics();
  CheckOptions dynamic;
  dynamic.mode = CheckMode::kDynamic;
  std::vector<Violation> violations =
      target->CheckConfig("threads = garbage!\n", "user.conf", dynamic);
  ASSERT_TRUE(HasViolation(violations, ViolationCategory::kBasicType, "threads"));
  ASSERT_EQ(ReactionFor(violations, "threads"), ReactionCategory::kGoodReaction);
  const Violation& violation = violations[0];
  EXPECT_NE(violation.reaction_detail.find("parsing"), std::string::npos)
      << violation.reaction_detail;
  // The rejection's own log line is the evidence.
  bool saw_log = false;
  for (const std::string& log : violation.evidence_logs) {
    saw_log |= log.find("garbage!") != std::string::npos;
  }
  EXPECT_TRUE(saw_log);
}

TEST(SessionDynamicTest, WarmDynamicCheckAfterCampaignBuildsZeroSnapshots) {
  Session session;
  Target* target = session.LoadTarget("squid");
  ASSERT_NE(target, nullptr) << session.RenderDiagnostics();
  target->RunCampaign();
  CampaignCacheStats warm = target->campaign_cache_stats();

  // Single-key deltas hit the key-sets the campaign already snapshotted;
  // warm dynamic checks must replay without building anything new — and
  // without paying a re-verification full replay (same campaign batch).
  CheckOptions dynamic;
  dynamic.mode = CheckMode::kDynamic;
  std::vector<Violation> violations =
      target->CheckConfig("client_lifetime_0 9000000000\n", "user.conf", dynamic);
  EXPECT_FALSE(violations.empty());
  ASSERT_TRUE(ReactionFor(violations, "client_lifetime_0").has_value());

  CampaignCacheStats after = target->campaign_cache_stats();
  EXPECT_EQ(after.snapshots_built, warm.snapshots_built);
  EXPECT_EQ(after.full_replays, warm.full_replays);
  EXPECT_GT(after.delta_replays, warm.delta_replays);
}

TEST(SessionDynamicTest, RepeatedDynamicChecksWarmTheirOwnCache) {
  // Without any campaign: the first check of a key-set pays the snapshot
  // build + verification, the second check of the same keys replays warm.
  Session session;
  Target* target = LoadDynamicServer(session);
  ASSERT_NE(target, nullptr);
  CheckOptions dynamic;
  dynamic.mode = CheckMode::kDynamic;

  std::vector<Violation> first =
      target->CheckConfig("idle_timeout = 500ms\n", "user.conf", dynamic);
  CampaignCacheStats cold = target->campaign_cache_stats();
  EXPECT_EQ(cold.snapshots_built, 1u);

  std::vector<Violation> second =
      target->CheckConfig("idle_timeout = 500ms\n", "user.conf", dynamic);
  CampaignCacheStats warm = target->campaign_cache_stats();
  EXPECT_EQ(warm.snapshots_built, cold.snapshots_built);
  EXPECT_GT(warm.delta_replays, cold.delta_replays);
  ExpectSameViolations(first, second, "repeated dynamic check");
}

TEST(SessionDynamicTest, StaticModeThroughOptionsMatchesPlainCheckConfig) {
  Session session;
  Target* target = LoadDynamicServer(session);
  ASSERT_NE(target, nullptr);
  const char* config = "worker_threads = 99\nidle_timeout = 500ms\n";
  ExpectSameViolations(target->CheckConfig(config, "user.conf"),
                       target->CheckConfig(config, "user.conf", CheckOptions{}),
                       "static via options");
  // Campaign state is untouched by static checks.
  CampaignCacheStats stats = target->campaign_cache_stats();
  EXPECT_EQ(stats.delta_replays + stats.full_replays, 0u);
}

TEST(SessionDynamicTest, TargetWithoutSutDegradesToStaticResult) {
  // No template/SUT surface: dynamic mode has nothing to replay against
  // and must return exactly the static result instead of misbehaving.
  Session session;
  Target* target = LoadServer(session);
  ASSERT_NE(target, nullptr);
  CheckOptions dynamic;
  dynamic.mode = CheckMode::kDynamic;
  ExpectSameViolations(target->CheckConfig("worker_threads = 99\n", "user.conf"),
                       target->CheckConfig("worker_threads = 99\n", "user.conf", dynamic),
                       "degraded dynamic");
}

// Two threads sharing one Session run the checker concurrently — the
// embedding contract (and the TSan smoke target in scripts/smoke.sh).
TEST(SessionThreadedTest, ConcurrentCheckConfigOnSharedSession) {
  Session session;
  Target* target = LoadServer(session);
  ASSERT_NE(target, nullptr);
  std::atomic<size_t> total_violations{0};
  auto check = [&](const std::string& text, size_t expected) {
    for (int round = 0; round < 50; ++round) {
      std::vector<Violation> violations = target->CheckConfig(text, "threaded.conf");
      EXPECT_EQ(violations.size(), expected);
      total_violations.fetch_add(violations.size());
    }
  };
  std::thread a(check, "worker_threads = 99\ncache_ttl = 0\n", 2);
  std::thread b(check, "log_format = Json\nidle_timeout = 500ms\n", 2);
  a.join();
  b.join();
  EXPECT_EQ(total_violations.load(), 200u);
}

// Any number of concurrent *dynamic* checks on one shared Session — the
// tentpole thread-safety contract (probe contexts + the state-gated
// snapshot cache), including a campaign running at the same time. TSan-run
// by scripts/smoke.sh.
TEST(SessionThreadedTest, ConcurrentDynamicChecksOnSharedSession) {
  Session session;
  Target* target = LoadDynamicServer(session);
  ASSERT_NE(target, nullptr);
  CheckOptions dynamic;
  dynamic.mode = CheckMode::kDynamic;

  // Expected verdicts, computed single-threaded before the storm.
  const char* kConfigA = "worker_threads = not_a_number\n";
  const char* kConfigB = "use_cache = off\ncache_ttl = 500\n";
  std::vector<Violation> expected_a = target->CheckConfig(kConfigA, "a.conf", dynamic);
  std::vector<Violation> expected_b = target->CheckConfig(kConfigB, "b.conf", dynamic);
  ASSERT_TRUE(ReactionFor(expected_a, "worker_threads").has_value());
  ASSERT_TRUE(ReactionFor(expected_b, "cache_ttl").has_value());

  std::atomic<size_t> mismatches{0};
  auto check = [&](const char* config, const char* file,
                   const std::vector<Violation>* expected) {
    for (int round = 0; round < 25; ++round) {
      std::vector<Violation> violations = target->CheckConfig(config, file, dynamic);
      if (violations.size() != expected->size()) {
        mismatches.fetch_add(1);
        continue;
      }
      for (size_t i = 0; i < violations.size(); ++i) {
        if (violations[i].reaction != (*expected)[i].reaction ||
            violations[i].reaction_detail != (*expected)[i].reaction_detail) {
          mismatches.fetch_add(1);
        }
      }
    }
  };
  std::thread a(check, kConfigA, "a.conf", &expected_a);
  std::thread b(check, kConfigB, "b.conf", &expected_b);
  std::thread c(check, kConfigA, "a.conf", &expected_a);
  // A campaign on the same target, concurrent with the dynamic checks —
  // both sides share the persistent snapshot cache.
  std::thread campaign([&] { target->RunCampaign(); });
  a.join();
  b.join();
  c.join();
  campaign.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

// Completion is per call: a sharded batch finishes while an embedder's
// tasks hold all but one worker of the same session pool. The wait is
// bounded, so a Wait() that joins the whole pool instead of its own group
// makes this test fail rather than hang.
TEST(SessionThreadedTest, ShardedBatchFinishesWhileOtherTasksHoldMostOfThePool) {
  Session session(SessionOptions{.campaign_threads = 4});
  Target* batch_target = LoadDynamicServer(session);
  ASSERT_NE(batch_target, nullptr);
  ThreadPool& pool = *session.worker_pool();
  ASSERT_GE(pool.size(), 2u);

  // Nothing may fail between the first Submit and the release below: the
  // group's destructor would wait on tasks that are never released.
  std::mutex mutex;
  std::condition_variable changed;
  size_t entered = 0;
  bool released = false;
  const size_t held = pool.size() - 1;
  ThreadPool::TaskGroup blockers(pool);
  for (size_t k = 0; k < held; ++k) {
    blockers.Submit([&] {
      std::unique_lock<std::mutex> lock(mutex);
      ++entered;
      changed.notify_all();
      changed.wait(lock, [&] { return released; });
    });
  }
  {
    std::unique_lock<std::mutex> lock(mutex);
    changed.wait(lock, [&] { return entered == held; });
  }

  const std::vector<ConfigInput> fleet = {
      {"a.conf", "worker_threads = not_a_number\n"},
      {"b.conf", "use_cache = off\ncache_ttl = 500\n"},
      {"c.conf", "worker_threads = 99\n"},
      {"d.conf", "log_format = Json\n"},
  };
  BatchOptions sharded;
  sharded.num_threads = 0;
  sharded.check.mode = CheckMode::kDynamic;
  std::future<BatchSummary> batch = std::async(std::launch::async, [&] {
    return batch_target->CheckConfigBatch(fleet, sharded);
  });
  const bool finished = batch.wait_for(std::chrono::seconds(20)) == std::future_status::ready;
  {
    std::lock_guard<std::mutex> lock(mutex);
    released = true;
  }
  changed.notify_all();
  blockers.Wait();
  EXPECT_TRUE(finished) << "the sharded batch waited for tasks of another group";

  BatchSummary summary = batch.get();
  BatchOptions serial = sharded;
  serial.num_threads = 1;
  BatchSummary expected = batch_target->CheckConfigBatch(fleet, serial);
  ASSERT_EQ(summary.reports.size(), fleet.size());
  EXPECT_GT(summary.total_suspects, 0u);
  for (size_t i = 0; i < fleet.size(); ++i) {
    ExpectSameViolations(expected.reports[i].violations, summary.reports[i].violations,
                         fleet[i].name.c_str());
  }
}

// Concurrent campaigns on one target, at two widths: all three share the
// target's one campaign and run one after another inside it. Every result
// is bit-identical to a serial full replay.
TEST(SessionThreadedTest, ConcurrentCampaignsOnOneTargetMatchFullReplay) {
  Session session(SessionOptions{.campaign_threads = 4});
  Target* target = session.LoadTarget("vsftpd");
  ASSERT_NE(target, nullptr) << session.RenderDiagnostics();
  const CampaignSummary reference = FullReplayReference(target->analysis());

  CampaignSummary first;
  CampaignSummary second;
  CampaignSummary wider;
  std::thread a([&] { first = target->RunCampaign(2); });
  std::thread b([&] { second = target->RunCampaign(2); });
  std::thread c([&] { wider = target->RunCampaign(4); });
  a.join();
  b.join();
  c.join();
  ExpectSameSummaries(reference, first, "first concurrent campaign");
  ExpectSameSummaries(reference, second, "second concurrent campaign");
  ExpectSameSummaries(reference, wider, "concurrent campaign at 4 workers");
}

}  // namespace
}  // namespace spex
