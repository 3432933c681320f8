// Fleet-scale batch checking (Target::CheckConfigBatch + RunBatchCheck):
// batch verdicts bit-identical to N independent CheckConfig calls (serial
// and sharded), cross-config dedup counters, report order, empty /
// all-clean batches, static mode, warm-cache reuse, and the execution-key
// identity the dedup rests on.
#include "src/api/batch_check.h"

#include <gtest/gtest.h>

#include "src/api/session.h"

namespace spex {
namespace {

// The session_test dynamic server, reduced: a struct-table parser on atoi
// (silent violations), a 64-slot array indexed by worker_threads (crash
// for out-of-range), a strcmp'd enum keeping its default on unmatched
// words, a use_cache-gated cache_ttl (silent ignorance), and unknown
// directives dropped without a message.
constexpr const char* kFleetServerSource = R"(
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

constexpr const char* kFleetServerAnnotations =
    "@STRUCT int_options { par = 0, var = 1, min = 2, max = 3 }\n"
    "@PARSER parse_extra { par = arg0, var = arg1 }";

constexpr const char* kFleetServerTemplate =
    "worker_threads = 4\n"
    "idle_timeout = 60\n"
    "cache_kb = 2048\n"
    "cache_ttl = 300\n"
    "log_format = plain\n"
    "use_cache = on\n";

Target* LoadFleetServer(Session& session) {
  SutSpec sut;
  sut.tests.push_back({"started", "test_started", 1, 1});
  for (const char* param :
       {"worker_threads", "idle_timeout", "cache_kb", "cache_ttl", "log_format", "use_cache"}) {
    sut.param_storage[param] = param;
  }
  Target* target =
      session.LoadSource(kFleetServerSource, kFleetServerAnnotations, "fleet.c",
                         ConfigDialect::kKeyEqualsValue, sut, kFleetServerTemplate);
  EXPECT_NE(target, nullptr) << session.RenderDiagnostics();
  return target;
}

// A fleet with heavy duplication: the same copy-pasted mistakes appear in
// several users' files, plus per-user unique mistakes and clean configs.
std::vector<ConfigInput> FleetCorpus() {
  return {
      {"clean-1.conf", kFleetServerTemplate},
      {"garbage-a.conf", "worker_threads = not_a_number\n"},
      {"crash.conf", "worker_threads = 99\n"},
      {"garbage-b.conf", "worker_threads = not_a_number\n"},  // Duplicate of garbage-a.
      {"ignored.conf", "use_cache = off\ncache_ttl = 600\n"},
      {"garbage-c.conf", "worker_threads = not_a_number\n"},  // Duplicate again.
      {"typo.conf", "worker_treads = 8\n"},
      {"clean-2.conf", "idle_timeout = 120\n"},
      {"multi.conf", "worker_threads = not_a_number\ncache_kb = 9999999999\n"},
  };
}

// Field-by-field Violation equality including every dynamic-verdict field
// — the "bit-identical to N independent CheckConfig calls" bar.
void ExpectSameViolations(const std::vector<Violation>& expected,
                          const std::vector<Violation>& actual, const std::string& label) {
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
    EXPECT_EQ(a.constraint_loc.LineKey(), b.constraint_loc.LineKey()) << label << " #" << i;
    ASSERT_EQ(a.reaction.has_value(), b.reaction.has_value()) << label << " #" << i;
    if (a.reaction.has_value()) {
      EXPECT_EQ(*a.reaction, *b.reaction) << label << " #" << i;
    }
    EXPECT_EQ(a.reaction_detail, b.reaction_detail) << label << " #" << i;
    EXPECT_EQ(a.evidence_logs, b.evidence_logs) << label << " #" << i;
    EXPECT_EQ(a.prediction, b.prediction) << label << " #" << i;
  }
}

TEST(BatchCheckTest, BatchVerdictsMatchIndependentChecksAtEveryThreadCount) {
  std::vector<ConfigInput> corpus = FleetCorpus();

  // Ground truth: one dedicated dynamic CheckConfig per config, on its own
  // session so no batch state can leak into the reference verdicts.
  std::vector<std::vector<Violation>> independent;
  {
    Session session;
    Target* target = LoadFleetServer(session);
    ASSERT_NE(target, nullptr);
    CheckOptions dynamic;
    dynamic.mode = CheckMode::kDynamic;
    for (const ConfigInput& config : corpus) {
      independent.push_back(target->CheckConfig(config.text, config.name, dynamic));
    }
  }

  for (int threads : {1, 4}) {
    Session session(SessionOptions{.campaign_threads = 4});
    Target* target = LoadFleetServer(session);
    ASSERT_NE(target, nullptr);
    BatchOptions options;
    options.check.mode = CheckMode::kDynamic;
    options.num_threads = threads;
    BatchSummary summary = target->CheckConfigBatch(corpus, options);
    ASSERT_EQ(summary.reports.size(), corpus.size());
    for (size_t i = 0; i < corpus.size(); ++i) {
      EXPECT_EQ(summary.reports[i].name, corpus[i].name);
      ExpectSameViolations(independent[i], summary.reports[i].violations,
                           corpus[i].name + " @" + std::to_string(threads) + " threads");
    }
    EXPECT_LT(summary.unique_replays, summary.total_suspects)
        << "duplicated corpus must dedup";
  }
}

// Phase 4 builds reports on claimers and folds counters on the driver:
// the whole summary — every counter array, and per report the status,
// suspect counts and violations with their reaction fields — must not
// depend on the width.
TEST(BatchCheckTest, SummaryIsIdenticalAtEveryThreadCount) {
  std::vector<ConfigInput> corpus = FleetCorpus();
  corpus.insert(corpus.begin() + 2,
                ConfigInput{"poisoned.conf", "worker_threads = 4\nno equals sign\n"});
  corpus.push_back({"crash-again.conf", "worker_threads = 99\nidle_timeout = 120\n"});
  corpus.push_back({"ignored-again.conf", "cache_ttl = 600\nuse_cache = off\n"});

  auto run = [&](int threads) {
    Session session(SessionOptions{.campaign_threads = 4});
    Target* target = LoadFleetServer(session);
    EXPECT_NE(target, nullptr);
    BatchOptions options;
    options.check.mode = CheckMode::kDynamic;
    options.num_threads = threads;
    return target->CheckConfigBatch(corpus, options);
  };
  const BatchSummary serial = run(1);
  ASSERT_EQ(serial.reports.size(), corpus.size());
  EXPECT_EQ(serial.configs_with_errors, 1u);
  EXPECT_GT(serial.total_suspects, serial.unique_replays);

  for (int threads : {2, 4, 0}) {
    const BatchSummary wide = run(threads);
    const std::string at = " @" + std::to_string(threads) + " threads";
    EXPECT_EQ(wide.configs_checked, serial.configs_checked) << at;
    EXPECT_EQ(wide.configs_with_violations, serial.configs_with_violations) << at;
    EXPECT_EQ(wide.configs_with_errors, serial.configs_with_errors) << at;
    EXPECT_EQ(wide.total_violations, serial.total_violations) << at;
    EXPECT_EQ(wide.violations_by_category, serial.violations_by_category) << at;
    EXPECT_EQ(wide.reactions_by_category, serial.reactions_by_category) << at;
    EXPECT_EQ(wide.total_suspects, serial.total_suspects) << at;
    EXPECT_EQ(wide.unique_replays, serial.unique_replays) << at;
    EXPECT_EQ(wide.store_hits, serial.store_hits) << at;
    EXPECT_EQ(wide.store_misses, serial.store_misses) << at;
    EXPECT_EQ(wide.store_appends, serial.store_appends) << at;
    EXPECT_EQ(wide.finalized_overlapped, serial.finalized_overlapped) << at;
    ASSERT_EQ(wide.reports.size(), serial.reports.size()) << at;
    for (size_t i = 0; i < serial.reports.size(); ++i) {
      const ConfigReport& a = serial.reports[i];
      const ConfigReport& b = wide.reports[i];
      const std::string label = a.name + at;
      EXPECT_EQ(b.index, a.index) << label;
      EXPECT_EQ(b.name, a.name) << label;
      EXPECT_EQ(b.status.code(), a.status.code()) << label;
      EXPECT_EQ(b.status.message(), a.status.message()) << label;
      EXPECT_EQ(b.suspects, a.suspects) << label;
      EXPECT_EQ(b.shared_replays, a.shared_replays) << label;
      ExpectSameViolations(a.violations, b.violations, label);
    }
  }
}

TEST(BatchCheckTest, DedupCountersAccountEverySharedExecution) {
  Session session;
  Target* target = LoadFleetServer(session);
  ASSERT_NE(target, nullptr);
  std::vector<ConfigInput> corpus = FleetCorpus();
  BatchOptions options;
  options.check.mode = CheckMode::kDynamic;
  BatchSummary summary = target->CheckConfigBatch(corpus, options);

  // Suspects: garbage-a/b/c + multi share one worker_threads=not_a_number
  // execution (4 contributions, 1 replay). Unique executions: that one,
  // crash's 99, ignored's use_cache=off and its cache_ttl (master riding
  // along as an extra setting), typo's unknown key, clean-2's in-range
  // idle_timeout=120 (a template deviation still gets replayed — it just
  // comes back clean), and multi's cache_kb — 7 replays for 10 suspects.
  EXPECT_EQ(summary.configs_checked, corpus.size());
  EXPECT_EQ(summary.total_suspects, 10u);
  EXPECT_EQ(summary.unique_replays, 7u);
  EXPECT_NEAR(summary.DedupRatio(), 1.0 - 7.0 / 10.0, 1e-9);

  // Per-config view: every contributor to the shared execution reports it.
  size_t shared = 0;
  for (const ConfigReport& report : summary.reports) {
    shared += report.shared_replays;
  }
  EXPECT_EQ(shared, 4u);  // garbage-a, garbage-b, garbage-c, multi.

  // The reaction tally spans every (config, suspect) fan-out.
  size_t reactions = 0;
  for (size_t count : summary.reactions_by_category) {
    reactions += count;
  }
  EXPECT_EQ(reactions, summary.total_suspects);

  // Violation tally matches the reports.
  size_t violations = 0;
  for (const ConfigReport& report : summary.reports) {
    violations += report.violations.size();
  }
  EXPECT_EQ(summary.total_violations, violations);
  // Everyone but the two clean configs (clean-1, and clean-2 whose
  // in-range deviation replays without incident).
  EXPECT_EQ(summary.configs_with_violations, 7u);
}

TEST(BatchCheckTest, WarmBatchBuildsNoNewSnapshots) {
  Session session;
  Target* target = LoadFleetServer(session);
  ASSERT_NE(target, nullptr);
  std::vector<ConfigInput> corpus = FleetCorpus();
  BatchOptions options;
  options.check.mode = CheckMode::kDynamic;

  BatchSummary cold = target->CheckConfigBatch(corpus, options);
  size_t built_cold = target->campaign_cache_stats().snapshots_built;
  EXPECT_GT(built_cold, 0u);

  BatchSummary warm = target->CheckConfigBatch(corpus, options);
  EXPECT_EQ(target->campaign_cache_stats().snapshots_built, built_cold)
      << "second batch over the same fleet must replay from the warm cache";
  ASSERT_EQ(warm.reports.size(), cold.reports.size());
  for (size_t i = 0; i < cold.reports.size(); ++i) {
    ExpectSameViolations(cold.reports[i].violations, warm.reports[i].violations,
                         "warm " + cold.reports[i].name);
  }
}

TEST(BatchCheckTest, ReportsAreInBatchOrder) {
  Session session(SessionOptions{.campaign_threads = 4});
  Target* target = LoadFleetServer(session);
  ASSERT_NE(target, nullptr);
  std::vector<ConfigInput> corpus = FleetCorpus();
  BatchOptions options;
  options.check.mode = CheckMode::kDynamic;
  options.num_threads = 4;  // Ordering holds even for sharded batches.
  BatchSummary summary = target->CheckConfigBatch(corpus, options);

  EXPECT_EQ(summary.configs_checked, corpus.size());
  ASSERT_EQ(summary.reports.size(), corpus.size());
  for (size_t i = 0; i < corpus.size(); ++i) {
    EXPECT_EQ(summary.reports[i].index, i);
    EXPECT_EQ(summary.reports[i].name, corpus[i].name);
  }
}

TEST(BatchCheckTest, EmptyBatchYieldsZeroSummary) {
  Session session;
  Target* target = LoadFleetServer(session);
  ASSERT_NE(target, nullptr);
  BatchSummary summary = target->CheckConfigBatch({}, BatchOptions{});
  EXPECT_EQ(summary.configs_checked, 0u);
  EXPECT_EQ(summary.total_violations, 0u);
  EXPECT_EQ(summary.total_suspects, 0u);
  EXPECT_EQ(summary.unique_replays, 0u);
  EXPECT_EQ(summary.DedupRatio(), 0.0);
  EXPECT_TRUE(summary.reports.empty());
}

TEST(BatchCheckTest, AllCleanBatchReplaysNothing) {
  Session session;
  Target* target = LoadFleetServer(session);
  ASSERT_NE(target, nullptr);
  std::vector<ConfigInput> corpus = {
      {"a.conf", kFleetServerTemplate},
      {"b.conf", "worker_threads = 4\n"},  // Matches the template value.
      {"c.conf", ""},
  };
  BatchOptions options;
  options.check.mode = CheckMode::kDynamic;
  BatchSummary summary = target->CheckConfigBatch(corpus, options);
  EXPECT_EQ(summary.configs_checked, 3u);
  EXPECT_EQ(summary.configs_with_violations, 0u);
  EXPECT_EQ(summary.total_violations, 0u);
  EXPECT_EQ(summary.total_suspects, 0u);
  EXPECT_EQ(summary.unique_replays, 0u);
  EXPECT_EQ(target->campaign_cache_stats().delta_replays +
                target->campaign_cache_stats().full_replays,
            0u);
}

TEST(BatchCheckTest, StaticModeMatchesStaticChecksWithoutReplays) {
  Session session;
  Target* target = LoadFleetServer(session);
  ASSERT_NE(target, nullptr);
  std::vector<ConfigInput> corpus = FleetCorpus();
  BatchOptions options;  // Default: CheckMode::kStatic.
  BatchSummary summary = target->CheckConfigBatch(corpus, options);
  EXPECT_EQ(summary.total_suspects, 0u);
  EXPECT_EQ(summary.unique_replays, 0u);
  for (size_t count : summary.reactions_by_category) {
    EXPECT_EQ(count, 0u);
  }
  for (size_t i = 0; i < corpus.size(); ++i) {
    ExpectSameViolations(target->CheckConfig(corpus[i].text, corpus[i].name),
                         summary.reports[i].violations, "static " + corpus[i].name);
  }
}

// --- Partial-batch error semantics: one poisoned config must error its
// own report line only; every healthy config's verdicts stay bit-identical
// to checking it alone, at every thread count.

TEST(BatchCheckTest, PoisonedParseFailureIsContainedToItsOwnReport) {
  std::vector<ConfigInput> healthy = FleetCorpus();

  // Ground truth: each healthy config checked alone, fresh session.
  std::vector<std::vector<Violation>> independent;
  {
    Session session;
    Target* target = LoadFleetServer(session);
    ASSERT_NE(target, nullptr);
    CheckOptions dynamic;
    dynamic.mode = CheckMode::kDynamic;
    for (const ConfigInput& config : healthy) {
      independent.push_back(target->CheckConfig(config.text, config.name, dynamic));
    }
  }

  // The poisoned config rides mid-batch: a settings line with no '=' in a
  // key=value dialect fails admission validation before any analysis.
  std::vector<ConfigInput> corpus = healthy;
  corpus.insert(corpus.begin() + 3,
                ConfigInput{"poisoned.conf", "worker_threads = 4\nthis line has no equals\n"});

  for (int threads : {1, 4}) {
    Session session(SessionOptions{.campaign_threads = 4});
    Target* target = LoadFleetServer(session);
    ASSERT_NE(target, nullptr);
    BatchOptions options;
    options.check.mode = CheckMode::kDynamic;
    options.num_threads = threads;
    BatchSummary summary = target->CheckConfigBatch(corpus, options);
    ASSERT_EQ(summary.reports.size(), corpus.size());
    EXPECT_EQ(summary.configs_with_errors, 1u);

    const ConfigReport& poisoned = summary.reports[3];
    EXPECT_EQ(poisoned.name, "poisoned.conf");
    EXPECT_EQ(poisoned.status.code(), StatusCode::kInvalidArgument);
    EXPECT_TRUE(poisoned.violations.empty())
        << "an unparseable config contributes no verdicts, only its error";
    EXPECT_EQ(poisoned.suspects, 0u);

    // Every healthy report is bit-identical to its independent check —
    // indices shifted by one past the insertion point.
    for (size_t i = 0; i < healthy.size(); ++i) {
      size_t batch_index = i < 3 ? i : i + 1;
      EXPECT_TRUE(summary.reports[batch_index].status.ok()) << healthy[i].name;
      ExpectSameViolations(independent[i], summary.reports[batch_index].violations,
                           healthy[i].name + " beside poison @" + std::to_string(threads) +
                               " threads");
    }
  }
}

TEST(BatchCheckTest, DeadlineExceededMarksOnlyConfigsWhoseReplaysTimedOut) {
  // Clean configs have no suspects, so a per-replay deadline that expires
  // instantly can only touch the configs that actually replay.
  std::vector<ConfigInput> corpus = {
      {"clean-1.conf", kFleetServerTemplate},
      {"poisoned.conf", "worker_threads = 99\n"},
      {"clean-2.conf", ""},
      {"also-poisoned.conf", "worker_threads = 99\n"},  // Shares the replay.
  };

  for (int threads : {1, 4}) {
    Session session(SessionOptions{.campaign_threads = 4});
    Target* target = LoadFleetServer(session);
    ASSERT_NE(target, nullptr);
    BatchOptions options;
    options.check.mode = CheckMode::kDynamic;
    options.check.deadline = std::chrono::nanoseconds(1);  // Expired at first poll.
    options.num_threads = threads;
    BatchSummary summary = target->CheckConfigBatch(corpus, options);
    ASSERT_EQ(summary.reports.size(), corpus.size());

    std::string label = "@" + std::to_string(threads) + " threads";
    EXPECT_TRUE(summary.reports[0].status.ok()) << label;
    EXPECT_TRUE(summary.reports[2].status.ok()) << label;
    EXPECT_EQ(summary.configs_with_errors, 2u) << label;
    // The two sharers of the timed-out replay each report it — exactly as
    // two independent timed-out checks would.
    for (size_t index : {size_t{1}, size_t{3}}) {
      const ConfigReport& report = summary.reports[index];
      EXPECT_EQ(report.status.code(), StatusCode::kDeadlineExceeded) << label;
      // Static findings survive; the dynamic verdict is the checker's own
      // deadline, never a claim about the SUT's reaction.
      ASSERT_FALSE(report.violations.empty()) << label;
      for (const Violation& violation : report.violations) {
        ASSERT_TRUE(violation.reaction.has_value()) << label;
        EXPECT_EQ(*violation.reaction, ReactionCategory::kDeadlineExceeded) << label;
      }
    }
  }
}

TEST(BatchCheckTest, ValidateConfigTextFlagsOnlyStructuralFailures) {
  EXPECT_TRUE(ValidateConfigText("", ConfigDialect::kKeyEqualsValue).ok());
  EXPECT_TRUE(ValidateConfigText("# comment\n\nkey = value\n", ConfigDialect::kKeyEqualsValue).ok());
  EXPECT_EQ(ValidateConfigText("key value no equals\n", ConfigDialect::kKeyEqualsValue).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ValidateConfigText("= dangling\n", ConfigDialect::kKeyEqualsValue).code(),
            StatusCode::kInvalidArgument);
  // Bare directives are legal key-value dialect (Apache/Squid style flags).
  EXPECT_TRUE(ValidateConfigText("PassivePorts 30000 31000\nUseIPv6\n",
                                 ConfigDialect::kKeyValue)
                  .ok());
}

// The one documented gap between a batch report and CheckConfig: in the
// key=value dialect, a settings line with no '='. CheckConfig parses the
// text leniently and checks what it finds; the batch rejects the config at
// admission (ValidateConfigText) and reports no violations for it.
TEST(BatchCheckTest, LineWithoutEqualsIsRejectedByTheBatchButCheckedByCheckConfig) {
  Session session;
  Target* target = session.LoadTarget("mysql");
  ASSERT_NE(target, nullptr) << session.RenderDiagnostics();
  const std::string text = "max_connections 5000\n";
  CheckOptions dynamic;
  dynamic.mode = CheckMode::kDynamic;

  std::vector<Violation> single = target->CheckConfig(text, "my.cnf", dynamic);
  ASSERT_EQ(single.size(), 1u);
  EXPECT_EQ(single[0].category, ViolationCategory::kUnknownParam);
  EXPECT_TRUE(single[0].reaction.has_value()) << "the lenient parse still replays the line";

  BatchOptions options;
  options.check = dynamic;
  const std::vector<ConfigInput> fleet = {{"my.cnf", text}};
  BatchSummary summary = target->CheckConfigBatch(fleet, options);
  ASSERT_EQ(summary.reports.size(), 1u);
  const ConfigReport& report = summary.reports[0];
  EXPECT_EQ(report.status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(report.status.message(), "line 1: settings line has no '='");
  EXPECT_TRUE(report.violations.empty());
  EXPECT_EQ(summary.configs_with_errors, 1u);
  EXPECT_EQ(summary.total_violations, 0u);
}

TEST(BatchCheckTest, ExecutionKeySeparatesEveryReplayRelevantField) {
  Misconfiguration base;
  base.param = "worker_threads";
  base.value = "99";
  base.kind = ViolationKind::kRange;
  base.rule = "rule-a";
  base.intended_numeric = 99;

  // Label-only fields do not split the key: the same execution serves
  // suspects whose finding is described differently.
  Misconfiguration relabeled = base;
  relabeled.kind = ViolationKind::kBasicType;
  relabeled.rule = "rule-b";
  relabeled.constraint_loc.line = 42;
  EXPECT_EQ(SuspectExecutionKey(base), SuspectExecutionKey(relabeled));

  // Every replay-observable field does.
  Misconfiguration other = base;
  other.value = "100";
  EXPECT_NE(SuspectExecutionKey(base), SuspectExecutionKey(other));
  other = base;
  other.intended_numeric = std::nullopt;
  EXPECT_NE(SuspectExecutionKey(base), SuspectExecutionKey(other));
  other = base;
  other.expect_ignored = true;
  EXPECT_NE(SuspectExecutionKey(base), SuspectExecutionKey(other));
  other = base;
  other.extra_settings.emplace_back("use_cache", "off");
  EXPECT_NE(SuspectExecutionKey(base), SuspectExecutionKey(other));

  // Hostile content cannot collide two different executions: the key is
  // length-prefixed, not separator-joined.
  Misconfiguration tricky_a = base;
  tricky_a.extra_settings.emplace_back("a", "b\x1e" "c");
  Misconfiguration tricky_b = base;
  tricky_b.extra_settings.emplace_back("a", "b");
  tricky_b.extra_settings.emplace_back("c", "");
  EXPECT_NE(SuspectExecutionKey(tricky_a), SuspectExecutionKey(tricky_b));
}

}  // namespace
}  // namespace spex
