// Version-matrix checking (Session::CheckMatrix + matrix_diff): every
// cell bit-identical to an independent per-version CheckConfigBatch
// (serial and sharded), transition classification between seeded
// versions, warm column-refresh replaying only the bumped version,
// per-version failure containment, and the order the summary holds.
#include "src/matrix/matrix_check.h"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "src/api/session.h"
#include "src/matrix/matrix_diff.h"
#include "src/matrix/version_set.h"
#include "src/support/verdict_store.h"

namespace spex {
namespace {

// The batch_check_test fleet server, used here as "version 1".
constexpr const char* kServerV1 = R"(
  struct config_int { char *name; int *variable; int min; int max; };
  int worker_threads = 4;
  int idle_timeout = 60;
  int cache_kb = 2048;
  int cache_ttl = 300;
  int slots[64];
  int started = 0;
  struct config_int int_options[] = {
    { "worker_threads", &worker_threads, 1, 64 },
    { "idle_timeout", &idle_timeout, 0, 3600 },
    { "cache_kb", &cache_kb, 64, 1048576 },
    { "cache_ttl", &cache_ttl, 1, 86400 },
  };
  int handle_config_line(char *key, char *value) {
    int i;
    for (i = 0; i < 4; i++) {
      if (!strcmp(int_options[i].name, key)) {
        *int_options[i].variable = atoi(value);
        return 0;
      }
    }
    return 0;
  }
  int server_init() {
    int i;
    for (i = 0; i < worker_threads; i++) { slots[i] = 1; }
    long bytes = cache_kb * 1024;
    malloc(bytes);
    sleep(idle_timeout);
    sleep(cache_ttl);
    started = 1;
    return 0;
  }
  int test_started() { return started; }
)";

// "Version 2": the upgrade tightens worker_threads (64 -> 8: a regression
// for worker_threads=12), widens idle_timeout (3600 -> 7200: a fix for
// idle_timeout=5400), and raises cache_kb's floor (64 -> 128: cache_kb=32
// is flagged on both sides but the accepted-range text changes — a
// changed reaction, not a fix+regression pair).
constexpr const char* kServerV2 = R"(
  struct config_int { char *name; int *variable; int min; int max; };
  int worker_threads = 4;
  int idle_timeout = 60;
  int cache_kb = 2048;
  int cache_ttl = 300;
  int slots[64];
  int started = 0;
  struct config_int int_options[] = {
    { "worker_threads", &worker_threads, 1, 8 },
    { "idle_timeout", &idle_timeout, 0, 7200 },
    { "cache_kb", &cache_kb, 128, 1048576 },
    { "cache_ttl", &cache_ttl, 1, 86400 },
  };
  int handle_config_line(char *key, char *value) {
    int i;
    for (i = 0; i < 4; i++) {
      if (!strcmp(int_options[i].name, key)) {
        *int_options[i].variable = atoi(value);
        return 0;
      }
    }
    return 0;
  }
  int server_init() {
    int i;
    for (i = 0; i < worker_threads; i++) { slots[i] = 1; }
    long bytes = cache_kb * 1024;
    malloc(bytes);
    sleep(idle_timeout);
    sleep(cache_ttl);
    started = 1;
    return 0;
  }
  int test_started() { return started; }
)";

constexpr const char* kAnnotations =
    "@STRUCT int_options { par = 0, var = 1, min = 2, max = 3 }";

constexpr const char* kTemplate =
    "worker_threads = 4\n"
    "idle_timeout = 60\n"
    "cache_kb = 2048\n"
    "cache_ttl = 300\n";

SutSpec FleetSut() {
  SutSpec sut;
  sut.tests.push_back({"started", "test_started", 1, 1});
  for (const char* param :
       {"worker_threads", "idle_timeout", "cache_kb", "cache_ttl"}) {
    sut.param_storage[param] = param;
  }
  return sut;
}

TargetVersion MakeVersion(const std::string& label, const char* source) {
  TargetVersion version;
  version.label = label;
  version.source = source;
  version.annotations = kAnnotations;
  version.file_name = label + ".c";
  version.sut = FleetSut();
  version.template_config = kTemplate;
  return version;
}

// One config per transition kind, plus the clean template.
std::vector<ConfigInput> MatrixFleet() {
  return {
      {"clean.conf", kTemplate},
      {"threads-12.conf", "worker_threads = 12\n"},   // v1 OK, v2 flags: regression.
      {"idle-5400.conf", "idle_timeout = 5400\n"},    // v1 flags, v2 OK: fix.
      {"cache-32.conf", "cache_kb = 32\n"},           // Flagged both, text changes.
      {"ttl-0.conf", "cache_ttl = 0\n"},              // Flagged both, identically.
  };
}

std::string TempStorePath(const std::string& tag) {
  std::string path =
      (std::filesystem::temp_directory_path() / ("spex_matrix_test_" + tag + ".vst"))
          .string();
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".lock");
  return path;
}

// Field-by-field Violation equality including every dynamic-verdict field
// — the "bit-identical to an independent batch" bar.
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

Transition TransitionFor(const MatrixSummary& summary, const std::string& config) {
  for (const ConfigTransition& transition : summary.transitions) {
    if (transition.config == config) {
      return transition.transition;
    }
  }
  ADD_FAILURE() << "no transition recorded for " << config;
  return Transition::kStable;
}

TEST(MatrixCheckTest, CellsBitIdenticalToIndependentBatchesAtEveryThreadCount) {
  std::vector<ConfigInput> fleet = MatrixFleet();
  std::vector<TargetVersion> versions = {MakeVersion("v1", kServerV1),
                                         MakeVersion("v2", kServerV2)};

  // Ground truth: one independent CheckConfigBatch per version, each on
  // its own session so no matrix state can leak into the reference.
  std::vector<BatchSummary> independent;
  for (const TargetVersion& version : versions) {
    Session session;
    Target* target =
        session.LoadSource(version.source, version.annotations, version.file_name,
                           version.dialect, version.sut, version.template_config);
    ASSERT_NE(target, nullptr) << session.RenderDiagnostics();
    BatchOptions options;
    options.check.mode = CheckMode::kDynamic;
    independent.push_back(target->CheckConfigBatch(fleet, options));
  }

  for (int threads : {1, 4}) {
    Session session(SessionOptions{.campaign_threads = 4});
    MatrixOptions options;
    options.check.mode = CheckMode::kDynamic;
    options.num_threads = threads;
    MatrixSummary summary = session.CheckMatrix(versions, fleet, options);
    ASSERT_EQ(summary.versions_checked, versions.size());
    ASSERT_EQ(summary.columns.size(), versions.size());
    EXPECT_EQ(summary.cells, versions.size() * fleet.size());
    for (size_t v = 0; v < versions.size(); ++v) {
      const BatchSummary& column = summary.columns[v].batch;
      ASSERT_EQ(column.reports.size(), fleet.size());
      for (size_t c = 0; c < fleet.size(); ++c) {
        ExpectSameViolations(independent[v].reports[c].violations,
                             column.reports[c].violations,
                             versions[v].label + "/" + fleet[c].name + " @" +
                                 std::to_string(threads) + " threads");
      }
    }
  }
}

TEST(MatrixCheckTest, ClassifiesTransitionsBetweenSeededVersions) {
  Session session;
  std::vector<ConfigInput> fleet = MatrixFleet();
  std::vector<TargetVersion> versions = {MakeVersion("v1", kServerV1),
                                         MakeVersion("v2", kServerV2)};
  MatrixOptions options;
  options.check.mode = CheckMode::kDynamic;
  MatrixSummary summary = session.CheckMatrix(versions, fleet, options);

  ASSERT_EQ(summary.versions_checked, 2u);
  ASSERT_EQ(summary.transitions.size(), fleet.size());
  EXPECT_EQ(TransitionFor(summary, "clean.conf"), Transition::kStable);
  EXPECT_EQ(TransitionFor(summary, "threads-12.conf"), Transition::kRegression);
  EXPECT_EQ(TransitionFor(summary, "idle-5400.conf"), Transition::kFix);
  EXPECT_EQ(TransitionFor(summary, "cache-32.conf"), Transition::kChangedReaction);
  EXPECT_EQ(TransitionFor(summary, "ttl-0.conf"), Transition::kStable);

  EXPECT_TRUE(summary.AnyRegression());
  EXPECT_EQ(summary.transitions_by_kind[static_cast<size_t>(Transition::kRegression)], 1u);
  EXPECT_EQ(summary.transitions_by_kind[static_cast<size_t>(Transition::kFix)], 1u);
  EXPECT_EQ(
      summary.transitions_by_kind[static_cast<size_t>(Transition::kChangedReaction)], 1u);
  EXPECT_EQ(summary.transitions_by_kind[static_cast<size_t>(Transition::kStable)], 2u);

  // Rollups: the regressed config carries it, the clean one stays empty.
  EXPECT_EQ(summary.per_config[1].name, "threads-12.conf");
  EXPECT_EQ(summary.per_config[1].regressions, 1u);
  EXPECT_EQ(summary.per_config[1].versions_with_violations, 1u);
  EXPECT_EQ(summary.per_config[0].regressions, 0u);
  EXPECT_EQ(summary.per_config[0].versions_with_violations, 0u);

  // The regression's detail names the newly flagged setting.
  for (const ConfigTransition& transition : summary.transitions) {
    if (transition.config == "threads-12.conf") {
      EXPECT_EQ(transition.added, 1u);
      EXPECT_EQ(transition.removed, 0u);
      EXPECT_NE(transition.detail.find("worker_threads"), std::string::npos)
          << transition.detail;
    }
  }
}

TEST(MatrixCheckTest, WarmColumnRefreshReplaysOnlyBumpedVersion) {
  std::vector<ConfigInput> fleet = MatrixFleet();
  std::string path = TempStorePath("warm_refresh");

  // Cold pass seeds both versions' scopes.
  {
    Session session;
    MatrixOptions options;
    options.check.mode = CheckMode::kDynamic;
    options.store = VerdictStore::Open(path);
    MatrixSummary cold = session.CheckMatrix(
        std::vector<TargetVersion>{MakeVersion("v1", kServerV1),
                                   MakeVersion("v2", kServerV2)},
        fleet, options);
    ASSERT_EQ(cold.versions_checked, 2u);
    EXPECT_GT(cold.unique_replays, 0u);
    EXPECT_EQ(cold.store_hits, 0u);
  }

  // Warm pass with v2 bumped (its source changed, so it lands in a fresh
  // store scope): the unchanged v1 column is served entirely from disk,
  // only the bumped column replays.
  std::string bumped = std::string(kServerV2);
  bumped.replace(bumped.find("{ \"worker_threads\", &worker_threads, 1, 8 }"),
                 std::strlen("{ \"worker_threads\", &worker_threads, 1, 8 }"),
                 "{ \"worker_threads\", &worker_threads, 1, 16 }");
  Session session;
  MatrixOptions options;
  options.check.mode = CheckMode::kDynamic;
  options.store = VerdictStore::Open(path);
  TargetVersion v3 = MakeVersion("v3", kServerV2);
  v3.source = bumped;
  MatrixSummary warm = session.CheckMatrix(
      std::vector<TargetVersion>{MakeVersion("v1", kServerV1), v3}, fleet, options);
  ASSERT_EQ(warm.versions_checked, 2u);
  EXPECT_EQ(warm.columns[0].batch.unique_replays, 0u) << "unchanged column must not replay";
  EXPECT_GT(warm.columns[0].batch.store_hits, 0u);
  EXPECT_GT(warm.columns[1].batch.unique_replays, 0u) << "bumped column must replay";
  EXPECT_EQ(warm.columns[1].batch.store_hits, 0u);

  std::filesystem::remove(path);
  std::filesystem::remove(path + ".lock");
}

TEST(MatrixCheckTest, ContainsVersionLoadFailuresAndDiffsAcrossThem) {
  Session session;
  std::vector<ConfigInput> fleet = MatrixFleet();
  TargetVersion broken = MakeVersion("broken", "int f( {");
  std::vector<TargetVersion> versions = {MakeVersion("v1", kServerV1), broken,
                                         MakeVersion("v2", kServerV2)};
  MatrixOptions options;
  options.check.mode = CheckMode::kDynamic;
  MatrixSummary summary = session.CheckMatrix(versions, fleet, options);

  EXPECT_EQ(summary.versions_requested, 3u);
  EXPECT_EQ(summary.versions_checked, 2u);
  ASSERT_EQ(summary.columns.size(), 3u);
  EXPECT_TRUE(summary.columns[0].status.ok());
  EXPECT_FALSE(summary.columns[1].status.ok());
  EXPECT_TRUE(summary.columns[2].status.ok());
  // The failed middle version is skipped, not a diff barrier: transitions
  // connect v1 directly to v2.
  ASSERT_EQ(summary.transitions.size(), fleet.size());
  EXPECT_EQ(summary.transitions[0].from_label, "v1");
  EXPECT_EQ(summary.transitions[0].to_label, "v2");
  EXPECT_TRUE(summary.AnyRegression());
}

TEST(MatrixCheckTest, ValidatesVersionSpecs) {
  TargetVersion neither;
  EXPECT_EQ(ValidateVersion(neither).code(), StatusCode::kInvalidArgument);

  TargetVersion both;
  both.corpus = "squid";
  both.source = "int x;";
  EXPECT_EQ(ValidateVersion(both).code(), StatusCode::kInvalidArgument);

  TargetVersion unknown;
  unknown.corpus = "no-such-target";
  EXPECT_EQ(ValidateVersion(unknown).code(), StatusCode::kNotFound);

  TargetVersion corpus;
  corpus.corpus = "squid";
  EXPECT_TRUE(ValidateVersion(corpus).ok());
}

// The summary is the whole report, in the order spexcheck writes it:
// columns in request order, each column's cells in batch order, and
// transitions version-major (every config of one version pair, then the
// next pair).
TEST(MatrixCheckTest, SummaryOrdersColumnsCellsAndTransitions) {
  Session session;
  std::vector<ConfigInput> fleet = {{"a.conf", "worker_threads = 12\n"},
                                    {"b.conf", "cache_ttl = 0\n"},
                                    {"c.conf", "idle_timeout = 5400\n"}};
  std::vector<TargetVersion> versions = {MakeVersion("v1", kServerV1),
                                         MakeVersion("v2", kServerV2),
                                         MakeVersion("v3", kServerV1)};
  MatrixOptions options;
  options.check.mode = CheckMode::kDynamic;
  MatrixSummary summary = session.CheckMatrix(versions, fleet, options);

  ASSERT_EQ(summary.columns.size(), versions.size());
  for (size_t v = 0; v < versions.size(); ++v) {
    const VersionReport& column = summary.columns[v];
    EXPECT_EQ(column.index, v);
    EXPECT_EQ(column.label, versions[v].label);
    ASSERT_TRUE(column.status.ok()) << column.status.message();
    ASSERT_EQ(column.batch.reports.size(), fleet.size());
    for (size_t c = 0; c < fleet.size(); ++c) {
      EXPECT_EQ(column.batch.reports[c].index, c);
      EXPECT_EQ(column.batch.reports[c].name, fleet[c].name);
    }
  }

  ASSERT_EQ(summary.transitions.size(), (versions.size() - 1) * fleet.size());
  for (size_t t = 0; t < summary.transitions.size(); ++t) {
    const ConfigTransition& transition = summary.transitions[t];
    EXPECT_EQ(transition.from_version, t / fleet.size()) << t;
    EXPECT_EQ(transition.to_version, t / fleet.size() + 1) << t;
    EXPECT_EQ(transition.config_index, t % fleet.size()) << t;
    EXPECT_EQ(transition.config, fleet[t % fleet.size()].name) << t;
  }
  // v1 -> v2 breaks a.conf and fixes c.conf; the rollback v2 -> v3 undoes both.
  EXPECT_EQ(summary.transitions[0].transition, Transition::kRegression);
  EXPECT_EQ(summary.transitions[2].transition, Transition::kFix);
  EXPECT_EQ(summary.transitions[3].transition, Transition::kFix);
  EXPECT_EQ(summary.transitions[5].transition, Transition::kRegression);
}

// ClassifyTransition's severity precedence, on hand-built reports: a pair
// that both adds and removes findings is a regression.
TEST(MatrixDiffTest, SeverityPrefersRegressionOverFix) {
  Violation removed;
  removed.param = "a";
  removed.value = "1";
  removed.line = 1;
  removed.message = "old finding";
  Violation added;
  added.param = "b";
  added.value = "2";
  added.line = 2;
  added.message = "new finding";

  ConfigReport before;
  before.violations.push_back(removed);
  ConfigReport after;
  after.violations.push_back(added);

  size_t n_added = 0;
  size_t n_removed = 0;
  size_t n_changed = 0;
  std::string detail;
  Transition transition =
      ClassifyTransition(before, after, &n_added, &n_removed, &n_changed, &detail);
  EXPECT_EQ(transition, Transition::kRegression);
  EXPECT_EQ(n_added, 1u);
  EXPECT_EQ(n_removed, 1u);
  EXPECT_EQ(n_changed, 0u);
  EXPECT_NE(detail.find("+ "), std::string::npos) << detail;
}

TEST(MatrixDiffTest, SameSettingDifferentVerdictIsChangedReaction) {
  Violation v1;
  v1.param = "cache_kb";
  v1.value = "32";
  v1.line = 1;
  v1.message = "accepted range: [64, 1048576]";
  Violation v2 = v1;
  v2.message = "accepted range: [128, 1048576]";

  ConfigReport before;
  before.violations.push_back(v1);
  ConfigReport after;
  after.violations.push_back(v2);

  std::string detail;
  Transition transition = ClassifyTransition(before, after, nullptr, nullptr, nullptr,
                                             &detail);
  EXPECT_EQ(transition, Transition::kChangedReaction);
  EXPECT_NE(detail.find("~ "), std::string::npos) << detail;
}

}  // namespace
}  // namespace spex
