// SPEX-INJ tests: generation rules (Table 2) and reaction classification
// (Table 3) on small live targets.
#include "src/inject/campaign.h"
#include "src/inject/generator.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "src/core/engine.h"
#include "src/corpus/pipeline.h"
#include "src/ir/lowering.h"
#include "src/lang/parser.h"
#include "src/support/strings.h"

namespace spex {
namespace {

// Builds constraints for a param set without running a real target.
ParamConstraints IntParam(const std::string& name, const IrType* type) {
  ParamConstraints param;
  param.param = name;
  BasicTypeConstraint basic;
  basic.type = type;
  param.basic_type = basic;
  return param;
}

TEST(GeneratorTest, BasicTypeRuleCoversTypedErrors) {
  TypeTable types;
  ModuleConstraints constraints;
  constraints.params.push_back(IntParam("threads", types.IntType(32, false)));
  MisconfigGenerator generator;
  auto configs = generator.Generate(constraints);
  ASSERT_GE(configs.size(), 4u);
  std::set<std::string> values;
  for (const auto& config : configs) {
    EXPECT_EQ(config.param, "threads");
    EXPECT_EQ(config.kind, ViolationKind::kBasicType);
    values.insert(config.value);
  }
  EXPECT_TRUE(values.count("not_a_number"));
  EXPECT_TRUE(values.count("9000000000"));  // 32-bit overflow
  EXPECT_TRUE(values.count("9G"));
  EXPECT_TRUE(values.count("100000"));  // large-but-representable
}

TEST(GeneratorTest, NoOverflowValueFor64BitParams) {
  TypeTable types;
  ModuleConstraints constraints;
  constraints.params.push_back(IntParam("big", types.IntType(64, false)));
  MisconfigGenerator generator;
  for (const auto& config : generator.Generate(constraints)) {
    EXPECT_NE(config.value, "9000000000") << "9e9 fits in 64 bits; not a violation";
  }
}

TEST(GeneratorTest, StringParamsGetNoBasicTypeViolations) {
  TypeTable types;
  ModuleConstraints constraints;
  constraints.params.push_back(IntParam("name", types.string_type()));
  MisconfigGenerator generator;
  EXPECT_TRUE(generator.Generate(constraints).empty());
}

TEST(GeneratorTest, RangeRuleHitsBothEdges) {
  TypeTable types;
  ModuleConstraints constraints;
  ParamConstraints param = IntParam("len", types.IntType(32, false));
  RangeConstraint range;
  RangeInterval low{std::nullopt, 3, false};
  RangeInterval mid{4, 255, true};
  RangeInterval high{256, std::nullopt, false};
  range.intervals = {low, mid, high};
  param.range = range;
  constraints.params.push_back(param);

  MisconfigGenerator generator;
  std::set<std::string> range_values;
  for (const auto& config : generator.Generate(constraints)) {
    if (config.kind == ViolationKind::kRange) {
      range_values.insert(config.value);
    }
  }
  EXPECT_TRUE(range_values.count("3"));    // just below
  EXPECT_TRUE(range_values.count("256"));  // just above
  EXPECT_TRUE(range_values.count("1255"));  // far above
}

TEST(GeneratorTest, EnumRuleGeneratesUnlistedAndCaseFlip) {
  TypeTable types;
  ModuleConstraints constraints;
  ParamConstraints param = IntParam("mode", types.string_type());
  param.basic_type.reset();
  RangeConstraint range;
  range.is_enum = true;
  range.enum_strings = {"Barracuda", "Antelope"};
  param.range = range;
  constraints.params.push_back(param);

  MisconfigGenerator generator;
  std::set<std::string> values;
  for (const auto& config : generator.Generate(constraints)) {
    values.insert(config.value);
  }
  EXPECT_TRUE(values.count("no_such_value"));
  EXPECT_TRUE(values.count("barracuda"));  // case-flipped accepted value
}

TEST(GeneratorTest, ControlDepViolationUsesFalsyWordForBooleanMaster) {
  TypeTable types;
  ModuleConstraints constraints;
  ParamConstraints master = IntParam("fsync", types.string_type());
  master.basic_type.reset();
  RangeConstraint bool_range;
  bool_range.is_enum = true;
  bool_range.enum_strings = {"on", "off"};
  master.range = bool_range;
  SemanticTypeConstraint boolean;
  boolean.semantic = SemanticType::kBoolean;
  master.semantic_types.push_back(boolean);
  constraints.params.push_back(master);

  ControlDepConstraint dep;
  dep.master = "fsync";
  dep.dependent = "commit_siblings";
  dep.pred = IrCmpPred::kNe;
  dep.value = 0;
  constraints.control_deps.push_back(dep);

  auto configs = GenerateControlDepViolations(constraints);
  ASSERT_EQ(configs.size(), 1u);
  EXPECT_EQ(configs[0].param, "commit_siblings");
  EXPECT_TRUE(configs[0].expect_ignored);
  ASSERT_EQ(configs[0].extra_settings.size(), 1u);
  EXPECT_EQ(configs[0].extra_settings[0].first, "fsync");
  EXPECT_EQ(configs[0].extra_settings[0].second, "off");
}

TEST(GeneratorTest, ValueRelViolationInvertsTheRelation) {
  ModuleConstraints constraints;
  ValueRelConstraint rel;
  rel.lhs = "min_len";
  rel.rhs = "max_len";
  rel.pred = IrCmpPred::kLt;
  constraints.value_rels.push_back(rel);
  auto configs = GenerateValueRelViolations(constraints);
  ASSERT_EQ(configs.size(), 1u);
  auto lhs = ParseInt64(configs[0].value);
  auto rhs = ParseInt64(configs[0].extra_settings[0].second);
  ASSERT_TRUE(lhs.has_value() && rhs.has_value());
  EXPECT_GE(*lhs, *rhs) << "generated pair must violate min < max";
}

// --- Campaign classification on a live micro-target.

struct MicroTarget {
  DiagnosticEngine diags;
  std::unique_ptr<Module> module;
  SutSpec sut;

  explicit MicroTarget(std::string_view source) {
    auto unit = ParseSource(source, "micro.c", &diags);
    EXPECT_FALSE(diags.HasErrors()) << diags.Render();
    module = LowerToIr(*unit, &diags);
    sut.parse_function = "handle_config_line";
    sut.init_function = "server_init";
  }
};

constexpr const char* kMicroSource = R"(
  int threads = 4;
  int slots[8];
  int ok_feature = 1;
  int handle_config_line(char *key, char *value) {
    if (!strcasecmp(key, "threads")) { threads = atoi(value); return 0; }
    log_warn("unknown directive: %s", key);
    return 0;
  }
  int server_init() {
    int i;
    for (i = 0; i < threads; i++) { slots[i] = 1; }
    return 0;
  }
  int test_feature() { return ok_feature; }
)";

Misconfiguration Inject(const std::string& value, std::optional<int64_t> intended) {
  Misconfiguration config;
  config.param = "threads";
  config.value = value;
  config.kind = ViolationKind::kBasicType;
  config.rule = "test";
  config.intended_numeric = intended;
  return config;
}

TEST(CampaignTest, BaselinePassesAndCrashClassified) {
  MicroTarget target(kMicroSource);
  target.sut.tests.push_back({"feature", "test_feature", 1, 1});
  target.sut.param_storage["threads"] = "threads";
  InjectionCampaign campaign(*target.module, target.sut, OsSimulator::StandardEnvironment());
  ConfigFile config = ConfigFile::Parse("threads = 4\n", ConfigDialect::kKeyEqualsValue);
  EXPECT_TRUE(campaign.BaselinePasses(config));

  InjectionResult crash = campaign.RunOne(config, Inject("100000", 100000));
  EXPECT_EQ(crash.category, ReactionCategory::kCrashHang);

  InjectionResult silent = campaign.RunOne(config, Inject("not_a_number", std::nullopt));
  EXPECT_EQ(silent.category, ReactionCategory::kSilentViolation);

  InjectionResult fine = campaign.RunOne(config, Inject("6", 6));
  EXPECT_EQ(fine.category, ReactionCategory::kNoIssue);
}

TEST(CampaignTest, PinpointingTurnsRejectionIntoGoodReaction) {
  MicroTarget target(R"(
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
  )");
  target.sut.param_storage["threads"] = "threads";
  InjectionCampaign campaign(*target.module, target.sut, OsSimulator::StandardEnvironment());
  ConfigFile config = ConfigFile::Parse("threads = 4\n", ConfigDialect::kKeyEqualsValue);
  InjectionResult result = campaign.RunOne(config, Inject("not_a_number", std::nullopt));
  EXPECT_EQ(result.category, ReactionCategory::kGoodReaction);
  EXPECT_TRUE(result.pinpointed);
}

TEST(CampaignTest, RejectionWithoutMessageIsEarlyTermination) {
  MicroTarget target(R"(
    int threads = 4;
    int handle_config_line(char *key, char *value) {
      if (!strcasecmp(key, "threads")) {
        int v;
        if (parse_int_strict(value, &v) < 0) { return -1; }
        threads = v;
      }
      return 0;
    }
    int server_init() { return 0; }
  )");
  InjectionCampaign campaign(*target.module, target.sut, OsSimulator::StandardEnvironment());
  ConfigFile config = ConfigFile::Parse("threads = 4\n", ConfigDialect::kKeyEqualsValue);
  InjectionResult result = campaign.RunOne(config, Inject("garbage!", std::nullopt));
  EXPECT_EQ(result.category, ReactionCategory::kEarlyTermination);
}

TEST(CampaignTest, StopAtFirstFailureRunsFewerTests) {
  MicroTarget target(R"(
    int broken = 0;
    int handle_config_line(char *key, char *value) {
      if (!strcasecmp(key, "broken")) { broken = atoi(value); }
      return 0;
    }
    int server_init() { return 0; }
    int test_a() { return broken == 0; }
    int test_b() { return 1; }
    int test_c() { return 1; }
  )");
  target.sut.tests.push_back({"a", "test_a", 1, 1});
  target.sut.tests.push_back({"b", "test_b", 1, 2});
  target.sut.tests.push_back({"c", "test_c", 1, 3});
  ConfigFile config = ConfigFile::Parse("broken = 0\n", ConfigDialect::kKeyEqualsValue);
  Misconfiguration inject;
  inject.param = "broken";
  inject.value = "1";
  inject.kind = ViolationKind::kBasicType;
  inject.intended_numeric = 1;

  CampaignOptions stop;
  stop.stop_at_first_failure = true;
  InjectionCampaign fast(*target.module, target.sut, OsSimulator::StandardEnvironment(), stop);
  CampaignOptions no_stop;
  no_stop.stop_at_first_failure = false;
  InjectionCampaign slow(*target.module, target.sut, OsSimulator::StandardEnvironment(),
                         no_stop);
  EXPECT_LT(fast.RunOne(config, inject).tests_run, slow.RunOne(config, inject).tests_run);
}

// Bit-identical comparison of two campaign summaries — the contract both
// the parallel fan-out and the snapshot-replay path must uphold.
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

CampaignSummary Summarize(std::vector<InjectionResult> results) {
  CampaignSummary summary;
  summary.results = std::move(results);
  for (const InjectionResult& result : summary.results) {
    summary.total_tests_run += result.tests_run;
  }
  return summary;
}

// Ground truth: every config by full replay, in batch order — ReplayExternal
// with the snapshot path off runs the same FullReplay a campaign falls back to.
CampaignSummary FullReplaySummary(InjectionCampaign& campaign, const ConfigFile& template_config,
                                  const std::vector<Misconfiguration>& configs,
                                  ThreadPool* pool = nullptr, size_t workers = 1) {
  return Summarize(campaign.ReplayExternal(template_config, configs,
                                           /*use_parse_snapshot=*/false, {}, nullptr, pool,
                                           workers));
}

// Ground truth one config at a time: RunOne never touches the snapshot cache.
CampaignSummary RunOneSummary(InjectionCampaign& campaign, const ConfigFile& template_config,
                              const std::vector<Misconfiguration>& configs) {
  std::vector<InjectionResult> results;
  for (const Misconfiguration& config : configs) {
    results.push_back(campaign.RunOne(template_config, config));
  }
  return Summarize(std::move(results));
}

TEST(CampaignParallelTest, ParallelRunAllMatchesSerialOnSquid) {
  DiagnosticEngine diags;
  ApiRegistry apis = ApiRegistry::BuiltinC();
  TargetAnalysis analysis = AnalyzeTarget(FindTarget("squid"), apis, &diags);
  ASSERT_FALSE(diags.HasErrors()) << diags.Render();

  MisconfigGenerator generator;
  std::vector<Misconfiguration> configs = generator.Generate(analysis.constraints);
  ASSERT_GT(configs.size(), 10u);
  ConfigFile template_config =
      ConfigFile::Parse(analysis.bundle.template_config, analysis.bundle.dialect);

  InjectionCampaign serial(*analysis.module, analysis.bundle.sut,
                           OsSimulator::StandardEnvironment());
  CampaignSummary serial_summary = serial.RunAll(template_config, configs);

  ThreadPool pool(3);
  InjectionCampaign parallel(*analysis.module, analysis.bundle.sut,
                             OsSimulator::StandardEnvironment());
  CampaignSummary parallel_summary =
      parallel.RunAll(template_config, configs, nullptr, &pool, /*workers=*/4);

  ASSERT_EQ(parallel_summary.results.size(), serial_summary.results.size());
  for (size_t i = 0; i < serial_summary.results.size(); ++i) {
    const InjectionResult& a = serial_summary.results[i];
    const InjectionResult& b = parallel_summary.results[i];
    ASSERT_EQ(a.config.param, b.config.param) << "result order diverged at " << i;
    ASSERT_EQ(a.config.value, b.config.value) << "result order diverged at " << i;
    EXPECT_EQ(a.category, b.category) << a.config.Describe();
    EXPECT_EQ(a.detail, b.detail) << a.config.Describe();
    EXPECT_EQ(a.logs, b.logs) << a.config.Describe();
    EXPECT_EQ(a.pinpointed, b.pinpointed) << a.config.Describe();
    EXPECT_EQ(a.tests_run, b.tests_run) << a.config.Describe();
  }
  EXPECT_EQ(parallel_summary.total_tests_run, serial_summary.total_tests_run);
  for (ReactionCategory category :
       {ReactionCategory::kCrashHang, ReactionCategory::kEarlyTermination,
        ReactionCategory::kFunctionalFailure, ReactionCategory::kSilentViolation,
        ReactionCategory::kSilentIgnorance, ReactionCategory::kGoodReaction,
        ReactionCategory::kNoIssue}) {
    EXPECT_EQ(parallel_summary.CountCategory(category), serial_summary.CountCategory(category))
        << ReactionCategoryName(category);
  }
}

// --- Snapshot-replay determinism and fallbacks.

TEST(CampaignSnapshotTest, SnapshotReplayBitIdenticalToFullReplaySquid) {
  DiagnosticEngine diags;
  ApiRegistry apis = ApiRegistry::BuiltinC();
  TargetAnalysis analysis = AnalyzeTarget(FindTarget("squid"), apis, &diags);
  ASSERT_FALSE(diags.HasErrors()) << diags.Render();

  MisconfigGenerator generator;
  std::vector<Misconfiguration> configs = generator.Generate(analysis.constraints);
  ASSERT_GT(configs.size(), 10u);
  ConfigFile template_config =
      ConfigFile::Parse(analysis.bundle.template_config, analysis.bundle.dialect);

  ThreadPool pool(3);
  auto run = [&](size_t threads, bool snapshot) {
    InjectionCampaign campaign(*analysis.module, analysis.bundle.sut,
                               OsSimulator::StandardEnvironment());
    return snapshot ? campaign.RunAll(template_config, configs, nullptr, &pool, threads)
                    : FullReplaySummary(campaign, template_config, configs, &pool, threads);
  };

  // Ground truth: serial, full replay for every run.
  CampaignSummary full = run(1, false);
  ExpectSameSummaries(full, run(1, true), "serial snapshot");
  ExpectSameSummaries(full, run(4, false), "4-worker full");
  ExpectSameSummaries(full, run(4, true), "4-worker snapshot");
}

TEST(CampaignSnapshotTest, RejectedDeltaParseFallsBackToFullReplay) {
  // The injected value is rejected by the parse handler, which in a full
  // replay stops mid-template. The snapshot path must detect the rejected
  // delta parse and re-run via full replay — classification, logs and
  // detail must come out identical.
  MicroTarget target(R"(
    int threads = 4;
    int workers = 2;
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
      if (!strcasecmp(key, "workers")) { workers = atoi(value); return 0; }
      return 0;
    }
    int server_init() { return 0; }
  )");
  target.sut.param_storage["threads"] = "threads";
  ConfigFile config =
      ConfigFile::Parse("threads = 4\nworkers = 2\n", ConfigDialect::kKeyEqualsValue);
  std::vector<Misconfiguration> configs = {Inject("not_a_number", std::nullopt),
                                           Inject("9G", std::nullopt), Inject("6", 6)};

  InjectionCampaign with_snapshot(*target.module, target.sut,
                                  OsSimulator::StandardEnvironment());
  InjectionCampaign without_snapshot(*target.module, target.sut,
                                     OsSimulator::StandardEnvironment());

  CampaignSummary truth = FullReplaySummary(without_snapshot, config, configs);
  CampaignSummary replayed = with_snapshot.RunAll(config, configs);
  ExpectSameSummaries(truth, replayed, "rejected delta");
  // The rejection itself is pinpointed by the handler's log_error.
  EXPECT_EQ(replayed.results[0].category, ReactionCategory::kGoodReaction);
  EXPECT_TRUE(replayed.results[0].pinpointed);
  EXPECT_EQ(replayed.results[2].category, ReactionCategory::kNoIssue);
}

TEST(CampaignSnapshotTest, OrderSensitiveParseHandlerFallsBackToFullReplay) {
  // handle_config_line for "b" reads state written by "a", so replaying the
  // delta ("a") after the rest of the template ("b") computes a different
  // b_val than the in-order full replay. The first-use verification must
  // catch the divergence and pin this key-set to the full-replay path.
  MicroTarget target(R"(
    int a_val = 1;
    int b_val = 0;
    int handle_config_line(char *key, char *value) {
      if (!strcasecmp(key, "a")) { a_val = atoi(value); return 0; }
      if (!strcasecmp(key, "b")) { b_val = a_val + atoi(value); return 0; }
      return 0;
    }
    int server_init() { return 0; }
    int test_b() { return b_val; }
  )");
  target.sut.tests.push_back({"b", "test_b", 7, 1});
  ConfigFile config = ConfigFile::Parse("a = 5\nb = 2\n", ConfigDialect::kKeyEqualsValue);
  {
    InjectionCampaign baseline(*target.module, target.sut, OsSimulator::StandardEnvironment());
    ASSERT_TRUE(baseline.BaselinePasses(config));
  }

  std::vector<Misconfiguration> configs;
  for (const char* value : {"9", "12"}) {
    Misconfiguration inject;
    inject.param = "a";
    inject.value = value;
    inject.kind = ViolationKind::kBasicType;
    inject.rule = "test";
    inject.intended_numeric = ParseInt64(value);
    configs.push_back(inject);
  }

  InjectionCampaign with_snapshot(*target.module, target.sut,
                                  OsSimulator::StandardEnvironment());
  InjectionCampaign without_snapshot(*target.module, target.sut,
                                     OsSimulator::StandardEnvironment());

  CampaignSummary truth = FullReplaySummary(without_snapshot, config, configs);
  CampaignSummary replayed = with_snapshot.RunAll(config, configs);
  ExpectSameSummaries(truth, replayed, "order-sensitive keyset");
  // In-order ground truth: a=9 then b=2 makes test_b see 11, a functional
  // failure — if the snapshot path leaked its reordered b_val the detail
  // string would expose it.
  EXPECT_EQ(replayed.results[0].category, ReactionCategory::kFunctionalFailure);
  EXPECT_NE(replayed.results[0].detail.find("got 11"), std::string::npos)
      << replayed.results[0].detail;
}

TEST(CampaignSnapshotTest, ValueDependentOrderSensitivityFallsBack) {
  // The conflict only shows for some injected values: with a=9 the
  // reordered replay happens to agree with ground truth, with a=20 it
  // would not. A first-sample verification alone would bless the key-set
  // on a=9; the per-run hazard check must catch the read-after-delta-write
  // conflict for every value (b's parse reads a_val, which the delta
  // writes), independent of which config runs first.
  MicroTarget target(R"(
    int a_val = 5;
    int b_val = 0;
    int handle_config_line(char *key, char *value) {
      if (!strcasecmp(key, "a")) { a_val = atoi(value); return 0; }
      if (!strcasecmp(key, "b")) {
        if (a_val > 10) { b_val = 1; } else { b_val = 2; }
        return 0;
      }
      return 0;
    }
    int server_init() { return 0; }
    int test_b() { return b_val; }
  )");
  target.sut.tests.push_back({"b", "test_b", 2, 1});
  ConfigFile config = ConfigFile::Parse("a = 5\nb = 2\n", ConfigDialect::kKeyEqualsValue);

  // a=9 first (reordered replay would agree), then a=20 (it would not).
  std::vector<Misconfiguration> configs;
  for (const char* value : {"9", "20"}) {
    Misconfiguration inject;
    inject.param = "a";
    inject.value = value;
    inject.kind = ViolationKind::kBasicType;
    inject.rule = "test";
    inject.intended_numeric = ParseInt64(value);
    configs.push_back(inject);
  }

  InjectionCampaign without_snapshot(*target.module, target.sut,
                                     OsSimulator::StandardEnvironment());
  CampaignSummary truth = FullReplaySummary(without_snapshot, config, configs);
  InjectionCampaign with_snapshot(*target.module, target.sut,
                                  OsSimulator::StandardEnvironment());
  ExpectSameSummaries(truth, with_snapshot.RunAll(config, configs), "value-dependent order");
  // Ground truth for a=20: b parses after a, sees a_val=20 > 10, so
  // test_b fails with b_val=1.
  EXPECT_EQ(truth.results[0].category, ReactionCategory::kNoIssue);
  EXPECT_EQ(truth.results[1].category, ReactionCategory::kFunctionalFailure);
  EXPECT_NE(truth.results[1].detail.find("got 1,"), std::string::npos)
      << truth.results[1].detail;
}

// --- The one template rule: the snapshot cache serves the first template
// a snapshot-path call adopts; any other template replays by ground truth.

// Two templates that differ in `workers`, which test_workers observes, so
// a B run served from an A snapshot would classify differently.
constexpr const char* kTwoTemplateSource = R"(
  int threads = 4;
  int workers = 2;
  int slots[8];
  int handle_config_line(char *key, char *value) {
    if (!strcasecmp(key, "threads")) { threads = atoi(value); return 0; }
    if (!strcasecmp(key, "workers")) { workers = atoi(value); return 0; }
    return 0;
  }
  int server_init() {
    int i;
    for (i = 0; i < threads; i++) { slots[i] = workers; }
    return 0;
  }
  int test_workers() { return slots[0]; }
)";

struct TwoTemplates {
  MicroTarget target{kTwoTemplateSource};
  ConfigFile a = ConfigFile::Parse("threads = 4\nworkers = 2\n", ConfigDialect::kKeyEqualsValue);
  ConfigFile b = ConfigFile::Parse("threads = 4\nworkers = 3\n", ConfigDialect::kKeyEqualsValue);
  std::vector<Misconfiguration> configs;

  TwoTemplates() {
    target.sut.tests.push_back({"workers", "test_workers", 2, 1});
    target.sut.param_storage["threads"] = "threads";
    // One delta key-set, revisited: RunAll takes the snapshot path. 9
    // overflows slots[8] during init.
    for (int threads = 1; threads <= 9; ++threads) {
      configs.push_back(Inject(std::to_string(threads), threads));
    }
  }

  InjectionCampaign NewCampaign() const {
    return InjectionCampaign(*target.module, target.sut, OsSimulator::StandardEnvironment());
  }
};

TEST(CampaignSnapshotTest, CacheKeepsTheFirstTemplateItAdopts) {
  TwoTemplates fixture;
  InjectionCampaign reference = fixture.NewCampaign();
  CampaignSummary truth_a = RunOneSummary(reference, fixture.a, fixture.configs);
  CampaignSummary truth_b = RunOneSummary(reference, fixture.b, fixture.configs);
  ASSERT_EQ(truth_a.results[0].category, ReactionCategory::kNoIssue);
  ASSERT_EQ(truth_b.results[0].category, ReactionCategory::kFunctionalFailure);

  InjectionCampaign campaign = fixture.NewCampaign();
  ExpectSameSummaries(truth_a, campaign.RunAll(fixture.a, fixture.configs), "adopt A");
  const CampaignCacheStats adopted = campaign.cache_stats();
  ASSERT_GT(adopted.snapshots_built, 0u);
  ASSERT_GT(adopted.delta_replays, 0u);

  // B is not the cache's template: every B run is a ground-truth replay.
  ExpectSameSummaries(truth_b, campaign.RunAll(fixture.b, fixture.configs), "RunAll B");
  ExpectSameSummaries(truth_b, Summarize(campaign.ReplayExternal(fixture.b, fixture.configs)),
                      "ReplayExternal B");
  CampaignCacheStats after_b = campaign.cache_stats();
  EXPECT_EQ(after_b.snapshots_built, adopted.snapshots_built);
  EXPECT_EQ(after_b.delta_replays, adopted.delta_replays);
  EXPECT_EQ(after_b.full_replays, adopted.full_replays + 2 * fixture.configs.size());

  // B cleared nothing: a later A batch still restores A's snapshots.
  ExpectSameSummaries(truth_a, campaign.RunAll(fixture.a, fixture.configs), "A again");
  CampaignCacheStats after_a = campaign.cache_stats();
  EXPECT_EQ(after_a.snapshots_built, adopted.snapshots_built);
  EXPECT_GT(after_a.delta_replays, after_b.delta_replays);
}

TEST(CampaignSnapshotTest, OtherTemplateRunAllMayOverlapExternalReplays) {
  // Replays of the adopted template A hold cache entries while a RunAll
  // over template B runs on the same campaign: legal, because nothing
  // clears the cache. Every result must still be its template's ground
  // truth (and the run clean under TSan).
  TwoTemplates fixture;
  InjectionCampaign reference = fixture.NewCampaign();
  CampaignSummary truth_a = RunOneSummary(reference, fixture.a, fixture.configs);
  CampaignSummary truth_b = RunOneSummary(reference, fixture.b, fixture.configs);

  InjectionCampaign campaign = fixture.NewCampaign();
  ExpectSameSummaries(truth_a, Summarize(campaign.ReplayExternal(fixture.a, fixture.configs)),
                      "adopt A");
  // Each replayer keeps going until every B batch is done, so the two
  // overlap for the whole of them.
  constexpr int kBatches = 20;
  std::atomic<bool> batches_done{false};
  std::vector<std::vector<std::vector<InjectionResult>>> external(4);
  std::vector<std::thread> replayers;
  for (auto& replayed : external) {
    replayers.emplace_back([&] {
      while (replayed.size() < 3 || !batches_done.load()) {
        replayed.push_back(campaign.ReplayExternal(fixture.a, fixture.configs));
      }
    });
  }
  std::vector<CampaignSummary> batches;
  for (int round = 0; round < kBatches; ++round) {
    batches.push_back(campaign.RunAll(fixture.b, fixture.configs));
  }
  batches_done = true;
  for (std::thread& replayer : replayers) {
    replayer.join();
  }
  for (const CampaignSummary& batch : batches) {
    ExpectSameSummaries(truth_b, batch, "RunAll B");
  }
  for (auto& replayed : external) {
    for (std::vector<InjectionResult>& results : replayed) {
      ExpectSameSummaries(truth_a, Summarize(std::move(results)), "ReplayExternal A");
    }
  }
  EXPECT_GT(campaign.cache_stats().delta_replays, 0u);
}

}  // namespace
}  // namespace spex
