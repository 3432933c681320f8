// Dataflow / dominance / support tests, including parameterized property
// sweeps over comparison operators and scale factors.
#include "src/analysis/dataflow.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>

#include "src/apidb/api_registry.h"
#include "src/cases/case_db.h"
#include "src/core/engine.h"
#include "src/corpus/pipeline.h"
#include "src/ir/dominance.h"
#include "src/ir/lowering.h"
#include "src/lang/parser.h"
#include "src/support/rng.h"
#include "src/support/strings.h"

namespace spex {
namespace {

std::unique_ptr<Module> Lower(std::string_view source) {
  DiagnosticEngine diags;
  auto unit = ParseSource(source, "t.c", &diags);
  EXPECT_FALSE(diags.HasErrors()) << diags.Render();
  auto module = LowerToIr(*unit, &diags);
  EXPECT_FALSE(diags.HasErrors()) << diags.Render();
  return module;
}

TEST(DominanceTest, DiamondShape) {
  auto module = Lower(R"(
    int f(int c) {
      int r = 0;
      if (c) { r = 1; } else { r = 2; }
      return r;
    }
  )");
  Function* fn = module->FindFunction("f");
  fn->Finalize();
  DominatorTree dom(*fn, /*post=*/false);
  const BasicBlock* entry = fn->entry();
  for (const auto& block : fn->blocks()) {
    if (!dom.IsReachable(block.get())) {
      continue;  // Dead continuation blocks after `return` dominate nothing.
    }
    EXPECT_TRUE(dom.Dominates(entry, block.get())) << block->name();
  }
  DominatorTree postdom(*fn, /*post=*/true);
  // The merge block post-dominates both branch arms.
  const BasicBlock* merge = nullptr;
  for (const auto& block : fn->blocks()) {
    if (block->name().rfind("if.end", 0) == 0) {
      merge = block.get();
    }
  }
  ASSERT_NE(merge, nullptr);
  for (const auto& block : fn->blocks()) {
    if (block->name().rfind("if.then", 0) == 0 || block->name().rfind("if.else", 0) == 0) {
      EXPECT_TRUE(postdom.Dominates(merge, block.get()));
    }
  }
}

TEST(ControlDependenceTest, BranchArmsDependOnBranch) {
  auto module = Lower(R"(
    int f(int c) {
      int r = 0;
      if (c > 3) { r = 1; }
      return r;
    }
  )");
  Function* fn = module->FindFunction("f");
  fn->Finalize();
  ControlDependence cdeps(*fn);
  int dependent_blocks = 0;
  for (const auto& block : fn->blocks()) {
    if (!cdeps.DirectDeps(block.get()).empty()) {
      ++dependent_blocks;
      EXPECT_EQ(cdeps.DirectDeps(block.get())[0].successor_index, 0);
    }
  }
  EXPECT_EQ(dependent_blocks, 1);  // Only the then-block.
}

TEST(ControlDependenceTest, TransitiveDepsComeInBranchIdOrder) {
  auto module = Lower(R"(
    int f(int c) {
      int r = 0;
      if (c > 3) {
        if (c > 5) { r = 1; }
      }
      return r;
    }
  )");
  Function* fn = module->FindFunction("f");
  fn->Finalize();
  ControlDependence cdeps(*fn);
  std::vector<ControlDep> deepest;
  for (const auto& block : fn->blocks()) {
    std::vector<ControlDep> deps = cdeps.TransitiveDeps(block.get());
    if (deps.size() > deepest.size()) {
      deepest = std::move(deps);
    }
  }
  // The inner then-block executes only if both branches go their way.
  ASSERT_EQ(deepest.size(), 2u);
  for (const ControlDep& dep : deepest) {
    EXPECT_EQ(dep.branch_id, dep.branch->id());
  }
  EXPECT_LT(deepest[0].branch_id, deepest[1].branch_id);
  // Lowering order: the outer branch (in the entry block) has the lower id.
  EXPECT_EQ(deepest[0].branch->parent(), fn->entry());
}

// Every field of every constraint, source locations included.
std::string DumpConstraints(const ModuleConstraints& constraints) {
  std::ostringstream out;
  for (const ParamConstraints& p : constraints.params) {
    out << "param " << p.param << " style=" << static_cast<int>(p.style) << " @"
        << p.loc.ToString() << " usage=" << p.has_usage
        << " case=" << static_cast<int>(p.case_sensitivity)
        << " time=" << static_cast<int>(p.time_unit)
        << " size=" << static_cast<int>(p.size_unit) << "\n";
    if (p.basic_type) {
      out << "  basic " << p.basic_type->ToString() << " @" << p.basic_type->loc.ToString()
          << "\n";
    }
    for (const SemanticTypeConstraint& semantic : p.semantic_types) {
      out << "  semantic " << semantic.ToString() << " @" << semantic.loc.ToString() << "\n";
    }
    if (p.range) {
      out << "  range " << p.range->ToString()
          << " oor=" << static_cast<int>(p.range->out_of_range) << " @"
          << p.range->loc.ToString() << "\n";
    }
    if (p.permission) {
      out << "  permission " << p.permission->ToString() << " @"
          << p.permission->loc.ToString() << "\n";
    }
    for (const UnsafeApiUse& use : p.unsafe_uses) {
      out << "  unsafe " << use.api << " @" << use.loc.ToString() << "\n";
    }
  }
  for (const ControlDepConstraint& dep : constraints.control_deps) {
    out << "control " << dep.ToString() << " conf=" << dep.confidence << " @"
        << dep.loc.ToString() << "\n";
  }
  for (const ValueRelConstraint& rel : constraints.value_rels) {
    out << "rel " << rel.ToString() << " transitive=" << rel.via_transitivity << " @"
        << rel.loc.ToString() << "\n";
  }
  return out.str();
}

// No constraint field, location included, may follow instruction
// addresses. Load squid once, then again last of all targets in reversed
// order with junk allocations between loads, so its instructions land
// elsewhere on the heap: the constraints must come out identical.
TEST(ControlDependenceTest, ConstraintsIndependentOfHeapLayout) {
  ApiRegistry apis = ApiRegistry::BuiltinC();
  DiagnosticEngine diags;
  std::string expected;
  {
    TargetAnalysis reference = AnalyzeTarget(FindTarget("squid"), apis, &diags);
    ASSERT_FALSE(reference.constraints.control_deps.empty());
    expected = DumpConstraints(reference.constraints);
  }
  std::vector<TargetSpec> targets = EvaluatedTargets();
  std::reverse(targets.begin(), targets.end());
  std::vector<std::unique_ptr<char[]>> junk;
  std::vector<TargetAnalysis> analyses;
  for (const TargetSpec& spec : targets) {
    for (size_t i = 0; i < 1000; ++i) {
      junk.push_back(std::make_unique<char[]>(16 + (i * 37) % 240));
    }
    analyses.push_back(AnalyzeTarget(spec, apis, &diags));
  }
  EXPECT_FALSE(diags.HasErrors()) << diags.Render();
  auto squid = std::find_if(analyses.begin(), analyses.end(), [](const TargetAnalysis& a) {
    return a.bundle.name == "squid";
  });
  ASSERT_NE(squid, analyses.end());
  EXPECT_EQ(DumpConstraints(squid->constraints), expected);
}

TEST(DataflowTest, InterproceduralReturnFlowsToCallSiteOnly) {
  // Context sensitivity: taint entering scale() from call site A must not
  // leak to call site B's result.
  auto module = Lower(R"(
    int tainted_src = 1;
    int clean_src = 2;
    int scale(int x) { return x * 2; }
    int use_both() {
      int a = scale(tainted_src);
      int b = scale(clean_src);
      return a + b;
    }
  )");
  AnalysisContext context(*module);
  DataflowEngine engine(context);
  DataflowSeeds seeds;
  MemLoc loc;
  loc.root = module->FindGlobal("tainted_src");
  seeds.locations.push_back(loc);
  ParamDataflow df = engine.Analyze(seeds);

  // Find the two scale() call instructions inside use_both.
  const Function* use_both = module->FindFunction("use_both");
  std::vector<const Instruction*> calls;
  for (const auto& block : use_both->blocks()) {
    for (const auto& instr : block->instructions()) {
      if (instr->instr_kind() == InstrKind::kCall && instr->callee() == "scale") {
        calls.push_back(instr.get());
      }
    }
  }
  ASSERT_EQ(calls.size(), 2u);
  EXPECT_TRUE(df.Contains(calls[0])) << "tainted call result must be tainted";
  EXPECT_FALSE(df.Contains(calls[1])) << "k=1 context must keep the clean site clean";
}

TEST(DataflowTest, FieldSensitivityKeepsSiblingFieldsApart) {
  auto module = Lower(R"(
    struct pair_t { int first; int second; };
    struct pair_t state;
    int seed_first = 7;
    void init() { state.first = seed_first; }
    int read_first() { return state.first; }
    int read_second() { return state.second; }
  )");
  AnalysisContext context(*module);
  DataflowEngine engine(context);
  DataflowSeeds seeds;
  MemLoc loc;
  loc.root = module->FindGlobal("seed_first");
  seeds.locations.push_back(loc);
  ParamDataflow df = engine.Analyze(seeds);

  bool first_loc_tainted = false;
  bool second_loc_tainted = false;
  for (const MemLoc& tainted : df.locations) {
    if (tainted.root == module->FindGlobal("state")) {
      if (tainted.path == std::vector<int>{0}) {
        first_loc_tainted = true;
      }
      if (tainted.path == std::vector<int>{1}) {
        second_loc_tainted = true;
      }
    }
  }
  EXPECT_TRUE(first_loc_tainted);
  EXPECT_FALSE(second_loc_tainted);
}

TEST(DataflowTest, SscanfOutputParameterPropagates) {
  auto module = Lower(R"(
    int parsed;
    void parse(char *value) { sscanf(value, "%d", &parsed); }
  )");
  AnalysisContext context(*module);
  DataflowEngine engine(context);
  const Function* parse = module->FindFunction("parse");
  DataflowSeeds seeds;
  seeds.values.push_back(parse->arguments()[0].get());
  ParamDataflow df = engine.Analyze(seeds);
  bool parsed_tainted = false;
  for (const MemLoc& loc : df.locations) {
    parsed_tainted = parsed_tainted || loc.root == module->FindGlobal("parsed");
  }
  EXPECT_TRUE(parsed_tainted);
}

// --- Property sweep: range inference across every comparison operator and
// operand orientation must produce the matching invalid interval.
struct RangeCase {
  const char* op;        // Source-level operator, param on LHS.
  bool param_lhs;        // Operand orientation.
  int64_t threshold;
  int64_t inside;        // A value in the *invalid* region.
  int64_t outside;       // A value in the *valid* region.
};

class RangeSweepTest : public ::testing::TestWithParam<RangeCase> {};

TEST_P(RangeSweepTest, InvalidIntervalMatchesOperator) {
  const RangeCase& test_case = GetParam();
  std::string cond = test_case.param_lhs
                         ? std::string("knob ") + test_case.op + " " +
                               std::to_string(test_case.threshold)
                         : std::to_string(test_case.threshold) + " " + test_case.op + " knob";
  std::string source = R"(
    struct config_int { char *name; int *variable; };
    int knob = 50;
    struct config_int table[] = { { "knob", &knob } };
    int validate() {
      if ()" + cond + R"() {
        log_error("knob invalid");
        exit(1);
      }
      return 0;
    }
  )";
  DiagnosticEngine diags;
  auto unit = ParseSource(source, "sweep.c", &diags);
  auto module = LowerToIr(*unit, &diags);
  ApiRegistry apis = ApiRegistry::BuiltinC();
  SpexEngine engine(*module, apis);
  AnnotationFile file = ParseAnnotations("@STRUCT table { par = 0, var = 1 }", &diags);
  ModuleConstraints constraints = engine.Run(file, &diags);
  const ParamConstraints* param = constraints.FindParam("knob");
  ASSERT_NE(param, nullptr);
  ASSERT_TRUE(param->range.has_value()) << cond;
  bool inside_invalid = false;
  bool outside_valid = false;
  for (const RangeInterval& interval : param->range->intervals) {
    if (interval.Contains(test_case.inside)) {
      inside_invalid = !interval.valid;
    }
    if (interval.Contains(test_case.outside)) {
      outside_valid = interval.valid;
    }
  }
  EXPECT_TRUE(inside_invalid) << cond << " should make " << test_case.inside << " invalid";
  EXPECT_TRUE(outside_valid) << cond << " should keep " << test_case.outside << " valid";
}

INSTANTIATE_TEST_SUITE_P(
    Operators, RangeSweepTest,
    ::testing::Values(RangeCase{"<", true, 4, 3, 10}, RangeCase{"<=", true, 4, 4, 10},
                      RangeCase{">", true, 255, 256, 10}, RangeCase{">=", true, 255, 255, 10},
                      RangeCase{"==", true, 0, 0, 10}, RangeCase{"<", false, 255, 256, 10},
                      RangeCase{">", false, 4, 3, 10}, RangeCase{"<=", false, 255, 255, 10}));

// --- Property sweep: unit scaling across factors.
struct ScaleCase {
  int64_t factor;
  SizeUnit expected;
};

class ScaleSweepTest : public ::testing::TestWithParam<ScaleCase> {};

TEST_P(ScaleSweepTest, SizeUnitScalesWithFactor) {
  EXPECT_EQ(ScaleSizeUnit(SizeUnit::kBytes, GetParam().factor), GetParam().expected);
}

INSTANTIATE_TEST_SUITE_P(Factors, ScaleSweepTest,
                         ::testing::Values(ScaleCase{1, SizeUnit::kBytes},
                                           ScaleCase{1024, SizeUnit::kKilobytes},
                                           ScaleCase{1024 * 1024, SizeUnit::kMegabytes},
                                           ScaleCase{1000, SizeUnit::kNone},
                                           ScaleCase{7, SizeUnit::kNone}));

TEST(TimeScaleTest, LadderAndFailure) {
  EXPECT_EQ(ScaleTimeUnit(TimeUnit::kSeconds, 60), TimeUnit::kMinutes);
  EXPECT_EQ(ScaleTimeUnit(TimeUnit::kSeconds, 3600), TimeUnit::kHours);
  EXPECT_EQ(ScaleTimeUnit(TimeUnit::kMicroseconds, 1000), TimeUnit::kMilliseconds);
  EXPECT_EQ(ScaleTimeUnit(TimeUnit::kMicroseconds, 1000000), TimeUnit::kSeconds);
  EXPECT_EQ(ScaleTimeUnit(TimeUnit::kSeconds, 7), TimeUnit::kNone);
}

TEST(ApiRegistryTest, BuiltinsAndCustomImport) {
  ApiRegistry registry = ApiRegistry::BuiltinC();
  ASSERT_NE(registry.Find("open"), nullptr);
  EXPECT_EQ(registry.Find("open")->FindParam(0)->semantic, SemanticType::kFilePath);
  EXPECT_TRUE(registry.IsTerminating("exit"));
  EXPECT_TRUE(registry.Find("atoi")->is_unsafe_transform);
  EXPECT_TRUE(registry.Find("strcasecmp")->is_case_insensitive_cmp);

  DiagnosticEngine diags;
  bool ok = registry.ImportSpec(R"(
    # Storage-A proprietary APIs
    api wafl_open(0:FILE) returns NONE
    api cluster_sleep(0:TIME_M)
    api panic() terminating errlog
  )",
                                &diags);
  EXPECT_TRUE(ok) << diags.Render();
  ASSERT_NE(registry.Find("wafl_open"), nullptr);
  EXPECT_EQ(registry.Find("wafl_open")->FindParam(0)->semantic, SemanticType::kFilePath);
  EXPECT_EQ(registry.Find("cluster_sleep")->FindParam(0)->time_unit, TimeUnit::kMinutes);
  EXPECT_TRUE(registry.IsTerminating("panic"));
  EXPECT_FALSE(registry.ImportSpec("api broken(", &diags));
}

TEST(SupportTest, StringHelpers) {
  EXPECT_EQ(TrimWhitespace("  x  "), "x");
  EXPECT_EQ(SplitString("a,b,,c", ',').size(), 4u);
  EXPECT_EQ(SplitWhitespace("  a\t b \n").size(), 2u);
  EXPECT_TRUE(EqualsIgnoreCase("On", "oN"));
  EXPECT_EQ(ParseInt64("42").value(), 42);
  EXPECT_FALSE(ParseInt64("9G").has_value());
  EXPECT_FALSE(ParseInt64("12.5").has_value());
  EXPECT_FALSE(ParseInt64("").has_value());
  EXPECT_EQ(ReplaceAll("a//b//c", "//", "/"), "a/b/c");
}

TEST(SupportTest, DeterministicRng) {
  DeterministicRng a(42);
  DeterministicRng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
  DeterministicRng c(43);
  EXPECT_NE(DeterministicRng(42).NextU64(), c.NextU64());
  DeterministicRng d(1);
  for (int i = 0; i < 100; ++i) {
    int64_t v = d.NextInRange(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(CaseDbTest, BreakdownMatchesPaperStructure) {
  ModuleConstraints constraints;
  ParamConstraints param;
  param.param = "known_param";
  BasicTypeConstraint basic;
  param.basic_type = basic;
  constraints.params.push_back(param);

  auto cases = BuildCaseDb("apache", 50, {"known_param"});
  EXPECT_EQ(cases.size(), 50u);
  BenefitBreakdown breakdown = AnalyzeBenefit(cases, constraints);
  EXPECT_EQ(breakdown.total, 50u);
  EXPECT_EQ(breakdown.avoidable, 19u);  // Paper Table 9 Apache row.
  EXPECT_GT(breakdown.AvoidableRatio(), 0.2);
  EXPECT_LT(breakdown.AvoidableRatio(), 0.5);
  // A param SPEX failed to infer anything for is NOT avoidable.
  ModuleConstraints empty;
  BenefitBreakdown no_constraints = AnalyzeBenefit(cases, empty);
  EXPECT_EQ(no_constraints.avoidable, 0u);
}

}  // namespace
}  // namespace spex
