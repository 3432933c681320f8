// Dataflow / dominance / support tests, including parameterized property
// sweeps over comparison operators and scale factors.
#include "src/analysis/dataflow.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <sstream>

#include "src/apidb/api_registry.h"
#include "src/cases/case_db.h"
#include "src/core/engine.h"
#include "src/corpus/pipeline.h"
#include "src/ir/builder.h"
#include "src/ir/dominance.h"
#include "src/ir/lowering.h"
#include "src/lang/parser.h"
#include "src/support/strings.h"
#include "tests/rng.h"

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
    std::span<const ControlDep> deps = cdeps.TransitiveDeps(block.get());
    if (deps.size() > deepest.size()) {
      deepest.assign(deps.begin(), deps.end());
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
// addresses. Load every target once on its own, then all of them again in
// reversed order with junk allocations between loads, so their
// instructions land elsewhere on the heap: each target's constraints must
// come out identical.
TEST(ControlDependenceTest, ConstraintsIndependentOfHeapLayout) {
  ApiRegistry apis = ApiRegistry::BuiltinC();
  DiagnosticEngine diags;
  std::vector<TargetSpec> targets = EvaluatedTargets();
  std::map<std::string, std::string> expected;
  for (const TargetSpec& spec : targets) {
    TargetAnalysis reference = AnalyzeTarget(spec, apis, &diags);
    if (reference.bundle.name == "squid") {
      ASSERT_FALSE(reference.constraints.control_deps.empty());
    }
    expected[reference.bundle.name] = DumpConstraints(reference.constraints);
  }
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
  ASSERT_EQ(analyses.size(), expected.size());
  for (const TargetAnalysis& analysis : analyses) {
    EXPECT_EQ(DumpConstraints(analysis.constraints), expected[analysis.bundle.name])
        << analysis.bundle.name;
  }
}

// The original control-dependence computation, kept as the oracle. Direct
// deps: B depends on edge (A -> S) iff B post-dominates S (or is S) and
// does not post-dominate A, checked for every block pair.
std::vector<std::vector<ControlDep>> ReferenceDirectDeps(const Function& fn) {
  DominatorTree postdom(fn, /*post=*/true);
  std::vector<std::vector<ControlDep>> direct(fn.blocks().size());
  for (const auto& block_a : fn.blocks()) {
    Instruction* term = block_a->terminator();
    if (term == nullptr || term->successors().size() < 2) {
      continue;
    }
    const auto& succs = term->successors();
    for (size_t edge = 0; edge < succs.size(); ++edge) {
      const BasicBlock* s = succs[edge];
      for (const auto& block_b : fn.blocks()) {
        const BasicBlock* b = block_b.get();
        if (!postdom.IsReachable(b) || !postdom.IsReachable(s)) {
          continue;
        }
        bool pd_succ = (b == s) || postdom.Dominates(b, s);
        bool pd_branch = postdom.Dominates(b, block_a.get());
        if (pd_succ && !pd_branch) {
          direct[b->index()].emplace_back(term, static_cast<int>(edge));
        }
      }
    }
  }
  return direct;
}

// Closure by a fresh walk per query, as TransitiveDeps once computed it.
std::vector<ControlDep> ReferenceTransitiveDeps(
    const std::vector<std::vector<ControlDep>>& direct, const BasicBlock* block) {
  std::set<ControlDep> seen;
  std::vector<const BasicBlock*> work = {block};
  std::set<const BasicBlock*> visited = {block};
  while (!work.empty()) {
    const BasicBlock* current = work.back();
    work.pop_back();
    for (const ControlDep& dep : direct[current->index()]) {
      if (seen.insert(dep).second) {
        const BasicBlock* branch_block = dep.branch->parent();
        if (visited.insert(branch_block).second) {
          work.push_back(branch_block);
        }
      }
    }
  }
  return std::vector<ControlDep>(seen.begin(), seen.end());
}

std::string DescribeDeps(std::span<const ControlDep> deps) {
  std::string out;
  for (const ControlDep& dep : deps) {
    out += "%" + std::to_string(dep.branch->id()) + "/" + std::to_string(dep.successor_index) +
           " ";
  }
  return out;
}

std::string DescribeBlocks(std::span<const BasicBlock* const> blocks) {
  std::string out;
  for (const BasicBlock* block : blocks) {
    out += std::to_string(block->index()) + ":" + block->name() + " ";
  }
  return out;
}

// Checks `cdeps` against the oracle for every block and every successor
// edge of `fn`; returns the number of dep edges checked.
size_t ExpectMatchesReference(const Function& fn, const ControlDependence& cdeps) {
  auto direct = ReferenceDirectDeps(fn);
  std::vector<std::vector<ControlDep>> closure;
  for (const auto& block : fn.blocks()) {
    closure.push_back(ReferenceTransitiveDeps(direct, block.get()));
    EXPECT_EQ(DescribeDeps(cdeps.DirectDeps(block.get())), DescribeDeps(direct[block->index()]))
        << fn.name() << " " << block->name();
    EXPECT_EQ(DescribeDeps(cdeps.TransitiveDeps(block.get())), DescribeDeps(closure.back()))
        << fn.name() << " " << block->name();
  }
  size_t dep_edges = 0;
  for (const auto& block : fn.blocks()) {
    const Instruction* term = block->terminator();
    if (term == nullptr) {
      continue;
    }
    for (size_t edge = 0; edge < term->successors().size(); ++edge) {
      ControlDep dep{term, static_cast<int>(edge)};
      std::vector<const BasicBlock*> region;
      std::vector<const BasicBlock*> direct_region;
      for (const auto& candidate : fn.blocks()) {
        const auto& deps = closure[candidate->index()];
        if (std::find(deps.begin(), deps.end(), dep) != deps.end()) {
          region.push_back(candidate.get());
        }
        const auto& direct_deps = direct[candidate->index()];
        if (std::find(direct_deps.begin(), direct_deps.end(), dep) != direct_deps.end()) {
          direct_region.push_back(candidate.get());
        }
      }
      EXPECT_EQ(DescribeBlocks(cdeps.Region(dep)), DescribeBlocks(region))
          << fn.name() << " " << block->name() << "/" << edge;
      EXPECT_EQ(DescribeBlocks(cdeps.DirectRegion(dep)), DescribeBlocks(direct_region))
          << fn.name() << " " << block->name() << "/" << edge;
      dep_edges += term->successors().size() >= 2 ? 1 : 0;
    }
  }
  return dep_edges;
}

TEST(ControlDependenceTest, ClosureAndRegionsMatchReferenceWalk) {
  ApiRegistry apis = ApiRegistry::BuiltinC();
  DiagnosticEngine diags;
  for (const TargetSpec& spec : EvaluatedTargets()) {
    TargetAnalysis analysis = AnalyzeTarget(spec, apis, &diags);
    size_t functions = 0;
    size_t dep_edges = 0;
    for (const auto& fn : analysis.module->functions()) {
      if (fn->IsDeclaration()) {
        continue;
      }
      ++functions;
      dep_edges += ExpectMatchesReference(*fn, ControlDependence(*fn));
    }
    EXPECT_GT(functions, 0u) << spec.name;
    EXPECT_GT(dep_edges, 0u) << spec.name;
  }
  EXPECT_FALSE(diags.HasErrors()) << diags.Render();

  // A while loop with an early exit: the loop header runs again only if the
  // body's test fails, and the body runs only if the header's test holds,
  // so the header depends on its own branch.
  auto loop = Lower(R"(
    int f(int n) {
      int i = 0;
      while (i < n) {
        if (i == 7) { break; }
        i = i + 1;
      }
      return i;
    }
  )");
  Function* f = loop->FindFunction("f");
  f->Finalize();
  ControlDependence loop_deps(*f);
  EXPECT_GT(ExpectMatchesReference(*f, loop_deps), 0u);
  bool self_dependent = false;
  for (const auto& block : f->blocks()) {
    for (const ControlDep& dep : loop_deps.TransitiveDeps(block.get())) {
      self_dependent |= dep.branch->parent() == block.get();
    }
  }
  EXPECT_TRUE(self_dependent);

  // Nested ifs whose blocks are numbered innermost first, so each block's
  // controlling branch sits in a later block: the closure must keep
  // iterating until the outermost condition reaches the innermost arm.
  Module nested("nested");
  const IrType* i64 = nested.types().IntType(64, false);
  Function* h = nested.AddFunction("h", i64);
  Argument* c = h->AddArgument(i64, "c");
  BasicBlock* entry = h->CreateBlock("entry");
  std::vector<BasicBlock*> arms;
  for (int depth = 3; depth >= 1; --depth) {
    arms.insert(arms.begin(), h->CreateBlock("then" + std::to_string(depth)));
  }
  BasicBlock* exit = h->CreateBlock("exit");
  IrBuilder builder(&nested, h);
  BasicBlock* from = entry;
  for (BasicBlock* arm : arms) {
    builder.SetInsertPoint(from);
    builder.CreateCondBr(c, arm, exit, SourceLoc{});
    from = arm;
  }
  builder.SetInsertPoint(from);
  builder.CreateBr(exit, SourceLoc{});
  builder.SetInsertPoint(exit);
  builder.CreateRet(c, SourceLoc{});
  h->Finalize();
  ControlDependence nested_deps(*h);
  EXPECT_EQ(ExpectMatchesReference(*h, nested_deps), 6u);
  ASSERT_LT(arms.back()->index(), arms.front()->index());
  EXPECT_EQ(nested_deps.TransitiveDeps(arms.back()).size(), 3u);

  // A switch with a default arm: successor 0 is the default.
  auto sw = Lower(R"(
    int g(int m) {
      int r = 0;
      switch (m) {
        case 1: r = 10; break;
        case 2: r = 20; break;
        default: r = -1;
      }
      return r;
    }
  )");
  Function* g = sw->FindFunction("g");
  g->Finalize();
  ControlDependence switch_deps(*g);
  EXPECT_GT(ExpectMatchesReference(*g, switch_deps), 0u);
  const Instruction* switch_instr = nullptr;
  for (const auto& block : g->blocks()) {
    const Instruction* term = block->terminator();
    if (term != nullptr && term->instr_kind() == InstrKind::kSwitch) {
      switch_instr = term;
    }
  }
  ASSERT_NE(switch_instr, nullptr);
  auto default_arm = switch_deps.DirectRegion({switch_instr, 0});
  ASSERT_EQ(default_arm.size(), 1u);
  EXPECT_EQ(default_arm[0], switch_instr->successors()[0]);
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
