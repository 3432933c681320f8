// Lowering tests: source -> IR structural checks.
#include "src/ir/lowering.h"

#include <gtest/gtest.h>

#include "src/lang/parser.h"

namespace spex {
namespace {

std::unique_ptr<Module> Lower(std::string_view source) {
  DiagnosticEngine diags;
  auto unit = ParseSource(source, "test.c", &diags);
  EXPECT_FALSE(diags.HasErrors()) << diags.Render();
  auto module = LowerToIr(*unit, &diags);
  EXPECT_FALSE(diags.HasErrors()) << diags.Render();
  return module;
}

int CountInstr(const Function& fn, InstrKind kind) {
  int count = 0;
  for (const auto& block : fn.blocks()) {
    for (const auto& instr : block->instructions()) {
      if (instr->instr_kind() == kind) {
        ++count;
      }
    }
  }
  return count;
}

const Instruction* FirstInstr(const Function& fn, InstrKind kind) {
  for (const auto& block : fn.blocks()) {
    for (const auto& instr : block->instructions()) {
      if (instr->instr_kind() == kind) {
        return instr.get();
      }
    }
  }
  return nullptr;
}

TEST(LoweringTest, GlobalTypesAndInits) {
  auto module = Lower(R"(
    int threads = 16;
    char *name = "squid";
    double ratio = 0.5;
    long sizes[] = { 1, 2, 3 };
  )");
  GlobalVariable* threads = module->FindGlobal("threads");
  ASSERT_NE(threads, nullptr);
  EXPECT_EQ(threads->value_type()->bit_width(), 32);
  EXPECT_EQ(threads->init().int_value, 16);

  GlobalVariable* name = module->FindGlobal("name");
  ASSERT_NE(name, nullptr);
  EXPECT_TRUE(name->value_type()->IsString());

  GlobalVariable* sizes = module->FindGlobal("sizes");
  ASSERT_NE(sizes, nullptr);
  EXPECT_TRUE(sizes->is_array());
  EXPECT_EQ(sizes->array_size(), 3);
  EXPECT_EQ(sizes->init().elements.size(), 3u);
}

TEST(LoweringTest, StructTableInitializerKeepsRefs) {
  auto module = Lower(R"(
    struct config_int { char *name; int *variable; int min; int max; };
    int deadlock_timeout;
    struct config_int table[] = {
      { "deadlock_timeout", &deadlock_timeout, 1, 600000 },
    };
  )");
  GlobalVariable* table = module->FindGlobal("table");
  ASSERT_NE(table, nullptr);
  const GlobalInit& init = table->init();
  ASSERT_EQ(init.kind, GlobalInit::Kind::kList);
  const GlobalInit& row = init.elements[0];
  ASSERT_EQ(row.elements.size(), 4u);
  EXPECT_EQ(row.elements[0].kind, GlobalInit::Kind::kString);
  EXPECT_EQ(row.elements[1].kind, GlobalInit::Kind::kGlobalRef);
  EXPECT_EQ(row.elements[1].string_value, "deadlock_timeout");
  EXPECT_EQ(row.elements[3].int_value, 600000);
}

TEST(LoweringTest, ParamsGetAllocaAndStore) {
  auto module = Lower("int id(int x) { return x; }");
  Function* fn = module->FindFunction("id");
  ASSERT_NE(fn, nullptr);
  EXPECT_EQ(CountInstr(*fn, InstrKind::kAlloca), 1);
  EXPECT_EQ(CountInstr(*fn, InstrKind::kStore), 1);
  EXPECT_EQ(CountInstr(*fn, InstrKind::kLoad), 1);
  EXPECT_EQ(CountInstr(*fn, InstrKind::kRet), 1);
}

TEST(LoweringTest, ExplicitCastMarked) {
  auto module = Lower(R"(
    int convert(char *arg) {
      int v = (int) strtoll(arg, NULL, 0);
      return v;
    }
  )");
  Function* fn = module->FindFunction("convert");
  const Instruction* cast = FirstInstr(*fn, InstrKind::kCast);
  ASSERT_NE(cast, nullptr);
  EXPECT_TRUE(cast->cast_is_explicit());
  EXPECT_EQ(cast->type()->bit_width(), 32);
}

TEST(LoweringTest, ImplicitCoercionMarkedImplicit) {
  auto module = Lower(R"(
    long widen(int x) {
      long y = x;
      return y;
    }
  )");
  Function* fn = module->FindFunction("widen");
  const Instruction* cast = FirstInstr(*fn, InstrKind::kCast);
  ASSERT_NE(cast, nullptr);
  EXPECT_FALSE(cast->cast_is_explicit());
  EXPECT_EQ(cast->type()->bit_width(), 64);
}

TEST(LoweringTest, IfProducesCondBr) {
  auto module = Lower(R"(
    int clamp(int v) {
      if (v < 4) { v = 4; }
      else if (v > 255) { v = 255; }
      return v;
    }
  )");
  Function* fn = module->FindFunction("clamp");
  EXPECT_EQ(CountInstr(*fn, InstrKind::kCondBr), 2);
  EXPECT_EQ(CountInstr(*fn, InstrKind::kCmp), 2);
}

TEST(LoweringTest, SwitchLowering) {
  auto module = Lower(R"(
    int dispatch(int op) {
      int r = 0;
      switch (op) {
        case 1: r = 10; break;
        case 2: r = 20; break;
        default: r = -1; break;
      }
      return r;
    }
  )");
  Function* fn = module->FindFunction("dispatch");
  const Instruction* sw = FirstInstr(*fn, InstrKind::kSwitch);
  ASSERT_NE(sw, nullptr);
  EXPECT_EQ(sw->switch_values().size(), 2u);
  EXPECT_EQ(sw->successors().size(), 3u);  // default + 2 cases
}

TEST(LoweringTest, SwitchFallthrough) {
  auto module = Lower(R"(
    int f(int op) {
      int r = 0;
      switch (op) {
        case 1: r = 1;
        case 2: r = r + 2; break;
        default: break;
      }
      return r;
    }
  )");
  Function* fn = module->FindFunction("f");
  const Instruction* sw = FirstInstr(*fn, InstrKind::kSwitch);
  ASSERT_NE(sw, nullptr);
  // case-1 block must fall through (branch) into case-2 block.
  const BasicBlock* case1 = sw->successors()[1];
  ASSERT_TRUE(case1->HasTerminator());
  ASSERT_EQ(case1->Successors().size(), 1u);
  EXPECT_EQ(case1->Successors()[0], sw->successors()[2]);
}

TEST(LoweringTest, ShortCircuitCreatesBranches) {
  auto module = Lower(R"(
    int both(int a, int b) {
      if (a && b) { return 1; }
      return 0;
    }
  )");
  Function* fn = module->FindFunction("both");
  // One condbr for `a`, one for the if itself.
  EXPECT_GE(CountInstr(*fn, InstrKind::kCondBr), 2);
}

TEST(LoweringTest, MemberAccessThroughPointer) {
  auto module = Lower(R"(
    struct args { int value_int; };
    int get(struct args *c) {
      return c->value_int;
    }
  )");
  Function* fn = module->FindFunction("get");
  const Instruction* field = FirstInstr(*fn, InstrKind::kFieldAddr);
  ASSERT_NE(field, nullptr);
  EXPECT_EQ(field->field_name(), "value_int");
}

TEST(LoweringTest, ArrayIndexOnGlobal) {
  auto module = Lower(R"(
    int table[8];
    int get(int i) { return table[i]; }
    void set(int i, int v) { table[i] = v; }
  )");
  Function* get = module->FindFunction("get");
  EXPECT_EQ(CountInstr(*get, InstrKind::kIndexAddr), 1);
  Function* set = module->FindFunction("set");
  EXPECT_EQ(CountInstr(*set, InstrKind::kIndexAddr), 1);
  EXPECT_EQ(CountInstr(*set, InstrKind::kStore), 3);  // 2 params + element
}

TEST(LoweringTest, WhileLoopShape) {
  auto module = Lower(R"(
    int spin(int n) {
      int i = 0;
      while (i < n) { i++; }
      return i;
    }
  )");
  Function* fn = module->FindFunction("spin");
  EXPECT_EQ(CountInstr(*fn, InstrKind::kCondBr), 1);
  fn->Finalize();
  // The condition block must have two predecessors: entry and body.
  for (const auto& block : fn->blocks()) {
    if (block->name().rfind("while.cond", 0) == 0) {
      EXPECT_EQ(block->predecessors().size(), 2u);
    }
  }
}

TEST(LoweringTest, CallToUnknownFunctionDefaultsToI64) {
  auto module = Lower("long f() { return mystery(); }");
  Function* fn = module->FindFunction("f");
  const Instruction* call = FirstInstr(*fn, InstrKind::kCall);
  ASSERT_NE(call, nullptr);
  EXPECT_EQ(call->type()->bit_width(), 64);
}

TEST(LoweringTest, CallToDeclaredPrototypeUsesItsType) {
  auto module = Lower(R"(
    extern char *get_string(char *key);
    char *f() { return get_string("a"); }
  )");
  Function* fn = module->FindFunction("f");
  const Instruction* call = FirstInstr(*fn, InstrKind::kCall);
  ASSERT_NE(call, nullptr);
  EXPECT_TRUE(call->type()->IsString());
}

TEST(LoweringTest, AllBlocksTerminated) {
  auto module = Lower(R"(
    int f(int a) {
      if (a > 0) { return 1; }
      while (a < 0) { a++; }
      return 0;
    }
  )");
  for (const auto& fn : module->functions()) {
    for (const auto& block : fn->blocks()) {
      EXPECT_TRUE(block->HasTerminator()) << fn->name() << ":" << block->name();
    }
  }
}

// Lowers `source`, which must parse cleanly, and returns the lowering's
// diagnostics.
DiagnosticEngine LoweringDiagnostics(std::string_view source) {
  DiagnosticEngine diags;
  auto unit = ParseSource(source, "test.c", &diags);
  EXPECT_FALSE(diags.HasErrors()) << diags.Render();
  LowerToIr(*unit, &diags);
  return diags;
}

TEST(LoweringTest, StructContainingItselfByValueIsAnError) {
  DiagnosticEngine diags = LoweringDiagnostics(R"(
    struct node { int x; struct node inner; };
    struct node g;
    int nest() { g.x = 1; return g.x; }
  )");
  EXPECT_EQ(diags.error_count(), 1u) << diags.Render();
  EXPECT_NE(diags.Render().find("struct 'node' contains itself by value (field 'inner')"),
            std::string::npos)
      << diags.Render();
}

TEST(LoweringTest, StructsHoldingEachOtherByValueAreAnError) {
  DiagnosticEngine diags = LoweringDiagnostics(R"(
    struct a { int x; struct b held; };
    struct b { int y; struct a back; };
    struct c { struct a outside; };
    struct c g;
  )");
  // One error per field on the cycle; `c` only holds a struct that is on it.
  EXPECT_EQ(diags.error_count(), 2u) << diags.Render();
  EXPECT_NE(diags.Render().find("struct 'a' contains itself by value (field 'held')"),
            std::string::npos)
      << diags.Render();
  EXPECT_NE(diags.Render().find("struct 'b' contains itself by value (field 'back')"),
            std::string::npos)
      << diags.Render();
}

TEST(LoweringTest, StructPointingToItselfLowers) {
  auto module = Lower(R"(
    struct node { int x; struct node *next; };
    struct node g;
    int f() { g.next = &g; return g.next->x; }
  )");
  ASSERT_NE(module, nullptr);
  EXPECT_NE(module->FindFunction("f"), nullptr);
}

TEST(LoweringTest, ModulePrintIsStable) {
  auto module = Lower("int x = 1; int f() { return x; }");
  std::string printed = module->Print();
  EXPECT_NE(printed.find("@x"), std::string::npos);
  EXPECT_NE(printed.find("define i32 f"), std::string::npos);
}

}  // namespace
}  // namespace spex
