// Interpreter tests: execution semantics, traps, hangs, logs, intrinsics.
#include "src/interp/interpreter.h"

#include <gtest/gtest.h>

#include <limits>

#include "src/ir/lowering.h"
#include "src/lang/parser.h"

namespace spex {
namespace {

struct Sut {
  DiagnosticEngine diags;
  std::unique_ptr<Module> module;
  OsSimulator os = OsSimulator::StandardEnvironment();
  std::unique_ptr<Interpreter> interp;

  explicit Sut(std::string_view source, InterpOptions options = {}) {
    auto unit = ParseSource(source, "sut.c", &diags);
    EXPECT_FALSE(diags.HasErrors()) << diags.Render();
    module = LowerToIr(*unit, &diags);
    EXPECT_FALSE(diags.HasErrors()) << diags.Render();
    interp = std::make_unique<Interpreter>(*module, &os, options);
  }

  CallOutcome Call(const std::string& fn, std::vector<RtValue> args = {}) {
    return interp->Call(fn, std::move(args));
  }

  // A string argument interned in this interpreter's own pool, the way
  // replay builds every string it passes in.
  RtValue Str(std::string_view text) { return interp->InternedString(text); }
};

TEST(InterpTest, ArithmeticAndControlFlow) {
  Sut sut(R"(
    int collatz_steps(int n) {
      int steps = 0;
      while (n != 1) {
        if (n % 2 == 0) { n = n / 2; } else { n = 3 * n + 1; }
        steps++;
      }
      return steps;
    }
  )");
  CallOutcome outcome = sut.Call("collatz_steps", {RtValue::Int(27)});
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.return_value.AsInt(), 111);
}

TEST(InterpTest, GlobalsInitializedAndMutable) {
  Sut sut(R"(
    int counter = 10;
    int bump(int by) { counter = counter + by; return counter; }
  )");
  EXPECT_EQ(sut.interp->ReadGlobal("counter")->AsInt(), 10);
  sut.Call("bump", {RtValue::Int(5)});
  EXPECT_EQ(sut.interp->ReadGlobal("counter")->AsInt(), 15);
  sut.interp->Reset();
  EXPECT_EQ(sut.interp->ReadGlobal("counter")->AsInt(), 10);
}

TEST(InterpTest, StructTableThroughPointerStores) {
  // The struct-direct parse pattern: write through a table pointer.
  Sut sut(R"(
    struct config_int { char *name; int *variable; };
    int timeout = 30;
    struct config_int table[] = { { "timeout", &timeout } };
    int set_option(char *key, char *value) {
      int i;
      for (i = 0; i < 1; i++) {
        if (!strcmp(table[i].name, key)) {
          *table[i].variable = atoi(value);
          return 0;
        }
      }
      return -1;
    }
  )");
  CallOutcome outcome = sut.Call("set_option", {sut.Str("timeout"), sut.Str("99")});
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome.return_value.AsInt(), 0);
  EXPECT_EQ(sut.interp->ReadGlobal("timeout")->AsInt(), 99);
}

TEST(InterpTest, ArrayOutOfBoundsIsSegfault) {
  Sut sut(R"(
    int slots[16];
    int fill(int n) {
      int i;
      for (i = 0; i < n; i++) { slots[i] = 1; }
      return 0;
    }
  )");
  EXPECT_TRUE(sut.Call("fill", {RtValue::Int(16)}).ok());
  CallOutcome crash = sut.Call("fill", {RtValue::Int(17)});
  EXPECT_EQ(crash.status, CallOutcome::Status::kTrap);
  EXPECT_NE(crash.trap_reason.find("Segmentation fault"), std::string::npos);
}

TEST(InterpTest, DivisionByZeroTraps) {
  Sut sut("int divide(int a, int b) { return a / b; }");
  CallOutcome outcome = sut.Call("divide", {RtValue::Int(10), RtValue::Int(0)});
  EXPECT_EQ(outcome.status, CallOutcome::Status::kTrap);
}

constexpr int64_t kIntMin = std::numeric_limits<int64_t>::min();
constexpr int64_t kIntMax = std::numeric_limits<int64_t>::max();

int64_t CallBinary(Sut& sut, const std::string& fn, int64_t a, int64_t b) {
  CallOutcome outcome = sut.Call(fn, {RtValue::Int(a), RtValue::Int(b)});
  EXPECT_TRUE(outcome.ok()) << fn << ": " << outcome.trap_reason;
  return outcome.return_value.AsInt();
}

TEST(InterpTest, OverflowingArithmeticWrapsTwosComplement) {
  Sut sut(R"(
    int add(int a, int b) { return a + b; }
    int sub(int a, int b) { return a - b; }
    int mul(int a, int b) { return a * b; }
    int neg(int a, int b) { return -a; }
  )");
  EXPECT_EQ(CallBinary(sut, "add", kIntMax, 1), kIntMin);
  EXPECT_EQ(CallBinary(sut, "sub", kIntMin, 1), kIntMax);
  EXPECT_EQ(CallBinary(sut, "mul", kIntMax, 2), -2);
  // The overflowing multiply in DeterministicAcrossRuns' hash loop.
  EXPECT_EQ(CallBinary(sut, "mul", 31, 841048816911995911LL),
            static_cast<int64_t>(31ULL * 841048816911995911ULL));
  EXPECT_EQ(CallBinary(sut, "neg", kIntMin, 0), kIntMin);
}

TEST(InterpTest, ShiftsWrapAndOutOfRangeCountsGiveZero) {
  Sut sut(R"(
    int shl(int a, int b) { return a << b; }
    int shr(int a, int b) { return a >> b; }
  )");
  EXPECT_EQ(CallBinary(sut, "shl", 1, 63), kIntMin);
  EXPECT_EQ(CallBinary(sut, "shl", 3, 63), kIntMin);
  EXPECT_EQ(CallBinary(sut, "shl", -1, 1), -2);
  EXPECT_EQ(CallBinary(sut, "shl", 1, 64), 0);
  EXPECT_EQ(CallBinary(sut, "shl", 1, -1), 0);
  EXPECT_EQ(CallBinary(sut, "shr", 256, -3), 0);
  EXPECT_EQ(CallBinary(sut, "shr", 256, 4), 16);
}

TEST(InterpTest, IntMinDividedByMinusOneTraps) {
  Sut sut(R"(
    int divide(int a, int b) { return a / b; }
    int remainder(int a, int b) { return a % b; }
  )");
  for (const char* fn : {"divide", "remainder"}) {
    CallOutcome outcome = sut.Call(fn, {RtValue::Int(kIntMin), RtValue::Int(-1)});
    EXPECT_EQ(outcome.status, CallOutcome::Status::kTrap) << fn;
    EXPECT_NE(outcome.trap_reason.find("Floating point exception"), std::string::npos) << fn;
  }
  // The neighbours of the overflowing case still divide normally.
  EXPECT_EQ(CallBinary(sut, "divide", kIntMin, 1), kIntMin);
  EXPECT_EQ(CallBinary(sut, "divide", kIntMin + 1, -1), kIntMax);
  EXPECT_EQ(CallBinary(sut, "remainder", kIntMin + 1, -1), 0);
}

TEST(InterpTest, NullStringToStrcmpTraps) {
  Sut sut(R"(
    char *name;
    int check() { return strcmp(name, "x"); }
  )");
  CallOutcome outcome = sut.Call("check");
  EXPECT_EQ(outcome.status, CallOutcome::Status::kTrap);
}

TEST(InterpTest, InfiniteLoopIsHang) {
  InterpOptions options;
  options.max_steps = 10000;
  Sut sut("int spin() { int i = 1; while (i != 0) { i = i + 1; } return 0; }", options);
  CallOutcome outcome = sut.Call("spin");
  EXPECT_EQ(outcome.status, CallOutcome::Status::kHang);
}

TEST(InterpTest, HugeSleepIsHang) {
  Sut sut("int nap(int s) { sleep(s); return 0; }");
  EXPECT_TRUE(sut.Call("nap", {RtValue::Int(60)}).ok());
  CallOutcome outcome = sut.Call("nap", {RtValue::Int(999999999)});
  EXPECT_EQ(outcome.status, CallOutcome::Status::kHang);
}

TEST(InterpTest, ExitPropagates) {
  Sut sut("int die() { exit(3); return 0; }");
  CallOutcome outcome = sut.Call("die");
  EXPECT_EQ(outcome.status, CallOutcome::Status::kExit);
  EXPECT_EQ(outcome.exit_code, 3);
}

TEST(InterpTest, AtoiSemantics) {
  Sut sut("int conv(char *s) { return atoi(s); }");
  EXPECT_EQ(sut.Call("conv", {sut.Str("42")}).return_value.AsInt(), 42);
  // Prefix parse: garbage after digits is ignored (the "1O0" -> 1 case).
  EXPECT_EQ(sut.Call("conv", {sut.Str("1O0")}).return_value.AsInt(), 1);
  EXPECT_EQ(sut.Call("conv", {sut.Str("abc")}).return_value.AsInt(), 0);
  // 32-bit wraparound on overflow.
  EXPECT_EQ(sut.Call("conv", {sut.Str("9000000000")}).return_value.AsInt(),
            static_cast<int32_t>(9000000000LL));
}

TEST(InterpTest, StrncmpSemantics) {
  Sut sut(R"(
    int pre(char *a, char *b, int n) { return strncmp(a, b, n); }
    int prei(char *a, char *b, int n) { return strncasecmp(a, b, n); }
  )");
  auto cmp = [&](const char* fn, const char* a, const char* b, int64_t n) {
    return sut.Call(fn, {sut.Str(a), sut.Str(b), RtValue::Int(n)})
        .return_value.AsInt();
  };
  EXPECT_EQ(cmp("pre", "timeout_ms", "timeout_s", 8), 0);
  EXPECT_LT(cmp("pre", "timeout_ms", "timeout_s", 9), 0);
  EXPECT_EQ(cmp("prei", "TimeOut", "timeout!", 7), 0);
  EXPECT_EQ(cmp("pre", "abc", "abd", 0), 0);
  // A negative count converts to a huge size_t in C: full-string compare.
  EXPECT_LT(cmp("pre", "abc", "abd", -1), 0);
  EXPECT_NE(cmp("prei", "abc", "abcd", -1), 0);
}

TEST(InterpTest, ParseIntStrictRejectsGarbage) {
  Sut sut(R"(
    int out;
    int conv(char *s) { return parse_int_strict(s, &out); }
  )");
  EXPECT_EQ(sut.Call("conv", {sut.Str("42")}).return_value.AsInt(), 0);
  EXPECT_EQ(sut.interp->ReadGlobal("out")->AsInt(), 42);
  EXPECT_EQ(sut.Call("conv", {sut.Str("1O0")}).return_value.AsInt(), -1);
  EXPECT_EQ(sut.Call("conv", {sut.Str("9G")}).return_value.AsInt(), -1);
}

TEST(InterpTest, FileIntrinsicsUseSimulatedFs) {
  Sut sut("int try_open(char *p) { return open(p, 0); }");
  EXPECT_GE(sut.Call("try_open", {sut.Str("/etc/mime.types")}).return_value.AsInt(), 0);
  EXPECT_LT(sut.Call("try_open", {sut.Str("/nope")}).return_value.AsInt(), 0);
  EXPECT_LT(sut.Call("try_open", {sut.Str("/var")}).return_value.AsInt(), 0);  // EISDIR
  EXPECT_LT(sut.Call("try_open", {sut.Str("/etc/secret.key")}).return_value.AsInt(), 0);
}

TEST(InterpTest, BindChecksPortAvailability) {
  Sut sut("int try_bind(int p) { int fd = socket(); return bind(fd, p); }");
  EXPECT_EQ(sut.Call("try_bind", {RtValue::Int(8080)}).return_value.AsInt(), 0);
  EXPECT_EQ(sut.Call("try_bind", {RtValue::Int(22)}).return_value.AsInt(), -1);  // occupied
  EXPECT_EQ(sut.Call("try_bind", {RtValue::Int(70000)}).return_value.AsInt(), -1);
  EXPECT_EQ(sut.Call("try_bind", {RtValue::Int(-1)}).return_value.AsInt(), -1);
}

TEST(InterpTest, LogsCapturedWithFormatting) {
  Sut sut(R"(
    int report(int v) { log_error("value %d out of range for %s", v, "timeout"); return 0; }
  )");
  sut.Call("report", {RtValue::Int(300)});
  ASSERT_EQ(sut.interp->logs().size(), 1u);
  EXPECT_EQ(sut.interp->logs()[0], "ERROR: value 300 out of range for timeout");
}

TEST(InterpTest, GlobalReadTracking) {
  Sut sut(R"(
    int master = 0;
    int dependent = 5;
    int run() {
      if (master != 0) { return dependent + 1; }
      return 0;
    }
  )");
  sut.Call("run");
  EXPECT_TRUE(sut.interp->GlobalWasRead("master"));
  EXPECT_FALSE(sut.interp->GlobalWasRead("dependent"));  // Guard was off.
  sut.interp->Reset();
  sut.interp->WriteGlobal("master", RtValue::Int(1));
  sut.Call("run");
  EXPECT_TRUE(sut.interp->GlobalWasRead("dependent"));
}

TEST(InterpTest, HandlerInvocationThroughTable) {
  Sut sut(R"(
    struct command_rec { char *name; char *handler; };
    int stored;
    int set_stored(char *arg) { stored = atoi(arg); return 0; }
    struct command_rec cmds[] = { { "Stored", set_stored } };
    int dispatch(char *key, char *value) {
      int i;
      for (i = 0; i < 1; i++) {
        if (!strcasecmp(cmds[i].name, key)) {
          return invoke_handler1(cmds[i].handler, value);
        }
      }
      return -1;
    }
  )");
  CallOutcome outcome = sut.Call("dispatch", {sut.Str("stored"), sut.Str("7")});
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(sut.interp->ReadGlobal("stored")->AsInt(), 7);
}

TEST(InterpTest, RecursionDepthLimited) {
  Sut sut("int rec(int n) { return rec(n + 1); }");
  CallOutcome outcome = sut.Call("rec", {RtValue::Int(0)});
  EXPECT_EQ(outcome.status, CallOutcome::Status::kTrap);
  EXPECT_NE(outcome.trap_reason.find("stack overflow"), std::string::npos);
}

TEST(InterpTest, AllocationBudget) {
  Sut sut("long grab(long n) { return alloc_buffer(n); }");
  EXPECT_GT(sut.Call("grab", {RtValue::Int(1024)}).return_value.AsInt(), 0);
  EXPECT_EQ(sut.Call("grab", {RtValue::Int(-1)}).return_value.AsInt(), 0);
  EXPECT_EQ(sut.Call("grab", {RtValue::Int(9000000000LL)}).return_value.AsInt(), 0);
}

TEST(InterpTest, DeterministicAcrossRuns) {
  const char* source = R"(
    int acc = 0;
    int work() {
      int i;
      for (i = 0; i < 100; i++) { acc = acc * 31 + i; }
      return acc;
    }
  )";
  Sut a(source);
  Sut b(source);
  EXPECT_EQ(a.Call("work").return_value.AsInt(), b.Call("work").return_value.AsInt());
  EXPECT_EQ(a.interp->steps_used(), b.interp->steps_used());
}

TEST(InterpTest, ResetRestoresCachedGlobalsImage) {
  // Exercises every initializer shape the cached image must restore:
  // scalar defaults, scalar inits, strings, arrays, struct tables with
  // global references, and handler tables with function references.
  const char* source = R"(
    struct config_int { char *name; int *variable; };
    struct command_rec { char *name; char *handler; };
    int timeout = 30;
    int workers;
    char *listen_host = "localhost";
    int weights[] = { 2, 4, 8 };
    struct config_int table[] = { { "timeout", &timeout } };
    int stored = 1;
    int set_stored(char *arg) { stored = atoi(arg); return 0; }
    struct command_rec cmds[] = { { "Stored", set_stored } };
    int mutate(char *value) {
      int i;
      timeout = 999;
      workers = 7;
      listen_host = "elsewhere";
      for (i = 0; i < 3; i++) { weights[i] = 0; }
      *table[0].variable = 1234;
      log_warn("state mutated");
      return invoke_handler1(cmds[0].handler, value);
    }
    int read_weight(int i) { return weights[i]; }
  )";
  Sut mutated(source);
  ASSERT_TRUE(mutated.Call("mutate", {mutated.Str("55")}).ok());
  EXPECT_EQ(mutated.interp->ReadGlobal("timeout")->AsInt(), 1234);
  EXPECT_EQ(mutated.interp->ReadGlobal("stored")->AsInt(), 55);
  EXPECT_FALSE(mutated.interp->logs().empty());
  mutated.interp->Reset();

  // After Reset() the mutated interpreter must be indistinguishable from a
  // freshly constructed one, observable by observable.
  Sut fresh(source);
  for (const char* global : {"timeout", "workers", "listen_host", "stored"}) {
    auto restored = mutated.interp->ReadGlobal(global);
    auto pristine = fresh.interp->ReadGlobal(global);
    ASSERT_TRUE(restored.has_value()) << global;
    ASSERT_TRUE(pristine.has_value()) << global;
    EXPECT_EQ(restored->kind, pristine->kind) << global;
    EXPECT_EQ(restored->ToDebugString(), pristine->ToDebugString()) << global;
    EXPECT_FALSE(mutated.interp->GlobalWasRead(global)) << global;
  }
  EXPECT_EQ(mutated.interp->ReadGlobal("timeout")->AsInt(), 30);
  EXPECT_EQ(mutated.interp->ReadGlobal("workers")->AsInt(), 0);
  EXPECT_TRUE(mutated.interp->logs().empty());
  EXPECT_EQ(mutated.interp->steps_used(), 0);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(mutated.Call("read_weight", {RtValue::Int(i)}).return_value.AsInt(),
              fresh.Call("read_weight", {RtValue::Int(i)}).return_value.AsInt());
  }
  // The restored handler/table references still work end to end.
  ASSERT_TRUE(mutated.Call("mutate", {mutated.Str("77")}).ok());
  EXPECT_EQ(mutated.interp->ReadGlobal("stored")->AsInt(), 77);
}

}  // namespace
}  // namespace spex
