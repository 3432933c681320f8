// Interpreter tests: execution semantics, traps, hangs, logs, intrinsics.
#include "src/interp/interpreter.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <limits>
#include <new>
#include <random>
#include <string>

#include "src/ir/lowering.h"
#include "src/lang/parser.h"

// Counts global operator new calls while armed, so a test can assert that a
// long-running Call() allocates a constant number of times, not once per step.
namespace {
std::atomic<bool> g_count_allocations{false};
std::atomic<int64_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  if (g_count_allocations.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* block = std::malloc(size == 0 ? 1 : size)) {
    return block;
  }
  throw std::bad_alloc();
}
// Out of line, so the compiler does not pair an inlined free() with a new
// expression and warn about a mismatch.
[[gnu::noinline]] void operator delete(void* block) noexcept { std::free(block); }
[[gnu::noinline]] void operator delete(void* block, std::size_t) noexcept { std::free(block); }

namespace spex {
namespace {

// How many times `run` calls operator new.
template <typename Run>
int64_t CountAllocations(Run&& run) {
  g_allocations.store(0);
  g_count_allocations.store(true);
  run();
  g_count_allocations.store(false);
  return g_allocations.load();
}

struct Sut {
  DiagnosticEngine diags;
  std::unique_ptr<Module> module;
  OsSimulator os = OsSimulator::StandardEnvironment();
  std::unique_ptr<Interpreter> interp;

  explicit Sut(std::string_view source) {
    auto unit = ParseSource(source, "sut.c", &diags);
    EXPECT_FALSE(diags.HasErrors()) << diags.Render();
    module = LowerToIr(*unit, &diags);
    EXPECT_FALSE(diags.HasErrors()) << diags.Render();
    interp = std::make_unique<Interpreter>(*module, &os);
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

TEST(InterpTest, LocalArrayOutOfBoundsIsSegfault) {
  Sut sut(R"(
    int fill_local(int n) {
      int buf[16];
      int i;
      for (i = 0; i < n; i++) { buf[i] = 1; }
      return buf[0];
    }
  )");
  EXPECT_TRUE(sut.Call("fill_local", {RtValue::Int(16)}).ok());
  CallOutcome fresh = sut.Call("fill_local", {RtValue::Int(17)});
  EXPECT_EQ(fresh.status, CallOutcome::Status::kTrap);
  EXPECT_NE(fresh.trap_reason.find("Segmentation fault (array index 16 out of bounds 0..15"),
            std::string::npos)
      << fresh.trap_reason;

  // The bound survives a snapshot round trip taken before the alloca ran.
  sut.interp->Reset();
  Interpreter::Snapshot snapshot = sut.interp->TakeSnapshot();
  EXPECT_TRUE(sut.Call("fill_local", {RtValue::Int(16)}).ok());
  sut.interp->RestoreSnapshot(snapshot);
  CallOutcome restored = sut.Call("fill_local", {RtValue::Int(17)});
  EXPECT_EQ(restored.status, CallOutcome::Status::kTrap);
  EXPECT_EQ(restored.trap_reason, fresh.trap_reason);
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
  Sut sut("int spin() { int i = 1; while (i != 0) { i = i + 1; } return 0; }");
  CallOutcome outcome = sut.Call("spin");
  EXPECT_EQ(outcome.status, CallOutcome::Status::kHang);
  EXPECT_EQ(sut.interp->steps_used(), Interpreter::kMaxSteps + 1);
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

TEST(InterpTest, PrefixParseWrapsModulo2To64) {
  // A user's overlong number must not run signed-overflow UB in the checker:
  // the prefix parse accumulates modulo 2^64, and atoi then keeps 32 bits.
  Sut sut(R"(
    int conv(char *s) { return atoi(s); }
    long convl(char *s) { return atol(s); }
  )");
  struct Case {
    const char* text;
    int64_t atol_value;
    int64_t atoi_value;
  };
  const Case cases[] = {
      {"99999999999999999999", 7766279631452241919LL, 1661992959},
      {"-99999999999999999999", -7766279631452241919LL, -1661992959},
      {"1234567890123456789012345", 1096246371337559929LL, 1038278521},
      {"-9223372036854775808", kIntMin, 0},
      {"9223372036854775807", kIntMax, -1},
      {"9223372036854775808", kIntMin, 0},
  };
  for (const Case& c : cases) {
    EXPECT_EQ(sut.Call("convl", {sut.Str(c.text)}).return_value.AsInt(), c.atol_value) << c.text;
    EXPECT_EQ(sut.Call("conv", {sut.Str(c.text)}).return_value.AsInt(), c.atoi_value) << c.text;
  }
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
    void set_master(int v) { master = v; }
    int run() {
      if (master != 0) { return dependent + 1; }
      return 0;
    }
  )");
  sut.Call("run");
  EXPECT_TRUE(sut.interp->GlobalWasRead("master"));
  EXPECT_FALSE(sut.interp->GlobalWasRead("dependent"));  // Guard was off.
  sut.interp->Reset();
  sut.Call("set_master", {RtValue::Int(1)});
  EXPECT_FALSE(sut.interp->GlobalWasRead("master"));  // A store is not a read.
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


// --- Memory edge semantics. An address names a cell by its root (a global
// or an alloca), the frame that owns the root, and the steps taken from it;
// these tests pin what that model does where C would be undefined.

TEST(InterpTest, EscapedLocalKeepsItsValueAfterReturn) {
  Sut sut(R"(
    int *leak;
    int keep_local(int v) { int x; x = v; leak = &x; return 0; }
    int read_leak() { return *leak; }
    int write_leak(int v) { *leak = v; return 0; }
  )");
  ASSERT_TRUE(sut.Call("keep_local", {RtValue::Int(41)}).ok());
  int64_t stale = sut.interp->stale_cell_ops();
  EXPECT_EQ(sut.Call("read_leak").return_value.AsInt(), 41);
  EXPECT_EQ(sut.interp->stale_cell_ops(), stale + 1);
  ASSERT_TRUE(sut.Call("write_leak", {RtValue::Int(7)}).ok());
  EXPECT_EQ(sut.interp->stale_cell_ops(), stale + 2);
  EXPECT_EQ(sut.Call("read_leak").return_value.AsInt(), 7);

  // A later call owns a fresh frame: the old cell keeps its value, and the
  // global now names the new one.
  ASSERT_TRUE(sut.Call("keep_local", {RtValue::Int(3)}).ok());
  EXPECT_EQ(sut.Call("read_leak").return_value.AsInt(), 3);
  EXPECT_EQ(sut.interp->stale_cell_ops(), stale + 4);
}

TEST(InterpTest, PointerIndexingOffTheStaticLayoutIsADistinctUncheckedCell) {
  Sut sut(R"(
    struct pair { int a; int b; };
    int arr[8];
    struct pair g;
    int write_offset() { int *p; p = &arr[3]; p[2] = 7; return arr[5]; }
    int read_offset() { int *p; p = &arr[3]; return p[2]; }
    int far_offset() { int *p; p = &arr[3]; p[100] = 1; return p[100] + p[-50]; }
    int scalar_index() {
      int x;
      int *p;
      x = 5;
      p = &x;
      p[1] = 9;
      return p[0] * 100 + x * 10 + p[1];
    }
    int struct_index() {
      struct pair *p;
      int *q;
      p = &g;
      p[1].a = 3;
      g.b = 4;
      q = &g.a;
      q[1] = 6;
      return p[1].a * 1000 + p->b * 100 + p[0].b * 10 + g.a;
    }
  )");
  // &arr[3] then [2] is not arr[5]: it is its own cell, never bounds-checked.
  EXPECT_EQ(sut.Call("write_offset").return_value.AsInt(), 0);
  EXPECT_EQ(sut.Call("read_offset").return_value.AsInt(), 7);
  CallOutcome far = sut.Call("far_offset");
  ASSERT_TRUE(far.ok()) << far.trap_reason;
  EXPECT_EQ(far.return_value.AsInt(), 1);
  // p[0] through a pointer to a scalar is a different cell from the scalar.
  EXPECT_EQ(sut.Call("scalar_index").return_value.AsInt(), 59);
  // p[1].a walks into field b and one step past it; q[1] from &g.a takes the
  // same two steps, so it names the same cell as p[0].b.
  EXPECT_EQ(sut.Call("struct_index").return_value.AsInt(), 3 * 1000 + 4 * 100 + 6 * 10);
}

TEST(InterpTest, UntouchedCellsDefaultByLeafType) {
  Sut sut(R"(
    struct rec { int n; char *name; double w; int *ptr; };
    struct rec one;
    struct rec rows[4];
    struct rec big[20000];
    int counts[4];
    double weights[4];
    char *names[4];
    int one_n() { return one.n; }
    char *one_name() { return one.name; }
    double one_w() { return one.w; }
    int *one_ptr() { return one.ptr; }
    int count_at(int i) { return counts[i]; }
    double weight_at(int i) { return weights[i]; }
    char *name_at(int i) { return names[i]; }
    int row_n(int i) { return rows[i].n; }
    char *row_name(int i) { return rows[i].name; }
    int big_n(int i) { return big[i].n; }
    char *big_name(int i) { return big[i].name; }
    int local_n() { struct rec mine; return mine.n; }
    char *local_name() { struct rec mine; return mine.name; }
    double local_w() { struct rec mine; return mine.w; }
    int local_row_n(int i) { struct rec mine[4]; return mine[i].n; }
    int local_count(int i) { int mine[4]; return mine[i]; }
  )");
  auto kind_of = [&](const std::string& fn, std::vector<RtValue> args = {}) {
    CallOutcome outcome = sut.Call(fn, std::move(args));
    EXPECT_TRUE(outcome.ok()) << fn << ": " << outcome.trap_reason;
    return outcome.return_value.kind;
  };
  using Kind = RtValue::Kind;
  EXPECT_EQ(kind_of("one_n"), Kind::kInt);
  EXPECT_EQ(kind_of("one_name"), Kind::kNull);
  EXPECT_EQ(kind_of("one_w"), Kind::kFloat);
  EXPECT_EQ(kind_of("one_ptr"), Kind::kNull);
  EXPECT_EQ(kind_of("count_at", {RtValue::Int(2)}), Kind::kInt);
  EXPECT_EQ(kind_of("weight_at", {RtValue::Int(2)}), Kind::kFloat);
  EXPECT_EQ(kind_of("name_at", {RtValue::Int(2)}), Kind::kNull);
  EXPECT_EQ(kind_of("local_n"), Kind::kInt);
  EXPECT_EQ(kind_of("local_name"), Kind::kNull);
  EXPECT_EQ(kind_of("local_w"), Kind::kFloat);
  EXPECT_EQ(kind_of("local_count", {RtValue::Int(3)}), Kind::kInt);
  // Every struct-array row defaults like the struct, as in C: n is int 0
  // and name a null pointer in each row. `big` is too large to lay out, so
  // its rows are overflow cells and take the same defaults.
  for (int64_t row = 0; row < 4; ++row) {
    EXPECT_EQ(kind_of("row_n", {RtValue::Int(row)}), Kind::kInt) << row;
    EXPECT_EQ(kind_of("row_name", {RtValue::Int(row)}), Kind::kNull) << row;
    EXPECT_EQ(kind_of("local_row_n", {RtValue::Int(row)}), Kind::kInt) << row;
  }
  for (int64_t row : {0, 1, 2, 19999}) {
    EXPECT_EQ(kind_of("big_n", {RtValue::Int(row)}), Kind::kInt) << row;
    EXPECT_EQ(kind_of("big_name", {RtValue::Int(row)}), Kind::kNull) << row;
  }
}

TEST(InterpTest, SnapshotRestoresIntoASecondInterpreter) {
  const char* source = R"(
    int counter;
    int arr[4];
    char *label = "init";
    int *leak;
    int write_all() {
      int x;
      counter = 5;
      arr[2] = 9;
      label = "changed";
      x = 12;
      leak = &x;
      log_info("wrote %d", counter);
      return 0;
    }
    int read_sum() { return counter * 10 + arr[2]; }
    int read_leak() { return *leak; }
  )";
  Sut sut(source);
  ASSERT_TRUE(sut.Call("write_all").ok());
  Interpreter::Snapshot snapshot = sut.interp->TakeSnapshot();

  OsSimulator os = OsSimulator::StandardEnvironment();
  Interpreter second(*sut.module, &os);
  second.RestoreSnapshot(snapshot);
  EXPECT_EQ(second.ReadGlobal("counter")->AsInt(), 5);
  EXPECT_EQ(second.ReadGlobal("label")->str(), "changed");
  EXPECT_EQ(second.logs(), sut.interp->logs());
  EXPECT_EQ(second.steps_used(), sut.interp->steps_used());
  EXPECT_EQ(second.global_write_stamps(), sut.interp->global_write_stamps());
  EXPECT_EQ(second.Call("read_sum", {}).return_value.AsInt(), 59);
  int64_t stale = second.stale_cell_ops();
  EXPECT_EQ(second.Call("read_leak", {}).return_value.AsInt(), 12);
  EXPECT_EQ(second.stale_cell_ops(), stale + 1);
  // The source interpreter is untouched by the restore.
  EXPECT_EQ(sut.Call("read_leak").return_value.AsInt(), 12);
}

TEST(InterpTest, ResetRestoresStructArrayInitializerImage) {
  Sut sut(R"(
    struct item { char *name; int value; };
    struct item items[] = { { "a", 1 }, { "b", 2 } };
    int scribble() { items[0].value = 100; items[1].name = "zzz"; items[1].value = 5; return 0; }
    int value_of(int i) { return items[i].value; }
    char *name_of(int i) { return items[i].name; }
  )");
  ASSERT_TRUE(sut.Call("scribble").ok());
  EXPECT_EQ(sut.Call("value_of", {RtValue::Int(0)}).return_value.AsInt(), 100);
  EXPECT_EQ(sut.Call("name_of", {RtValue::Int(1)}).return_value.str(), "zzz");
  sut.interp->Reset();
  EXPECT_EQ(sut.Call("value_of", {RtValue::Int(0)}).return_value.AsInt(), 1);
  EXPECT_EQ(sut.Call("value_of", {RtValue::Int(1)}).return_value.AsInt(), 2);
  EXPECT_EQ(sut.Call("name_of", {RtValue::Int(0)}).return_value.str(), "a");
  EXPECT_EQ(sut.Call("name_of", {RtValue::Int(1)}).return_value.str(), "b");
}

TEST(InterpTest, LongLoopMakesAConstantNumberOfAllocations) {
  // The hang archetype's loop on a local, plus a local array element and a
  // call per iteration: none of them may allocate per step.
  Sut sut(R"(
    int dec(int x) { return x - 1; }
    int spin(int v) {
      int i = v;
      int seen[2];
      while (i != 0) { seen[1] = i; i = dec(i); }
      return seen[1];
    }
  )");
  std::vector<RtValue> args = {RtValue::Int(100000)};
  CallOutcome outcome;
  const int64_t allocations =
      CountAllocations([&] { outcome = sut.interp->Call("spin", std::move(args)); });
  ASSERT_TRUE(outcome.ok()) << outcome.trap_reason;
  EXPECT_EQ(outcome.return_value.AsInt(), 1);
  EXPECT_GE(sut.interp->steps_used(), 1'000'000);
  EXPECT_LT(allocations, 64);
}

TEST(InterpTest, LocalCellsDoNotGrowWithCalls) {
  // A frame's cells are reused by the next call at its depth once its
  // address cannot be read any more: 10k calls that each write a
  // 4096-element local array allocate nothing.
  Sut sut(R"(
    int touch(int k) { int big[4096]; big[k] = k; return big[k]; }
    int churn(int n) {
      int i;
      int sum = 0;
      for (i = 0; i < n; i++) { sum = sum + touch(i % 4096); }
      return sum;
    }
  )");
  ASSERT_TRUE(sut.Call("churn", {RtValue::Int(100)}).ok());
  std::vector<RtValue> args = {RtValue::Int(10000)};
  CallOutcome outcome;
  const int64_t allocations =
      CountAllocations([&] { outcome = sut.interp->Call("churn", std::move(args)); });
  ASSERT_TRUE(outcome.ok()) << outcome.trap_reason;
  EXPECT_LT(allocations, 64);
}

// Seeded property test of the bounds checks: small programs write one
// element of a global or local int or struct array and read one back, with
// indices in range, at -1, at the bound and at the int64 extremes. The
// expected outcome is computed here: the value written, the type default,
// or the exact segfault text at the store or the load.
TEST(InterpTest, SeededArrayBoundsProperty) {
  std::mt19937_64 rng(0x5eedb0d5);
  auto pick_index = [&](int64_t bound) -> int64_t {
    switch (rng() % 8) {
      case 0:
        return -1;
      case 1:
        return bound;
      case 2:
        return kIntMin;
      case 3:
        return kIntMax;
      case 4:
        return bound + static_cast<int64_t>(rng() % 1000);
      default:
        return static_cast<int64_t>(rng() % static_cast<uint64_t>(bound));
    }
  };
  auto column_of = [](const std::string& line, const std::string& token) {
    return std::to_string(line.find(token) + 1);
  };
  int traps = 0;
  int defaults = 0;
  int written = 0;
  for (int program = 0; program < 600; ++program) {
    const int64_t bound = 1 + static_cast<int64_t>(rng() % 9);
    const bool local = (rng() & 1) != 0;
    const bool of_structs = (rng() & 1) != 0;
    const std::string element = of_structs ? "struct pt" : "int";
    const std::string decl = element + " arr[" + std::to_string(bound) + "];";
    const std::string field = of_structs ? ".b" : "";
    const std::string store_line = "arr[w]" + field + " = v;";
    const std::string load_line = "return arr[r]" + field + ";";
    const std::string source = "struct pt { int a; int b; };\n" +
                               (local ? std::string("int unused;") : decl) + "\n" +
                               "int probe(int w, int r, int v) {\n" +
                               (local ? decl : std::string("int spare;")) + "\n" +
                               store_line + "\n" + load_line + "\n}\n";
    const int64_t w = pick_index(bound);
    const int64_t r = (rng() % 3 == 0) ? w : pick_index(bound);
    const auto v = static_cast<int64_t>(rng());

    Sut sut(source);
    CallOutcome outcome = sut.Call("probe", {RtValue::Int(w), RtValue::Int(r), RtValue::Int(v)});
    auto out_of_bounds = [&](int64_t index, int line, const std::string& text,
                             const std::string& token) {
      return "Segmentation fault (array index " + std::to_string(index) + " out of bounds 0.." +
             std::to_string(bound - 1) + " at sut.c:" + std::to_string(line) + ":" +
             column_of(text, token) + ")";
    };
    const std::string label = source + "w=" + std::to_string(w) + " r=" + std::to_string(r);
    if (w < 0 || w >= bound) {
      ++traps;
      ASSERT_EQ(outcome.status, CallOutcome::Status::kTrap) << label;
      ASSERT_EQ(outcome.trap_reason, out_of_bounds(w, 5, store_line, "=")) << label;
    } else if (r < 0 || r >= bound) {
      ++traps;
      ASSERT_EQ(outcome.status, CallOutcome::Status::kTrap) << label;
      ASSERT_EQ(outcome.trap_reason, out_of_bounds(r, 6, load_line, of_structs ? "." : "["))
          << label;
    } else {
      ASSERT_TRUE(outcome.ok()) << label << ": " << outcome.trap_reason;
      ASSERT_EQ(outcome.return_value.kind, RtValue::Kind::kInt) << label;
      ASSERT_EQ(outcome.return_value.AsInt(), r == w ? v : 0) << label;
      ++(r == w ? written : defaults);
    }
  }
  // The seed reaches every outcome many times.
  EXPECT_GT(traps, 100);
  EXPECT_GT(defaults, 25);
  EXPECT_GT(written, 50);
}

}  // namespace
}  // namespace spex
