// Concrete IR interpreter with simulated-OS intrinsics.
//
// SPEX-INJ (Section 3.1) must observe how the target system *actually*
// reacts to an injected misconfiguration: crash, hang, early termination,
// silent violation, silent ignorance, or a helpful error message. The
// interpreter supplies exactly those observables: traps (out-of-bounds
// writes are segfaults, like OpenLDAP's listener-threads crash), a step
// budget (runaway loops are hangs), exit codes, captured logs, final global
// values, and a record of which globals were ever read.
//
// A hang is only seen after the whole step budget has run, so executing an
// instruction never touches the heap:
// - An RtValue is a trivially copyable 24-byte tagged union. Strings are
//   interned in a per-instance StringPool; an address is a (frame, cell)
//   pair.
// - Every global and every alloca is laid out once per Interpreter from its
//   IrType: one cell per scalar, struct field and array element, with field
//   offsets, element strides and array bounds. FieldAddr/IndexAddr are
//   integer arithmetic and a bounds check is a compare. A step the layout
//   does not cover (pointer indexing past an element, a field step on a
//   scalar) reaches an overflow cell, interned per frame on first use.
// - Cells live in flat vectors: one for the globals, one per frame. A
//   frame's cells and registers are pooled by call depth and reused, unless
//   the frame's address escaped, in which case its cells outlive the call.
//   Reset(), TakeSnapshot() and RestoreSnapshot() are vector copies.
// - Call instructions are resolved once (defined function or intrinsic
//   enum), and arguments are evaluated straight into the callee's registers.
#ifndef SPEX_INTERP_INTERPRETER_H_
#define SPEX_INTERP_INTERPRETER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "src/ir/ir.h"
#include "src/osim/os_simulator.h"
#include "src/support/cancellation.h"
#include "src/support/hashing.h"
#include "src/support/string_pool.h"

namespace spex {

// A runtime value: integer, float, string (possibly null), address, or a
// function reference (config-table handler slots). Trivially copyable, so
// register moves and cell copies are plain memory copies.
// - kString / kFnRef: `sp` points into the stable storage of the pool owned
//   by the Interpreter that produced the value (see
//   Interpreter::InternedString), so a string RtValue is valid for as long
//   as that Interpreter lives. `sym` is the pool's symbol id.
// - kAddr: `cell` indexes the cells of the owning frame, or of the globals
//   when `frame` is -1. `i` is the owning frame's call depth, a lookup hint.
//   An address whose first step left an array's bounds keeps the bad index
//   in `i` and the bound in `frame` instead; loading or storing through it
//   traps.
struct RtValue {
  enum class Kind : uint8_t { kInt, kFloat, kString, kNull, kAddr, kFnRef };
  Kind kind = Kind::kInt;
  union {
    Symbol sym = kInvalidSymbol;  // kString / kFnRef.
    uint32_t cell;                // kAddr.
  };
  union {
    int64_t i = 0;  // kInt; kAddr: owner's call depth, or the bad index.
    double f;       // kFloat.
    const std::string* sp;  // kString / kFnRef.
  };
  int64_t frame = -1;  // kAddr: owning frame id (-1 = globals), or the bound.

  // `cell` of an address whose first step left its array's bounds.
  static constexpr uint32_t kOutOfBounds = 0xFFFFFFFFu;

  static RtValue Int(int64_t v);
  static RtValue Float(double v);
  static RtValue Null();
  // Wraps an already-interned payload (no hashing, no copy).
  static RtValue PooledStr(const std::string* sp, Symbol sym);
  static RtValue PooledFnRef(const std::string* sp, Symbol sym);

  // String payload; empty string when the value carries none.
  const std::string& str() const;

  bool IsTruthy() const;
  int64_t AsInt() const;
  double AsFloat() const;
  std::string ToDebugString() const;
};
static_assert(std::is_trivially_copyable_v<RtValue>);
static_assert(sizeof(RtValue) <= 24);

struct CallOutcome {
  enum class Status {
    kOk,         // Returned normally.
    kExit,       // Called exit(code).
    kTrap,       // Segfault / abort / division by zero / stack overflow.
    kHang,       // Step budget exhausted.
    kCancelled,  // The caller's CancelToken fired mid-execution. Unlike
                 // kHang this says nothing about the *target* — the
                 // request ran out of time, not the system under test.
  };
  Status status = Status::kOk;
  RtValue return_value;
  int64_t exit_code = 0;
  std::string trap_reason;

  bool ok() const { return status == Status::kOk; }
};

class Interpreter {
 private:
  // Which cells one step from a cell reaches, and what the cell defaults to.
  struct FieldLayout;
  struct Shape {
    // Type an untouched cell's value defaults from, found by walking the
    // steps from the root: an array step keeps the element type, a struct
    // step takes the field's type (as C zero-initializes). Overflow cells
    // extend the walk.
    const IrType* walk = nullptr;
    int64_t bound = 0;     // > 0: an array root, whose first step is bounds-checked.
    uint32_t stride = 0;   // Array root: cells per element; 0 = elements are overflow cells.
    const FieldLayout* fields = nullptr;  // Struct node: its field cells.
  };
  // Cells of one struct value: itself, then each field's cells in order.
  struct FieldLayout {
    uint32_t cells = 1;
    std::vector<uint32_t> offsets;             // Field -> offset from the struct's cell.
    std::vector<const FieldLayout*> nested;    // Field -> its own layout (null = one cell).
  };
  // The cells of the globals, or of one function's frame, laid out once.
  struct Layout {
    std::vector<RtValue> image;    // Initial value of every cell.
    std::vector<Shape> shape;      // Per cell.
    std::vector<int32_t> owner;    // Globals: cell -> global slot (access stamps).
    std::vector<uint32_t> root;    // Globals: slot -> cell. Frames: alloca id -> cell.
  };
  // A cell reached by a step its parent's layout does not cover, interned
  // by (parent cell, step) the first time an address takes that step.
  struct OverflowStep {
    uint32_t cell = 0;
    int64_t step = 0;
    bool operator==(const OverflowStep& other) const {
      return cell == other.cell && step == other.step;
    }
  };
  struct OverflowStepHash {
    size_t operator()(const OverflowStep& key) const {
      return HashCombine(std::hash<uint32_t>()(key.cell), std::hash<int64_t>()(key.step));
    }
  };
  struct OverflowCell {
    const IrType* walk = nullptr;
    int32_t owner = -1;
  };
  // The cells of the globals or of one frame: the layout's cells, then
  // overflow cells.
  struct Space {
    int64_t id = -1;  // Frame id; -1 = globals.
    const Function* fn = nullptr;
    const Layout* layout = nullptr;
    std::vector<RtValue> cells;
    std::unordered_map<OverflowStep, uint32_t, OverflowStepHash> overflow;
    std::vector<OverflowCell> overflow_cells;  // Cell - layout size -> its walk and owner.
    bool live = false;         // On the call stack.
    bool escaped = false;      // Its address may outlive the call: keep the cells.
    bool holds_outer = false;  // Holds an address of a shallower live frame.
  };

 public:
  // Instruction budget; exceeding it classifies the run as a hang.
  static constexpr int64_t kMaxSteps = 2'000'000;
  // Call-depth budget; exceeding it is a stack-overflow trap.
  static constexpr size_t kMaxCallDepth = 200;

  Interpreter(const Module& module, OsSimulator* os);

  // Re-initializes global storage from the cached initializer image, clears
  // logs, read-tracking and the step counter. Does not reset the OS.
  void Reset();

  // A copy of all mutable run state at the moment it is taken. Restoring it
  // resumes execution exactly where the snapshot was taken — the campaign
  // uses this to replay the shared template-parse prefix once per delta
  // key-set instead of once per misconfiguration. A snapshot may be
  // restored into a *different* Interpreter over the same Module, provided
  // the interpreter that took it stays alive (interned payloads point into
  // its pool).
  class Snapshot {
   public:
    Snapshot() = default;

    // Access-stamp maps at the moment the snapshot was taken (see
    // set_access_stamp); the campaign's hazard check intersects these with
    // the delta parse's dynamic accesses.
    const std::vector<int32_t>& read_stamps() const { return read_stamps_; }
    const std::vector<int32_t>& write_stamps() const { return write_stamps_; }

   private:
    friend class Interpreter;
    Space globals_;
    std::unordered_map<int64_t, Space> kept_;  // Escaped frames that have returned.
    std::vector<int32_t> read_stamps_;
    std::vector<int32_t> write_stamps_;
    std::vector<std::string> logs_;
    int64_t steps_ = 0;
    int64_t next_frame_id_ = 0;
    int64_t os_ops_ = 0;
    int64_t stale_cell_ops_ = 0;
    int32_t access_stamp_ = 1;
  };

  Snapshot TakeSnapshot() const;
  void RestoreSnapshot(const Snapshot& snapshot);

  // Calls a function by name. Args are matched positionally; missing args
  // default to 0 / null.
  CallOutcome Call(const std::string& function, std::vector<RtValue> args);

  // Interns `text` into this interpreter's pool — the allocation-free way
  // to build string arguments for Call() on hot paths.
  RtValue InternedString(std::string_view text);

  // --- Observables.
  const std::vector<std::string>& logs() const { return logs_; }
  // Current value of a scalar global, or nullopt if it does not exist.
  std::optional<RtValue> ReadGlobal(const std::string& name) const;
  // Was the global's storage loaded since the last Reset()?
  bool GlobalWasRead(const std::string& name) const;
  int64_t steps_used() const { return steps_; }
  StringPool::Stats pool_stats() const { return pool_.stats(); }

  // --- Access stamping. Every load/store of a global root records the
  // current stamp against that global's slot, and every intrinsic that
  // consults the simulated OS bumps os_ops(). A driver that labels
  // execution segments with distinct stamps (the campaign stamps each
  // config entry's parse with its file position) can then ask which
  // segments read or wrote which globals — the conflict information the
  // snapshot-replay path needs to prove a reordered parse equivalent.
  void set_access_stamp(int32_t stamp) { access_stamp_ = stamp; }

  // --- Cooperative cancellation. When a token is set, the step-budget
  // path polls it every kCancelPollInterval steps (and every simulated
  // sleep); a fired token unwinds the current Call() with
  // Status::kCancelled. The token is borrowed, not owned — callers
  // (the campaign's replay driver) set it for the duration of one request
  // and clear it before returning the interpreter to a pool. Not part of
  // snapshots: cancellation is request state, not run state.
  void set_cancel_token(const CancelToken* token) { cancel_ = token; }
  const CancelToken* cancel_token() const { return cancel_; }
  const std::vector<int32_t>& global_read_stamps() const { return global_read_stamps_; }
  const std::vector<int32_t>& global_write_stamps() const { return global_write_stamps_; }
  int64_t os_ops() const { return os_ops_; }
  // Cell accesses through an address whose owning frame is no longer on
  // the call stack — i.e. through an escaped &local. These cells persist
  // across Call()s but are not covered by the per-global stamps, so the
  // campaign treats stale traffic on both sides of a reordering as a
  // conflict.
  int64_t stale_cell_ops() const { return stale_cell_ops_; }
  size_t log_count() const { return logs_.size(); }

 private:
  // One call-stack entry, pooled by depth: its buffers keep their capacity
  // from call to call.
  struct FunctionCode;
  struct Frame {
    const FunctionCode* code = nullptr;
    // Register file: one register per Value::id() (arguments and
    // instructions share the function's id space), then the function's
    // constant operands (see FunctionCode::regs).
    std::vector<RtValue> regs;
    std::vector<RtValue> call_args;  // Arguments of the intrinsic being called.
    Space space;
  };

  // Enum dispatch for the simulated C-library/OS surface; a call site is
  // resolved to an IntrinsicId on its first execution instead of walking a
  // string-compare chain per call.
  enum class IntrinsicId : uint8_t {
    kNone,  // Unresolved external: trap.
    kStrcmp,
    kStrcasecmp,
    kStrncmp,
    kStrncasecmp,
    kStrlen,
    kStrdup,
    kCanonicalizePath,
    kTolowerStr,
    kToupperStr,
    kStrchr,
    kStrstr,
    kAtoi,
    kAtol,
    kStrtod,
    kSscanf,
    kParseIntStrict,
    kOpen,
    kFopen,
    kOpendir,
    kAccess,
    kUnlink,
    kMkdir,
    kChdir,
    kChown,
    kRetZero,  // chmod/umask/close/read/write/free/listen/set_buffer_size/daemonize.
    kSocket,
    kBind,
    kConnect,
    kHtons,
    kHtonl,
    kInetAddr,
    kInetAton,
    kGethostbyname,
    kGetpwnam,
    kGetgrnam,
    kSetuidUser,
    kSleep,
    kUsleep,
    kPollWait,
    kTime,
    kMalloc,
    kExit,
    kAbort,
    kPrintf,
    kFprintf,
    kSprintf,
    kLogInfo,
    kLogWarn,
    kLogError,
    kLogFatal,
    kInvokeHandler,
  };

  // Resolved call target: a defined function, or an intrinsic id.
  struct CallSite {
    bool resolved = false;
    const FunctionCode* code = nullptr;
    IntrinsicId intrinsic = IntrinsicId::kNone;
  };

  // A function decoded for execution on its first call: one Op per
  // instruction, with every operand a register index. OpCode lists
  // InstrKind's values in InstrKind's order.
  enum class OpCode : uint8_t {
    kAlloca,
    kLoad,
    kStore,
    kBinOp,
    kCmp,
    kCast,
    kCall,
    kFieldAddr,
    kIndexAddr,
    kBr,
    kCondBr,
    kSwitch,
    kRet,
    kUnreachable,
    kFallOff,  // End of a block without a terminator: not a step; returns.
  };
  // What a cast converts to.
  enum class CastTo : uint8_t { kFloat, kBool, kInt8, kInt16, kInt32, kInt64, kSame };
  struct Op {
    OpCode code = OpCode::kFallOff;
    uint8_t sub = 0;    // kBinOp: IrBinOp. kCmp: IrCmpPred. kCast: CastTo. kRet: has a value.
    uint32_t dest = 0;  // Register written: the instruction's value id.
    // Operand registers. kStore: value, address. kAlloca: a = root cell.
    // kFieldAddr: b = field index. kCall/kSwitch: a = first entry in
    // FunctionCode::operands (call argument registers; switch target ops),
    // b = how many.
    uint32_t a = 0;
    uint32_t b = 0;
    // kBr/kCondBr: op of the (true) successor. kCall: call site.
    // kSwitch: the subject's register.
    uint32_t next = 0;
    uint32_t alt = 0;   // kCondBr: op of the false successor.
    const Instruction* instr = nullptr;
  };
  struct FunctionCode {
    const Function* fn = nullptr;
    Layout frame;  // The frame's cells: root = alloca id -> cell.
    // Initial register file: value ids (Int 0), then constant operands.
    std::vector<RtValue> regs;
    std::vector<Op> ops;
    std::vector<uint32_t> operands;
    mutable std::vector<CallSite> sites;  // Resolved on first execution.
    RtValue result;  // Returned when control falls off the end.
  };

  class TrapError {
   public:
    explicit TrapError(std::string reason) : reason_(std::move(reason)) {}
    const std::string& reason() const { return reason_; }

   private:
    std::string reason_;
  };
  class ExitRequest {
   public:
    explicit ExitRequest(int64_t code) : code_(code) {}
    int64_t code() const { return code_; }

   private:
    int64_t code_;
  };
  class HangError {};
  class CancelError {};

  // How many steps run between cancel-token polls: rare enough that the
  // poll (one relaxed load; a clock read when a deadline is armed) is
  // invisible next to the interpreter's per-step work, frequent enough
  // that a runaway loop is interrupted within ~microseconds.
  static constexpr int64_t kCancelPollInterval = 1024;

  void BuildModuleIndex();
  void BuildGlobals();
  RtValue DefaultValueFor(const IrType* type) const;

  // --- Layout building (see the header comment).
  const FieldLayout* StructLayout(const IrType* type);
  void LayOutNode(Layout* layout, const IrType* walk, const FieldLayout* fields, int32_t owner);
  void LayOutRoot(Layout* layout, const IrType* type, int64_t bound, int32_t owner);
  const FunctionCode& CodeFor(const Function& fn);
  RtValue ConstantValue(const Value* value);

  const Function* LookupFunction(const std::string& name) const;
  const GlobalVariable* LookupGlobal(const std::string& name) const;
  // Resolves a call instruction's target on its first execution, so
  // decoding a function never decodes its callees.
  void ResolveCallSite(const Instruction* instr, CallSite* site);
  // Dense slot of a global root, or -1 if the root is not a global.
  int32_t GlobalSlotOf(const Value* root) const;

  // Pushes a frame for `fn` (stack-overflow trap past kMaxCallDepth);
  // the caller then fills the argument registers and runs it.
  Frame& PushFrame(const FunctionCode& code);
  void PopFrame();
  RtValue RunFrame(Frame& frame);
  RtValue ExecCall(Frame& frame, const Op& op);
  RtValue Intrinsic(IntrinsicId id, const std::string& name, std::vector<RtValue>& args,
                    const Instruction* instr);

  // The address one step (an index or a field number) past `addr`.
  RtValue Advance(RtValue addr, int64_t step);
  RtValue LoadCell(const RtValue& addr, const Instruction* at);
  void StoreCell(const RtValue& addr, const RtValue& value, const Instruction* at);
  // The space owning a frame address: a live frame, or an escaped one that
  // returned (counted in stale_cell_ops_ when `access`). Traps when the
  // frame's cells are gone, which only an address kept across Reset() can
  // reach.
  Space& FrameSpace(const RtValue& addr, bool access);
  Frame* LiveFrame(const RtValue& addr) const;
  int32_t GlobalOwner(uint32_t cell) const;
  [[noreturn]] void ThrowOutOfBounds(const RtValue& addr, const Instruction* at) const;
  // Escape bookkeeping for an address value stored into `dest`.
  void NoteAddressStored(Space& dest, const RtValue& value);
  static void AssignCells(Space* to, const Space& from);

  void Step();
  void AppendLog(std::string level, const std::string& message);
  std::string FormatMessage(const std::string& format, const std::vector<RtValue>& args,
                            size_t first_arg) const;

  const Module& module_;
  OsSimulator* os_;
  const CancelToken* cancel_ = nullptr;  // Borrowed; see set_cancel_token.

  // --- Per-instance interned-string pool. Append-only with stable
  // addresses; RtValues built by this interpreter point into it.
  StringPool pool_;

  // --- Module-derived indexes, built once per Interpreter (the module is
  // immutable). Function/global lookup by name is hashed; Module::Find* is
  // a linear scan and far too slow for the call-instruction hot path.
  std::unordered_map<std::string, const Function*> functions_by_name_;
  std::unordered_map<std::string, const GlobalVariable*> globals_by_name_;
  std::unordered_map<const Value*, int32_t> global_slot_;

  // --- Layouts: the globals' at construction, a function's (with its
  // code) on its first call. Struct layouts are shared by all of them.
  std::unordered_map<const IrType*, FieldLayout> struct_layouts_;
  Layout global_layout_;
  std::unordered_map<const Function*, FunctionCode> code_;
  Space init_globals_;  // The globals after their initializers; Reset() copies it.

  // --- Mutable run state.
  Space globals_;
  // Slot -> stamp of the last load/store through that global root since
  // Reset() (0 = untouched); GlobalWasRead() is stamp != 0.
  std::vector<int32_t> global_read_stamps_;
  std::vector<int32_t> global_write_stamps_;
  std::vector<std::string> logs_;
  // The call stack, pooled: stack_[0..depth_) are live, the rest keep
  // their buffers for the next call at that depth.
  std::vector<std::unique_ptr<Frame>> stack_;
  size_t depth_ = 0;
  std::unordered_map<int64_t, Space> kept_;  // Escaped frames that have returned.
  int64_t steps_ = 0;
  int64_t next_frame_id_ = 0;
  int64_t os_ops_ = 0;  // Intrinsic calls that consulted the simulated OS.
  int64_t stale_cell_ops_ = 0;
  int32_t access_stamp_ = 1;
};

}  // namespace spex

#endif  // SPEX_INTERP_INTERPRETER_H_
