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
// Storage layout is optimized for campaign throughput: per-frame registers
// are dense slots indexed by the per-function Value id, scalar globals live
// in a flat slot table built once per module, and array/field cells use
// hashed (not tree) lookup. String payloads are interned in a per-instance
// StringPool, so an RtValue is pointer-sized state and register moves,
// Reset() copies and snapshot restores never allocate. Call instructions
// are resolved once (defined function or intrinsic enum) instead of
// string-compared per call. The post-InitGlobals() image is cached so
// Reset() restores by copy, and TakeSnapshot()/RestoreSnapshot() extend the
// same trick to arbitrary execution points — an injection campaign replays
// the shared template-parse prefix thousands of times.
#ifndef SPEX_INTERP_INTERPRETER_H_
#define SPEX_INTERP_INTERPRETER_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/ir/ir.h"
#include "src/osim/os_simulator.h"
#include "src/support/cancellation.h"
#include "src/support/hashing.h"
#include "src/support/string_pool.h"

namespace spex {

// A runtime value: integer, float, string (possibly null), address, or a
// function reference (config-table handler slots). String payloads are
// interned: `sp` points into the stable storage of the pool owned by the
// Interpreter that produced the value (see Interpreter::InternedString), so
// copying an RtValue never copies characters. A string RtValue is valid for
// as long as that Interpreter lives.
struct RtValue {
  enum class Kind { kInt, kFloat, kString, kNull, kAddr, kFnRef };
  Kind kind = Kind::kInt;
  int64_t i = 0;
  double f = 0;

  // kString / kFnRef payload: stable pooled pointer plus the pool's symbol
  // id (diagnostics; equality of syms is only meaningful within one pool).
  const std::string* sp = nullptr;
  Symbol sym = kInvalidSymbol;

  // kAddr payload: frame -1 = global storage.
  int64_t frame = -1;
  const Value* root = nullptr;
  std::vector<int64_t> path;

  static RtValue Int(int64_t v);
  static RtValue Float(double v);
  static RtValue Null();
  // Wraps an already-interned payload (no hashing, no copy).
  static RtValue PooledStr(const std::string* sp, Symbol sym);
  static RtValue PooledFnRef(const std::string* sp, Symbol sym);

  // String payload; empty string when no payload is attached.
  const std::string& str() const;

  bool IsTruthy() const;
  int64_t AsInt() const;
  double AsFloat() const;
  std::string ToDebugString() const;
};

struct InterpOptions {
  // Instruction budget; exceeding it classifies the run as a hang.
  int64_t max_steps = 2'000'000;
  // Call-depth budget; exceeding it is a stack-overflow trap.
  int max_call_depth = 200;
};

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
  // Identity of a non-scalar cell (array element / struct field / alloca).
  struct CellKey {
    int64_t frame = -1;
    const Value* root = nullptr;
    std::vector<int64_t> path;

    bool operator==(const CellKey& other) const {
      return frame == other.frame && root == other.root && path == other.path;
    }
  };
  struct CellKeyHash {
    size_t operator()(const CellKey& key) const {
      size_t h = std::hash<const void*>()(key.root);
      h = HashCombine(h, std::hash<int64_t>()(key.frame));
      for (int64_t step : key.path) {
        h = HashCombine(h, std::hash<int64_t>()(step));
      }
      return h;
    }
  };
  using CellMap = std::unordered_map<CellKey, RtValue, CellKeyHash>;

 public:
  Interpreter(const Module& module, OsSimulator* os, InterpOptions options = {});

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
    std::vector<RtValue> scalars_;
    CellMap cells_;
    std::vector<int32_t> read_stamps_;
    std::vector<int32_t> write_stamps_;
    std::unordered_map<const Value*, int64_t> alloca_bounds_;
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
  void ClearLogs() { logs_.clear(); }
  // Current value of a scalar global, or nullopt if it does not exist.
  std::optional<RtValue> ReadGlobal(const std::string& name) const;
  void WriteGlobal(const std::string& name, RtValue value);
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
  // in cell storage across Call()s but are not covered by the per-global
  // stamps, so the campaign treats stale traffic on both sides of a
  // reordering as a conflict.
  int64_t stale_cell_ops() const { return stale_cell_ops_; }
  size_t log_count() const { return logs_.size(); }

 private:
  struct Frame {
    const Function* fn = nullptr;
    int64_t id = 0;
    // Dense register file indexed by Value::id() (arguments and
    // instructions share the function's id space).
    std::vector<RtValue> regs;
  };

  // Enum dispatch for the simulated C-library/OS surface; call sites are
  // resolved to an IntrinsicId once in BuildModuleIndex instead of walking
  // a string-compare chain per call.
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
    const Function* function = nullptr;
    IntrinsicId intrinsic = IntrinsicId::kNone;
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
  void BuildInitImage();
  RtValue DefaultValueFor(const IrType* type) const;

  const Function* LookupFunction(const std::string& name) const;
  const GlobalVariable* LookupGlobal(const std::string& name) const;
  // Resolves (and caches) the target of a call instruction on first
  // execution; see call_sites_.
  CallSite ResolveCallSite(const Instruction* instr);
  // Dense slot of a global root, or -1 if the root is not a global.
  int32_t GlobalSlotOf(const Value* root) const;

  RtValue RunFunction(const Function& fn, std::vector<RtValue> args);
  RtValue Eval(Frame& frame, const Value* value);
  RtValue ExecCall(Frame& frame, const Instruction* instr);
  RtValue Intrinsic(IntrinsicId id, const std::string& name, std::vector<RtValue>& args,
                    const Instruction* instr);

  RtValue LoadCell(const RtValue& addr, const Instruction* at);
  void StoreCell(const RtValue& addr, RtValue value, const Instruction* at);
  // Bumps stale_cell_ops_ when `frame` is not on the live call chain.
  void NoteFrameCellAccess(int64_t frame);
  // Bounds check for array roots; throws TrapError on violation.
  void CheckBounds(const Value* root, int32_t slot, const std::vector<int64_t>& path,
                   const Instruction* at) const;
  // Default value of an untouched cell, derived from the leaf type.
  RtValue DefaultCellValue(const Value* root, const std::vector<int64_t>& path) const;

  void Step();
  void AppendLog(std::string level, const std::string& message);
  std::string FormatMessage(const std::string& format, const std::vector<RtValue>& args,
                            size_t first_arg) const;

  const Module& module_;
  OsSimulator* os_;
  InterpOptions options_;
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
  std::vector<int64_t> global_bounds_;  // Slot -> element count (0 = scalar).
  // Constant-string operands interned per Value on first evaluation
  // (module constants are deduplicated, so this converges to one entry per
  // distinct literal actually executed).
  std::unordered_map<const Value*, RtValue> const_strings_;
  // Call instruction -> resolved target, filled lazily by ResolveCallSite
  // so construction stays free of a whole-module walk.
  std::unordered_map<const Instruction*, CallSite> call_sites_;

  // --- Cached InitGlobals() image; Reset() restores by copy.
  std::vector<RtValue> init_scalars_;
  CellMap init_cells_;

  // --- Mutable run state.
  std::vector<RtValue> global_scalars_;  // Slot -> scalar (path-empty) value.
  // Slot -> stamp of the last load/store through that global root since
  // Reset() (0 = untouched); GlobalWasRead() is stamp != 0.
  std::vector<int32_t> global_read_stamps_;
  std::vector<int32_t> global_write_stamps_;
  CellMap cells_;                        // Non-scalar globals + alloca cells.
  std::unordered_map<const Value*, int64_t> alloca_bounds_;
  std::vector<std::string> logs_;
  // Recycled register files; RunFunction pops/pushes to avoid a fresh
  // allocation per call.
  std::vector<std::vector<RtValue>> frame_pool_;
  // Frame ids of the live call chain, innermost last; cell accesses whose
  // frame is absent are escaped-local traffic (see stale_cell_ops()).
  std::vector<int64_t> active_frames_;
  int64_t steps_ = 0;
  int64_t next_frame_id_ = 0;
  int64_t os_ops_ = 0;  // Intrinsic calls that consulted the simulated OS.
  int64_t stale_cell_ops_ = 0;
  int32_t access_stamp_ = 1;
  int call_depth_ = 0;
};

}  // namespace spex

#endif  // SPEX_INTERP_INTERPRETER_H_
