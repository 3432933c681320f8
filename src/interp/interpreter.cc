#include "src/interp/interpreter.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/support/strings.h"

namespace spex {

// ---------------------------------------------------------------------------
// RtValue helpers.

namespace {

const std::string& EmptyString() {
  static const std::string* kEmpty = new std::string();
  return *kEmpty;
}

}  // namespace

RtValue RtValue::Int(int64_t v) {
  RtValue value;
  value.kind = Kind::kInt;
  value.i = v;
  return value;
}

RtValue RtValue::Float(double v) {
  RtValue value;
  value.kind = Kind::kFloat;
  value.f = v;
  return value;
}

RtValue RtValue::Null() {
  RtValue value;
  value.kind = Kind::kNull;
  return value;
}

RtValue RtValue::PooledStr(const std::string* sp, Symbol sym) {
  RtValue value;
  value.kind = Kind::kString;
  value.sp = sp;
  value.sym = sym;
  return value;
}

RtValue RtValue::PooledFnRef(const std::string* sp, Symbol sym) {
  RtValue value;
  value.kind = Kind::kFnRef;
  value.sp = sp;
  value.sym = sym;
  return value;
}

const std::string& RtValue::str() const { return sp != nullptr ? *sp : EmptyString(); }

bool RtValue::IsTruthy() const {
  switch (kind) {
    case Kind::kInt:
      return i != 0;
    case Kind::kFloat:
      return f != 0;
    case Kind::kString:
      return true;  // Non-null pointer.
    case Kind::kNull:
      return false;
    case Kind::kAddr:
    case Kind::kFnRef:
      return true;
  }
  return false;
}

int64_t RtValue::AsInt() const {
  switch (kind) {
    case Kind::kInt:
      return i;
    case Kind::kFloat:
      return static_cast<int64_t>(f);
    default:
      return 0;
  }
}

double RtValue::AsFloat() const {
  switch (kind) {
    case Kind::kFloat:
      return f;
    case Kind::kInt:
      return static_cast<double>(i);
    default:
      return 0;
  }
}

std::string RtValue::ToDebugString() const {
  switch (kind) {
    case Kind::kInt:
      return std::to_string(i);
    case Kind::kFloat:
      return std::to_string(f);
    case Kind::kString:
      return "\"" + str() + "\"";
    case Kind::kNull:
      return "null";
    case Kind::kAddr:
      return "<addr>";
    case Kind::kFnRef:
      return "<fn " + str() + ">";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Construction and global initialization.

Interpreter::Interpreter(const Module& module, OsSimulator* os, InterpOptions options)
    : module_(module), os_(os), options_(options) {
  BuildModuleIndex();
  BuildInitImage();
  Reset();
}

RtValue Interpreter::InternedString(std::string_view text) {
  Symbol sym = pool_.Intern(text);
  return RtValue::PooledStr(pool_.StablePtr(sym), sym);
}

namespace {

// Name -> intrinsic id; built once, consulted by ResolveCallSite the first
// time each call instruction executes.
using IntrinsicTable = std::unordered_map<std::string_view, uint8_t>;

}  // namespace

void Interpreter::BuildModuleIndex() {
  functions_by_name_.reserve(module_.functions().size());
  for (const auto& fn : module_.functions()) {
    // Like Module::FindFunction, a definition wins over a declaration of
    // the same name. (Among multiple declarations the first wins here, the
    // last there — unobservable, since callers only check IsDeclaration().)
    auto [it, inserted] = functions_by_name_.emplace(fn->name(), fn.get());
    if (!inserted && it->second->IsDeclaration() && !fn->IsDeclaration()) {
      it->second = fn.get();
    }
  }
  const auto& globals = module_.globals();
  globals_by_name_.reserve(globals.size());
  global_slot_.reserve(globals.size());
  global_bounds_.reserve(globals.size());
  for (size_t i = 0; i < globals.size(); ++i) {
    const GlobalVariable* global = globals[i].get();
    globals_by_name_.emplace(global->name(), global);
    global_slot_.emplace(global, static_cast<int32_t>(i));
    global_bounds_.push_back(global->is_array() ? global->array_size() : 0);
  }
  global_read_stamps_.assign(globals.size(), 0);
  global_write_stamps_.assign(globals.size(), 0);
}

// Lazily resolves one call instruction to a defined function or an
// intrinsic id. Resolution is cached per instruction in call_sites_, so the
// name hash and the (one-time) table lookup are paid once per call site,
// not once per executed call — and never for code that does not run, which
// keeps interpreter startup free of a whole-module walk.
Interpreter::CallSite Interpreter::ResolveCallSite(const Instruction* instr) {
  static const IntrinsicTable* kIntrinsics = [] {
    auto* table = new IntrinsicTable{
        {"strcmp", uint8_t(IntrinsicId::kStrcmp)},
        {"strcasecmp", uint8_t(IntrinsicId::kStrcasecmp)},
        {"strncmp", uint8_t(IntrinsicId::kStrncmp)},
        {"strncasecmp", uint8_t(IntrinsicId::kStrncasecmp)},
        {"strlen", uint8_t(IntrinsicId::kStrlen)},
        {"strdup", uint8_t(IntrinsicId::kStrdup)},
        {"canonicalize_path", uint8_t(IntrinsicId::kCanonicalizePath)},
        {"tolower_str", uint8_t(IntrinsicId::kTolowerStr)},
        {"toupper_str", uint8_t(IntrinsicId::kToupperStr)},
        {"strchr", uint8_t(IntrinsicId::kStrchr)},
        {"strstr", uint8_t(IntrinsicId::kStrstr)},
        {"atoi", uint8_t(IntrinsicId::kAtoi)},
        {"atol", uint8_t(IntrinsicId::kAtol)},
        {"strtol", uint8_t(IntrinsicId::kAtol)},
        {"strtoll", uint8_t(IntrinsicId::kAtol)},
        {"strtoul", uint8_t(IntrinsicId::kAtol)},
        {"strtod", uint8_t(IntrinsicId::kStrtod)},
        {"sscanf", uint8_t(IntrinsicId::kSscanf)},
        {"parse_int_strict", uint8_t(IntrinsicId::kParseIntStrict)},
        {"open", uint8_t(IntrinsicId::kOpen)},
        {"fopen", uint8_t(IntrinsicId::kFopen)},
        {"opendir", uint8_t(IntrinsicId::kOpendir)},
        {"access", uint8_t(IntrinsicId::kAccess)},
        {"stat_file", uint8_t(IntrinsicId::kAccess)},
        {"unlink", uint8_t(IntrinsicId::kUnlink)},
        {"mkdir", uint8_t(IntrinsicId::kMkdir)},
        {"chdir", uint8_t(IntrinsicId::kChdir)},
        {"chroot", uint8_t(IntrinsicId::kChdir)},
        {"chown", uint8_t(IntrinsicId::kChown)},
        {"chmod", uint8_t(IntrinsicId::kRetZero)},
        {"umask", uint8_t(IntrinsicId::kRetZero)},
        {"close", uint8_t(IntrinsicId::kRetZero)},
        {"read", uint8_t(IntrinsicId::kRetZero)},
        {"write", uint8_t(IntrinsicId::kRetZero)},
        {"free", uint8_t(IntrinsicId::kRetZero)},
        {"listen", uint8_t(IntrinsicId::kRetZero)},
        {"set_buffer_size", uint8_t(IntrinsicId::kRetZero)},
        {"daemonize", uint8_t(IntrinsicId::kRetZero)},
        {"socket", uint8_t(IntrinsicId::kSocket)},
        {"bind", uint8_t(IntrinsicId::kBind)},
        {"connect", uint8_t(IntrinsicId::kConnect)},
        {"htons", uint8_t(IntrinsicId::kHtons)},
        {"ntohs", uint8_t(IntrinsicId::kHtons)},
        {"set_port", uint8_t(IntrinsicId::kHtons)},
        {"htonl", uint8_t(IntrinsicId::kHtonl)},
        {"ntohl", uint8_t(IntrinsicId::kHtonl)},
        {"inet_addr", uint8_t(IntrinsicId::kInetAddr)},
        {"inet_aton", uint8_t(IntrinsicId::kInetAton)},
        {"gethostbyname", uint8_t(IntrinsicId::kGethostbyname)},
        {"getpwnam", uint8_t(IntrinsicId::kGetpwnam)},
        {"getgrnam", uint8_t(IntrinsicId::kGetgrnam)},
        {"setuid_user", uint8_t(IntrinsicId::kSetuidUser)},
        {"sleep", uint8_t(IntrinsicId::kSleep)},
        {"alarm", uint8_t(IntrinsicId::kSleep)},
        {"usleep", uint8_t(IntrinsicId::kUsleep)},
        {"poll_wait", uint8_t(IntrinsicId::kPollWait)},
        {"set_timeout_ms", uint8_t(IntrinsicId::kPollWait)},
        {"time", uint8_t(IntrinsicId::kTime)},
        {"malloc", uint8_t(IntrinsicId::kMalloc)},
        {"alloc_buffer", uint8_t(IntrinsicId::kMalloc)},
        {"exit", uint8_t(IntrinsicId::kExit)},
        {"_exit", uint8_t(IntrinsicId::kExit)},
        {"abort", uint8_t(IntrinsicId::kAbort)},
        {"printf", uint8_t(IntrinsicId::kPrintf)},
        {"fprintf", uint8_t(IntrinsicId::kFprintf)},
        {"sprintf", uint8_t(IntrinsicId::kSprintf)},
        {"log_info", uint8_t(IntrinsicId::kLogInfo)},
        {"log_warn", uint8_t(IntrinsicId::kLogWarn)},
        {"log_error", uint8_t(IntrinsicId::kLogError)},
        {"log_fatal", uint8_t(IntrinsicId::kLogFatal)},
        {"invoke_handler1", uint8_t(IntrinsicId::kInvokeHandler)},
        {"invoke_handler2", uint8_t(IntrinsicId::kInvokeHandler)},
    };
    return table;
  }();

  CallSite site;
  const Function* callee = LookupFunction(instr->callee());
  if (callee != nullptr && !callee->IsDeclaration()) {
    site.function = callee;
  } else {
    auto it = kIntrinsics->find(instr->callee());
    site.intrinsic = it != kIntrinsics->end() ? IntrinsicId(it->second) : IntrinsicId::kNone;
  }
  return call_sites_.emplace(instr, site).first->second;
}

const Function* Interpreter::LookupFunction(const std::string& name) const {
  auto it = functions_by_name_.find(name);
  return it != functions_by_name_.end() ? it->second : nullptr;
}

const GlobalVariable* Interpreter::LookupGlobal(const std::string& name) const {
  auto it = globals_by_name_.find(name);
  return it != globals_by_name_.end() ? it->second : nullptr;
}

int32_t Interpreter::GlobalSlotOf(const Value* root) const {
  auto it = global_slot_.find(root);
  return it != global_slot_.end() ? it->second : -1;
}

void Interpreter::Reset() {
  global_scalars_ = init_scalars_;
  cells_ = init_cells_;
  std::fill(global_read_stamps_.begin(), global_read_stamps_.end(), 0);
  std::fill(global_write_stamps_.begin(), global_write_stamps_.end(), 0);
  alloca_bounds_.clear();
  logs_.clear();
  active_frames_.clear();
  steps_ = 0;
  next_frame_id_ = 0;
  os_ops_ = 0;
  stale_cell_ops_ = 0;
  access_stamp_ = 1;
  call_depth_ = 0;
}

Interpreter::Snapshot Interpreter::TakeSnapshot() const {
  Snapshot snapshot;
  snapshot.scalars_ = global_scalars_;
  snapshot.cells_ = cells_;
  snapshot.read_stamps_ = global_read_stamps_;
  snapshot.write_stamps_ = global_write_stamps_;
  snapshot.alloca_bounds_ = alloca_bounds_;
  snapshot.logs_ = logs_;
  snapshot.steps_ = steps_;
  snapshot.next_frame_id_ = next_frame_id_;
  snapshot.os_ops_ = os_ops_;
  snapshot.stale_cell_ops_ = stale_cell_ops_;
  snapshot.access_stamp_ = access_stamp_;
  return snapshot;
}

void Interpreter::RestoreSnapshot(const Snapshot& snapshot) {
  global_scalars_ = snapshot.scalars_;
  cells_ = snapshot.cells_;
  global_read_stamps_ = snapshot.read_stamps_;
  global_write_stamps_ = snapshot.write_stamps_;
  alloca_bounds_ = snapshot.alloca_bounds_;
  logs_ = snapshot.logs_;
  steps_ = snapshot.steps_;
  next_frame_id_ = snapshot.next_frame_id_;
  os_ops_ = snapshot.os_ops_;
  stale_cell_ops_ = snapshot.stale_cell_ops_;
  access_stamp_ = snapshot.access_stamp_;
  active_frames_.clear();
  call_depth_ = 0;
}

RtValue Interpreter::DefaultValueFor(const IrType* type) const {
  if (type == nullptr) {
    return RtValue::Int(0);
  }
  switch (type->kind()) {
    case IrTypeKind::kFloat:
      return RtValue::Float(0);
    case IrTypeKind::kString:
    case IrTypeKind::kPointer:
      return RtValue::Null();
    default:
      return RtValue::Int(0);
  }
}

void Interpreter::BuildInitImage() {
  init_scalars_.reserve(module_.globals().size());
  for (const auto& global : module_.globals()) {
    init_scalars_.push_back(DefaultValueFor(global->value_type()));
    const GlobalInit& init = global->init();

    auto leaf_value = [this](const GlobalInit& leaf) -> RtValue {
      switch (leaf.kind) {
        case GlobalInit::Kind::kInt:
          return RtValue::Int(leaf.int_value);
        case GlobalInit::Kind::kFloat:
          return RtValue::Float(leaf.float_value);
        case GlobalInit::Kind::kString: {
          Symbol sym = pool_.Intern(leaf.string_value);
          return RtValue::PooledStr(pool_.StablePtr(sym), sym);
        }
        case GlobalInit::Kind::kNull:
          return RtValue::Null();
        case GlobalInit::Kind::kGlobalRef: {
          // Address of another global, or a function reference.
          const GlobalVariable* target = LookupGlobal(leaf.string_value);
          if (target != nullptr) {
            RtValue addr;
            addr.kind = RtValue::Kind::kAddr;
            addr.frame = -1;
            addr.root = target;
            return addr;
          }
          Symbol sym = pool_.Intern(leaf.string_value);
          return RtValue::PooledFnRef(pool_.StablePtr(sym), sym);
        }
        default:
          return RtValue::Int(0);
      }
    };
    auto store_leaf = [this, &global, &leaf_value](std::vector<int64_t> path,
                                                   const GlobalInit& leaf) {
      CellKey key;
      key.frame = -1;
      key.root = global.get();
      key.path = std::move(path);
      init_cells_[std::move(key)] = leaf_value(leaf);
    };

    if (init.kind == GlobalInit::Kind::kNone) {
      continue;  // Scalar slot already holds the type default.
    }
    if (init.kind != GlobalInit::Kind::kList) {
      init_scalars_.back() = leaf_value(init);
      continue;
    }
    // Array and/or struct initializer.
    const IrType* type = global->value_type();
    for (size_t i = 0; i < init.elements.size(); ++i) {
      const GlobalInit& element = init.elements[i];
      if (element.kind == GlobalInit::Kind::kList) {
        // Struct row (possibly inside an array).
        for (size_t j = 0; j < element.elements.size(); ++j) {
          store_leaf({static_cast<int64_t>(i), static_cast<int64_t>(j)},
                     element.elements[j]);
        }
      } else if (global->is_array()) {
        store_leaf({static_cast<int64_t>(i)}, element);
      } else if (type->IsStruct()) {
        // Struct initializer without nesting: field i.
        store_leaf({static_cast<int64_t>(i)}, element);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Memory.

void Interpreter::CheckBounds(const Value* root, int32_t slot,
                              const std::vector<int64_t>& path, const Instruction* at) const {
  if (path.empty()) {
    return;
  }
  int64_t bound = 0;
  if (slot >= 0) {
    bound = global_bounds_[static_cast<size_t>(slot)];
  } else {
    auto it = alloca_bounds_.find(root);
    bound = it != alloca_bounds_.end() ? it->second : 0;
  }
  if (bound <= 0) {
    return;
  }
  int64_t index = path.front();
  if (index < 0 || index >= bound) {
    throw TrapError("Segmentation fault (array index " + std::to_string(index) +
                    " out of bounds 0.." + std::to_string(bound - 1) + " at " +
                    (at != nullptr ? at->loc().ToString() : "<unknown>") + ")");
  }
}

RtValue Interpreter::DefaultCellValue(const Value* root,
                                      const std::vector<int64_t>& path) const {
  const IrType* type = nullptr;
  if (root->value_kind() == ValueKind::kGlobal) {
    type = static_cast<const GlobalVariable*>(root)->value_type();
  } else if (root->value_kind() == ValueKind::kInstruction) {
    type = static_cast<const Instruction*>(root)->allocated_type();
  }
  for (size_t i = 0; i < path.size() && type != nullptr; ++i) {
    if (type->IsStruct()) {
      size_t field = static_cast<size_t>(path[i]);
      type = field < type->field_types().size() ? type->field_types()[field] : nullptr;
    }
    // Array steps keep the element type (arrays are typed by their element).
  }
  return DefaultValueFor(type);
}

void Interpreter::NoteFrameCellAccess(int64_t frame) {
  if (!active_frames_.empty() && active_frames_.back() == frame) {
    return;  // Own frame: the overwhelmingly common case.
  }
  if (std::find(active_frames_.begin(), active_frames_.end(), frame) != active_frames_.end()) {
    return;  // A live caller's frame (address passed down the call chain).
  }
  ++stale_cell_ops_;  // Escaped &local from a completed call.
}

RtValue Interpreter::LoadCell(const RtValue& addr, const Instruction* at) {
  if (addr.kind == RtValue::Kind::kNull) {
    throw TrapError("Segmentation fault (null pointer dereference)");
  }
  if (addr.kind != RtValue::Kind::kAddr) {
    throw TrapError("Segmentation fault (load through non-pointer value)");
  }
  int32_t slot = addr.frame == -1 ? GlobalSlotOf(addr.root) : -1;
  CheckBounds(addr.root, slot, addr.path, at);
  if (addr.frame != -1) {
    NoteFrameCellAccess(addr.frame);
  }
  if (slot >= 0) {
    global_read_stamps_[static_cast<size_t>(slot)] = access_stamp_;
    if (addr.path.empty()) {
      return global_scalars_[static_cast<size_t>(slot)];
    }
  }
  CellKey key;
  key.frame = addr.frame;
  key.root = addr.root;
  key.path = addr.path;
  auto it = cells_.find(key);
  if (it != cells_.end()) {
    return it->second;
  }
  // Untouched cell: default by leaf type when derivable.
  return DefaultCellValue(addr.root, addr.path);
}

void Interpreter::StoreCell(const RtValue& addr, RtValue value, const Instruction* at) {
  if (addr.kind == RtValue::Kind::kNull) {
    throw TrapError("Segmentation fault (null pointer write)");
  }
  if (addr.kind != RtValue::Kind::kAddr) {
    throw TrapError("Segmentation fault (store through non-pointer value)");
  }
  int32_t slot = addr.frame == -1 ? GlobalSlotOf(addr.root) : -1;
  CheckBounds(addr.root, slot, addr.path, at);
  if (addr.frame != -1) {
    NoteFrameCellAccess(addr.frame);
  }
  if (slot >= 0) {
    global_write_stamps_[static_cast<size_t>(slot)] = access_stamp_;
    if (addr.path.empty()) {
      global_scalars_[static_cast<size_t>(slot)] = std::move(value);
      return;
    }
  }
  CellKey key;
  key.frame = addr.frame;
  key.root = addr.root;
  key.path = addr.path;
  cells_[std::move(key)] = std::move(value);
}

// ---------------------------------------------------------------------------
// Execution.

void Interpreter::Step() {
  if (++steps_ > options_.max_steps) {
    throw HangError();
  }
  // The deadline check rides the step-budget path: same counter, same
  // unwind mechanism, polled once per kCancelPollInterval steps so the
  // request deadline interrupts even a loop the step budget would take
  // milliseconds to catch.
  if ((steps_ & (kCancelPollInterval - 1)) == 0 && cancel_ != nullptr &&
      cancel_->ShouldCancel()) {
    throw CancelError();
  }
}

CallOutcome Interpreter::Call(const std::string& function, std::vector<RtValue> args) {
  CallOutcome outcome;
  const Function* fn = LookupFunction(function);
  if (fn == nullptr || fn->IsDeclaration()) {
    outcome.status = CallOutcome::Status::kTrap;
    outcome.trap_reason = "no such function: " + function;
    return outcome;
  }
  try {
    outcome.return_value = RunFunction(*fn, std::move(args));
    outcome.status = CallOutcome::Status::kOk;
  } catch (const ExitRequest& exit_request) {
    outcome.status = CallOutcome::Status::kExit;
    outcome.exit_code = exit_request.code();
  } catch (const TrapError& trap) {
    outcome.status = CallOutcome::Status::kTrap;
    outcome.trap_reason = trap.reason();
  } catch (const HangError&) {
    outcome.status = CallOutcome::Status::kHang;
    outcome.trap_reason = "step budget exhausted";
  } catch (const CancelError&) {
    outcome.status = CallOutcome::Status::kCancelled;
    outcome.trap_reason = cancel_ != nullptr &&
                                  cancel_->reason() == CancelToken::Reason::kDeadline
                              ? "request deadline exceeded mid-execution"
                              : "request cancelled mid-execution";
  }
  // Trap/exit/hang unwinding skips RunFunction's frame pops.
  active_frames_.clear();
  call_depth_ = 0;
  return outcome;
}

RtValue Interpreter::Eval(Frame& frame, const Value* value) {
  switch (value->value_kind()) {
    case ValueKind::kConstantInt:
      return RtValue::Int(value->constant_int());
    case ValueKind::kConstantFloat:
      return RtValue::Float(value->constant_float());
    case ValueKind::kConstantString: {
      auto it = const_strings_.find(value);
      if (it != const_strings_.end()) {
        return it->second;
      }
      // Slow path for constants not discovered by the module walk.
      return const_strings_.emplace(value, InternedString(value->constant_string()))
          .first->second;
    }
    case ValueKind::kConstantNull:
      return RtValue::Null();
    case ValueKind::kGlobal: {
      RtValue addr;
      addr.kind = RtValue::Kind::kAddr;
      addr.frame = -1;
      addr.root = value;
      return addr;
    }
    case ValueKind::kArgument:
    case ValueKind::kInstruction: {
      uint32_t id = value->id();
      return id < frame.regs.size() ? frame.regs[id] : RtValue::Int(0);
    }
  }
  return RtValue::Int(0);
}

RtValue Interpreter::RunFunction(const Function& fn, std::vector<RtValue> args) {
  if (++call_depth_ > options_.max_call_depth) {
    --call_depth_;
    throw TrapError("Segmentation fault (stack overflow)");
  }
  Frame frame;
  frame.fn = &fn;
  frame.id = next_frame_id_++;
  active_frames_.push_back(frame.id);
  if (!frame_pool_.empty()) {
    frame.regs = std::move(frame_pool_.back());
    frame_pool_.pop_back();
  }
  frame.regs.assign(fn.value_id_count(), RtValue());
  for (size_t i = 0; i < fn.arguments().size(); ++i) {
    frame.regs[fn.arguments()[i]->id()] =
        i < args.size() ? std::move(args[i]) : DefaultValueFor(fn.arguments()[i]->type());
  }

  const BasicBlock* block = fn.entry();
  RtValue result = DefaultValueFor(fn.return_type());
  while (block != nullptr) {
    const BasicBlock* next = nullptr;
    for (const auto& instr_ptr : block->instructions()) {
      const Instruction* instr = instr_ptr.get();
      Step();
      switch (instr->instr_kind()) {
        case InstrKind::kAlloca: {
          alloca_bounds_.emplace(instr, instr->alloca_array_size());
          RtValue addr;
          addr.kind = RtValue::Kind::kAddr;
          addr.frame = frame.id;
          addr.root = instr;
          frame.regs[instr->id()] = addr;
          break;
        }
        case InstrKind::kLoad:
          frame.regs[instr->id()] = LoadCell(Eval(frame, instr->operand(0)), instr);
          break;
        case InstrKind::kStore:
          StoreCell(Eval(frame, instr->operand(1)), Eval(frame, instr->operand(0)), instr);
          break;
        case InstrKind::kBinOp: {
          RtValue lhs = Eval(frame, instr->operand(0));
          RtValue rhs = Eval(frame, instr->operand(1));
          if (lhs.kind == RtValue::Kind::kFloat || rhs.kind == RtValue::Kind::kFloat) {
            double a = lhs.AsFloat();
            double b = rhs.AsFloat();
            double out = 0;
            switch (instr->bin_op()) {
              case IrBinOp::kAdd:
                out = a + b;
                break;
              case IrBinOp::kSub:
                out = a - b;
                break;
              case IrBinOp::kMul:
                out = a * b;
                break;
              case IrBinOp::kDiv:
                if (b == 0) {
                  throw TrapError("Floating point exception (division by zero)");
                }
                out = a / b;
                break;
              default:
                out = 0;
                break;
            }
            frame.regs[instr->id()] = RtValue::Float(out);
            break;
          }
          int64_t a = lhs.AsInt();
          int64_t b = rhs.AsInt();
          // MiniC integers wrap in two's complement: + - * << run on uint64_t,
          // where overflow is defined (signed overflow is undefined in C++).
          const uint64_t ua = static_cast<uint64_t>(a);
          const uint64_t ub = static_cast<uint64_t>(b);
          const bool shift_out = b < 0 || b >= 64;
          int64_t out = 0;
          switch (instr->bin_op()) {
            case IrBinOp::kAdd:
              out = static_cast<int64_t>(ua + ub);
              break;
            case IrBinOp::kSub:
              out = static_cast<int64_t>(ua - ub);
              break;
            case IrBinOp::kMul:
              out = static_cast<int64_t>(ua * ub);
              break;
            case IrBinOp::kDiv:
            case IrBinOp::kRem:
              if (b == 0) {
                throw TrapError("Floating point exception (integer division by zero)");
              }
              if (b == -1 && a == std::numeric_limits<int64_t>::min()) {
                // Unrepresentable quotient: the target crashes, not the checker.
                throw TrapError("Floating point exception (integer division overflow)");
              }
              out = instr->bin_op() == IrBinOp::kDiv ? a / b : a % b;
              break;
            case IrBinOp::kShl:
              out = shift_out ? 0 : static_cast<int64_t>(ua << b);
              break;
            case IrBinOp::kShr:
              out = shift_out ? 0 : a >> b;
              break;
            case IrBinOp::kAnd:
              out = a & b;
              break;
            case IrBinOp::kOr:
              out = a | b;
              break;
            case IrBinOp::kXor:
              out = a ^ b;
              break;
          }
          frame.regs[instr->id()] = RtValue::Int(out);
          break;
        }
        case InstrKind::kCmp: {
          RtValue lhs = Eval(frame, instr->operand(0));
          RtValue rhs = Eval(frame, instr->operand(1));
          bool result_bool = false;
          bool string_side = lhs.kind == RtValue::Kind::kString ||
                             rhs.kind == RtValue::Kind::kString ||
                             lhs.kind == RtValue::Kind::kNull ||
                             rhs.kind == RtValue::Kind::kNull;
          if (string_side) {
            bool lhs_null = lhs.kind == RtValue::Kind::kNull;
            bool rhs_null = rhs.kind == RtValue::Kind::kNull;
            int order;
            if (lhs_null || rhs_null) {
              order = (lhs_null && rhs_null) ? 0 : (lhs_null ? -1 : 1);
            } else if (lhs.sp == rhs.sp) {
              order = 0;  // Same pooled payload.
            } else {
              order = CompareStrings(lhs.str(), rhs.str());
            }
            switch (instr->cmp_pred()) {
              case IrCmpPred::kEq:
                result_bool = order == 0;
                break;
              case IrCmpPred::kNe:
                result_bool = order != 0;
                break;
              case IrCmpPred::kLt:
                result_bool = order < 0;
                break;
              case IrCmpPred::kLe:
                result_bool = order <= 0;
                break;
              case IrCmpPred::kGt:
                result_bool = order > 0;
                break;
              case IrCmpPred::kGe:
                result_bool = order >= 0;
                break;
            }
          } else if (lhs.kind == RtValue::Kind::kFloat || rhs.kind == RtValue::Kind::kFloat) {
            double a = lhs.AsFloat();
            double b = rhs.AsFloat();
            switch (instr->cmp_pred()) {
              case IrCmpPred::kEq:
                result_bool = a == b;
                break;
              case IrCmpPred::kNe:
                result_bool = a != b;
                break;
              case IrCmpPred::kLt:
                result_bool = a < b;
                break;
              case IrCmpPred::kLe:
                result_bool = a <= b;
                break;
              case IrCmpPred::kGt:
                result_bool = a > b;
                break;
              case IrCmpPred::kGe:
                result_bool = a >= b;
                break;
            }
          } else {
            int64_t a = lhs.AsInt();
            int64_t b = rhs.AsInt();
            switch (instr->cmp_pred()) {
              case IrCmpPred::kEq:
                result_bool = a == b;
                break;
              case IrCmpPred::kNe:
                result_bool = a != b;
                break;
              case IrCmpPred::kLt:
                result_bool = a < b;
                break;
              case IrCmpPred::kLe:
                result_bool = a <= b;
                break;
              case IrCmpPred::kGt:
                result_bool = a > b;
                break;
              case IrCmpPred::kGe:
                result_bool = a >= b;
                break;
            }
          }
          frame.regs[instr->id()] = RtValue::Int(result_bool ? 1 : 0);
          break;
        }
        case InstrKind::kCast: {
          RtValue operand = Eval(frame, instr->operand(0));
          const IrType* to = instr->type();
          if (to->kind() == IrTypeKind::kFloat) {
            frame.regs[instr->id()] = RtValue::Float(operand.AsFloat());
          } else if (to->IsBool()) {
            frame.regs[instr->id()] = RtValue::Int(operand.IsTruthy() ? 1 : 0);
          } else if (to->IsInteger()) {
            int64_t v = operand.AsInt();
            // Integer truncation — this is where 9000000000 silently becomes
            // an overflowed 32-bit value (paper Figure 5(a)).
            switch (to->bit_width()) {
              case 8:
                v = static_cast<int8_t>(v);
                break;
              case 16:
                v = static_cast<int16_t>(v);
                break;
              case 32:
                v = static_cast<int32_t>(v);
                break;
              default:
                break;
            }
            frame.regs[instr->id()] = RtValue::Int(v);
          } else {
            frame.regs[instr->id()] = operand;
          }
          break;
        }
        case InstrKind::kCall:
          frame.regs[instr->id()] = ExecCall(frame, instr);
          break;
        case InstrKind::kFieldAddr: {
          RtValue base = Eval(frame, instr->operand(0));
          if (base.kind == RtValue::Kind::kNull) {
            throw TrapError("Segmentation fault (null pointer field access)");
          }
          if (base.kind != RtValue::Kind::kAddr) {
            throw TrapError("Segmentation fault (field access on non-pointer)");
          }
          base.path.push_back(instr->field_index());
          frame.regs[instr->id()] = base;
          break;
        }
        case InstrKind::kIndexAddr: {
          RtValue base = Eval(frame, instr->operand(0));
          if (base.kind == RtValue::Kind::kNull) {
            throw TrapError("Segmentation fault (null pointer indexing)");
          }
          if (base.kind != RtValue::Kind::kAddr) {
            throw TrapError("Segmentation fault (indexing a non-pointer)");
          }
          RtValue index = Eval(frame, instr->operand(1));
          base.path.push_back(index.AsInt());
          frame.regs[instr->id()] = base;
          break;
        }
        case InstrKind::kBr:
          next = instr->successors()[0];
          break;
        case InstrKind::kCondBr: {
          RtValue condition = Eval(frame, instr->operand(0));
          next = condition.IsTruthy() ? instr->successors()[0] : instr->successors()[1];
          break;
        }
        case InstrKind::kSwitch: {
          RtValue subject = Eval(frame, instr->operand(0));
          next = instr->successors()[0];  // default
          for (size_t i = 0; i < instr->switch_values().size(); ++i) {
            if (instr->switch_values()[i] == subject.AsInt()) {
              next = instr->successors()[i + 1];
              break;
            }
          }
          break;
        }
        case InstrKind::kRet: {
          --call_depth_;
          RtValue ret = instr->operand_count() == 1 ? Eval(frame, instr->operand(0)) : result;
          frame_pool_.push_back(std::move(frame.regs));
          active_frames_.pop_back();
          return ret;
        }
        case InstrKind::kUnreachable:
          throw TrapError("Segmentation fault (unreachable code executed)");
      }
      if (next != nullptr) {
        break;
      }
    }
    block = next;
  }
  --call_depth_;
  frame_pool_.push_back(std::move(frame.regs));
  active_frames_.pop_back();
  return result;
}

RtValue Interpreter::ExecCall(Frame& frame, const Instruction* instr) {
  std::vector<RtValue> args;
  args.reserve(instr->operand_count());
  for (size_t i = 0; i < instr->operand_count(); ++i) {
    args.push_back(Eval(frame, instr->operand(i)));
  }
  auto it = call_sites_.find(instr);
  const CallSite site = it != call_sites_.end() ? it->second : ResolveCallSite(instr);
  if (site.function != nullptr) {
    return RunFunction(*site.function, std::move(args));
  }
  return Intrinsic(site.intrinsic, instr->callee(), args, instr);
}

// ---------------------------------------------------------------------------
// Logging.

void Interpreter::AppendLog(std::string level, const std::string& message) {
  logs_.push_back(level + ": " + message);
}

std::string Interpreter::FormatMessage(const std::string& format,
                                       const std::vector<RtValue>& args,
                                       size_t first_arg) const {
  std::string out;
  size_t arg_index = first_arg;
  for (size_t i = 0; i < format.size(); ++i) {
    if (format[i] != '%' || i + 1 >= format.size()) {
      out.push_back(format[i]);
      continue;
    }
    // Accept %d %i %s %u and the l-prefixed variants.
    size_t j = i + 1;
    while (j < format.size() && format[j] == 'l') {
      ++j;
    }
    if (j < format.size() &&
        (format[j] == 'd' || format[j] == 'i' || format[j] == 'u' || format[j] == 's')) {
      if (arg_index < args.size()) {
        const RtValue& arg = args[arg_index++];
        if (format[j] == 's') {
          out += arg.kind == RtValue::Kind::kNull ? "(null)" : arg.str();
        } else {
          out += std::to_string(arg.AsInt());
        }
      }
      i = j;
    } else {
      out.push_back(format[i]);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Intrinsics (simulated C library + OS surface).

namespace {

// C-style prefix integer parse (what atoi/strtol do with garbage input).
int64_t ParsePrefixInt(const std::string& text) {
  size_t i = 0;
  while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i])) != 0) {
    ++i;
  }
  bool negative = false;
  if (i < text.size() && (text[i] == '-' || text[i] == '+')) {
    negative = text[i] == '-';
    ++i;
  }
  int64_t value = 0;
  while (i < text.size() && std::isdigit(static_cast<unsigned char>(text[i])) != 0) {
    value = value * 10 + (text[i] - '0');
    ++i;
  }
  return negative ? -value : value;
}

}  // namespace

RtValue Interpreter::Intrinsic(IntrinsicId id, const std::string& name,
                               std::vector<RtValue>& args, const Instruction* instr) {
  auto need_string = [&](size_t index) -> const std::string& {
    if (index >= args.size() || args[index].kind == RtValue::Kind::kNull) {
      throw TrapError("Segmentation fault (null string passed to " + name + ")");
    }
    if (args[index].kind != RtValue::Kind::kString) {
      throw TrapError("Segmentation fault (non-string passed to " + name + ")");
    }
    return args[index].str();
  };
  auto arg_int = [&](size_t index) -> int64_t {
    return index < args.size() ? args[index].AsInt() : 0;
  };

  // Count every intrinsic whose answer or effect involves mutable
  // simulated-OS state (filesystem, ports, users, clock, allocator). The
  // campaign's snapshot-replay hazard check treats any OS traffic in both
  // reordered segments as a conflict.
  switch (id) {
    case IntrinsicId::kOpen:
    case IntrinsicId::kFopen:
    case IntrinsicId::kOpendir:
    case IntrinsicId::kAccess:
    case IntrinsicId::kUnlink:
    case IntrinsicId::kMkdir:
    case IntrinsicId::kChdir:
    case IntrinsicId::kChown:
    case IntrinsicId::kBind:
    case IntrinsicId::kConnect:
    case IntrinsicId::kInetAddr:
    case IntrinsicId::kInetAton:
    case IntrinsicId::kGethostbyname:
    case IntrinsicId::kGetpwnam:
    case IntrinsicId::kGetgrnam:
    case IntrinsicId::kSetuidUser:
    case IntrinsicId::kSleep:
    case IntrinsicId::kUsleep:
    case IntrinsicId::kPollWait:
    case IntrinsicId::kTime:
    case IntrinsicId::kMalloc:
      ++os_ops_;
      break;
    default:
      break;
  }

  switch (id) {
    // --- Strings.
    case IntrinsicId::kStrcmp: {
      const std::string& a = need_string(0);
      const std::string& b = need_string(1);
      if (args[0].sp == args[1].sp) {
        return RtValue::Int(0);  // Same pooled payload.
      }
      return RtValue::Int(CompareStrings(a, b));
    }
    case IntrinsicId::kStrcasecmp: {
      const std::string& a = need_string(0);
      const std::string& b = need_string(1);
      if (args[0].sp == args[1].sp) {
        return RtValue::Int(0);
      }
      return RtValue::Int(CompareStringsIgnoreCase(a, b));
    }
    case IntrinsicId::kStrncmp:
    case IntrinsicId::kStrncasecmp: {
      // Compare the length-limited prefixes in place — no substr/lowercase
      // temporaries. A negative count converts to a huge size_t in C, i.e.
      // the whole strings compare; substr clamps to size() for us.
      size_t limit = static_cast<size_t>(arg_int(2));
      std::string_view a = std::string_view(need_string(0)).substr(0, limit);
      std::string_view b = std::string_view(need_string(1)).substr(0, limit);
      int order = id == IntrinsicId::kStrncasecmp ? CompareStringsIgnoreCase(a, b)
                                                  : CompareStrings(a, b);
      return RtValue::Int(order);
    }
    case IntrinsicId::kStrlen:
      return RtValue::Int(static_cast<int64_t>(need_string(0).size()));
    case IntrinsicId::kStrdup:
      need_string(0);
      // Strings are immutable values here; "duplicating" an interned
      // payload is the identity.
      return args[0];
    case IntrinsicId::kCanonicalizePath:
      return InternedString(ReplaceAll(need_string(0), "//", "/"));
    case IntrinsicId::kTolowerStr:
      return InternedString(ToLowerCopy(need_string(0)));
    case IntrinsicId::kToupperStr:
      return InternedString(ToUpperCopy(need_string(0)));
    case IntrinsicId::kStrchr: {
      const std::string& s = need_string(0);
      char c = static_cast<char>(arg_int(1));
      size_t pos = s.find(c);
      return pos == std::string::npos ? RtValue::Null()
                                      : InternedString(std::string_view(s).substr(pos));
    }
    case IntrinsicId::kStrstr: {
      const std::string& s = need_string(0);
      const std::string& sub = need_string(1);
      size_t pos = s.find(sub);
      return pos == std::string::npos ? RtValue::Null()
                                      : InternedString(std::string_view(s).substr(pos));
    }

    // --- Conversions.
    case IntrinsicId::kAtoi:
      // Classic atoi: parses a prefix, wraps silently on 32-bit overflow.
      return RtValue::Int(static_cast<int32_t>(ParsePrefixInt(need_string(0))));
    case IntrinsicId::kAtol:
      return RtValue::Int(ParsePrefixInt(need_string(0)));
    case IntrinsicId::kStrtod: {
      const std::string& s = need_string(0);
      return RtValue::Float(std::strtod(s.c_str(), nullptr));
    }
    case IntrinsicId::kSscanf: {
      // Supported form: sscanf(text, "%d"-like, &out). Parses a prefix; on
      // total mismatch returns 0 and leaves the output untouched (the
      // undefined-on-garbage behaviour Figure 6(d) warns about).
      const std::string& text = need_string(0);
      size_t i = 0;
      while (i < text.size() && std::isspace(static_cast<unsigned char>(text[i])) != 0) {
        ++i;
      }
      bool has_digits =
          i < text.size() && (std::isdigit(static_cast<unsigned char>(text[i])) != 0 ||
                              ((text[i] == '-' || text[i] == '+') && i + 1 < text.size() &&
                               std::isdigit(static_cast<unsigned char>(text[i + 1])) != 0));
      if (!has_digits) {
        return RtValue::Int(0);
      }
      if (args.size() >= 3 && args[2].kind == RtValue::Kind::kAddr) {
        StoreCell(args[2], RtValue::Int(ParsePrefixInt(text)), instr);
      }
      return RtValue::Int(1);
    }
    case IntrinsicId::kParseIntStrict: {
      // The safe-API alternative: whole-string parse with error reporting.
      const std::string& text = need_string(0);
      auto parsed = ParseInt64(text);
      if (!parsed.has_value()) {
        return RtValue::Int(-1);
      }
      if (args.size() >= 2 && args[1].kind == RtValue::Kind::kAddr) {
        StoreCell(args[1], RtValue::Int(*parsed), instr);
      }
      return RtValue::Int(0);
    }

    // --- Filesystem.
    case IntrinsicId::kOpen:
    case IntrinsicId::kFopen: {
      const std::string& path = need_string(0);
      if (os_->DirectoryExists(path)) {
        return RtValue::Int(-1);  // EISDIR
      }
      if (!os_->FileExists(path) || !os_->IsReadable(path)) {
        return id == IntrinsicId::kOpen ? RtValue::Int(-1) : RtValue::Int(0);
      }
      return RtValue::Int(3);
    }
    case IntrinsicId::kOpendir:
      return RtValue::Int(os_->DirectoryExists(need_string(0)) ? 3 : 0);
    case IntrinsicId::kAccess: {
      const std::string& path = need_string(0);
      bool exists = os_->FileExists(path) || os_->DirectoryExists(path);
      return RtValue::Int(exists ? 0 : -1);
    }
    case IntrinsicId::kUnlink:
      return RtValue::Int(os_->RemoveFile(need_string(0)) ? 0 : -1);
    case IntrinsicId::kMkdir:
      os_->AddDirectory(need_string(0));
      return RtValue::Int(0);
    case IntrinsicId::kChdir:
      return RtValue::Int(os_->DirectoryExists(need_string(0)) ? 0 : -1);
    case IntrinsicId::kChown: {
      const std::string& path = need_string(0);
      const std::string& user = need_string(1);
      bool ok = (os_->FileExists(path) || os_->DirectoryExists(path)) && os_->UserExists(user);
      return RtValue::Int(ok ? 0 : -1);
    }
    case IntrinsicId::kRetZero:
      return RtValue::Int(0);

    // --- Network.
    case IntrinsicId::kSocket:
      return RtValue::Int(3);
    case IntrinsicId::kBind:
      return RtValue::Int(os_->PortAvailable(arg_int(1)) ? 0 : -1);
    case IntrinsicId::kConnect: {
      bool ok = args.size() >= 3 && args[1].kind == RtValue::Kind::kString &&
                os_->ResolvesHost(args[1].str()) && arg_int(2) >= 1 && arg_int(2) <= 65535;
      return RtValue::Int(ok ? 0 : -1);
    }
    case IntrinsicId::kHtons:
      // 16-bit truncation: port 70000 silently becomes 4464.
      return RtValue::Int(arg_int(0) & 0xFFFF);
    case IntrinsicId::kHtonl:
      return RtValue::Int(arg_int(0) & 0xFFFFFFFFLL);
    case IntrinsicId::kInetAddr: {
      const std::string& text = need_string(0);
      return RtValue::Int(os_->IsValidIpAddress(text) ? 0x7f000001 : -1);
    }
    case IntrinsicId::kInetAton:
      return RtValue::Int(os_->IsValidIpAddress(need_string(0)) ? 1 : 0);
    case IntrinsicId::kGethostbyname:
      return RtValue::Int(os_->ResolvesHost(need_string(0)) ? 1 : 0);

    // --- Users.
    case IntrinsicId::kGetpwnam:
      return RtValue::Int(os_->UserExists(need_string(0)) ? 1 : 0);
    case IntrinsicId::kGetgrnam:
      return RtValue::Int(os_->GroupExists(need_string(0)) ? 1 : 0);
    case IntrinsicId::kSetuidUser:
      return RtValue::Int(os_->UserExists(need_string(0)) ? 0 : -1);

    // --- Time. Virtual sleeping burns steps so that absurd durations are
    // detected as hangs (100 steps per simulated second).
    case IntrinsicId::kSleep: {
      int64_t seconds = std::max<int64_t>(0, arg_int(0));
      os_->AdvanceClock(seconds);
      steps_ += std::min<int64_t>(seconds, 1'000'000) * 100;
      if (steps_ > options_.max_steps) {
        throw HangError();
      }
      // A simulated sleep can jump the step counter across many poll
      // intervals at once — poll the deadline here so "sleep(600)" in a
      // parse handler cannot dodge cancellation until the next real step.
      if (cancel_ != nullptr && cancel_->ShouldCancel()) {
        throw CancelError();
      }
      return RtValue::Int(0);
    }
    case IntrinsicId::kUsleep: {
      int64_t usec = std::max<int64_t>(0, arg_int(0));
      os_->AdvanceClock(usec / 1'000'000);
      steps_ += std::min<int64_t>(usec / 10'000, 100'000'000);
      if (steps_ > options_.max_steps) {
        throw HangError();
      }
      // A simulated sleep can jump the step counter across many poll
      // intervals at once — poll the deadline here so "sleep(600)" in a
      // parse handler cannot dodge cancellation until the next real step.
      if (cancel_ != nullptr && cancel_->ShouldCancel()) {
        throw CancelError();
      }
      return RtValue::Int(0);
    }
    case IntrinsicId::kPollWait: {
      int64_t msec = std::max<int64_t>(0, arg_int(0));
      os_->AdvanceClock(msec / 1000);
      steps_ += std::min<int64_t>(msec / 10, 100'000'000);
      if (steps_ > options_.max_steps) {
        throw HangError();
      }
      // A simulated sleep can jump the step counter across many poll
      // intervals at once — poll the deadline here so "sleep(600)" in a
      // parse handler cannot dodge cancellation until the next real step.
      if (cancel_ != nullptr && cancel_->ShouldCancel()) {
        throw CancelError();
      }
      return RtValue::Int(0);
    }
    case IntrinsicId::kTime:
      return RtValue::Int(os_->now());

    // --- Memory.
    case IntrinsicId::kMalloc:
      return RtValue::Int(os_->TryAllocate(arg_int(0)));

    // --- Process control.
    case IntrinsicId::kExit:
      throw ExitRequest(arg_int(0));
    case IntrinsicId::kAbort:
      throw TrapError("Segmentation fault (abort)");

    // --- Logging.
    case IntrinsicId::kPrintf:
      AppendLog("OUT", FormatMessage(need_string(0), args, 1));
      return RtValue::Int(0);
    case IntrinsicId::kFprintf:
      AppendLog("OUT", FormatMessage(need_string(1), args, 2));
      return RtValue::Int(0);
    case IntrinsicId::kSprintf:
      // sprintf(out_ignored, fmt, ...) — MiniC uses it only as the
      // unsafe-API example; formatting result is discarded.
      return RtValue::Int(0);
    case IntrinsicId::kLogInfo:
      AppendLog("INFO", FormatMessage(need_string(0), args, 1));
      return RtValue::Int(0);
    case IntrinsicId::kLogWarn:
      AppendLog("WARN", FormatMessage(need_string(0), args, 1));
      return RtValue::Int(0);
    case IntrinsicId::kLogError:
      AppendLog("ERROR", FormatMessage(need_string(0), args, 1));
      return RtValue::Int(0);
    case IntrinsicId::kLogFatal:
      AppendLog("FATAL", FormatMessage(need_string(0), args, 1));
      return RtValue::Int(0);

    // --- Indirect handler invocation (configuration dispatch tables).
    case IntrinsicId::kInvokeHandler: {
      if (args.empty() || args[0].kind != RtValue::Kind::kFnRef) {
        throw TrapError("Segmentation fault (call through non-function value)");
      }
      const Function* handler = LookupFunction(args[0].str());
      if (handler == nullptr || handler->IsDeclaration()) {
        throw TrapError("Segmentation fault (call through dangling handler '" + args[0].str() +
                        "')");
      }
      std::vector<RtValue> handler_args(args.begin() + 1, args.end());
      return RunFunction(*handler, std::move(handler_args));
    }

    case IntrinsicId::kNone:
      break;
  }
  throw TrapError("unresolved external function: " + name);
}

std::optional<RtValue> Interpreter::ReadGlobal(const std::string& name) const {
  const GlobalVariable* global = LookupGlobal(name);
  if (global == nullptr) {
    return std::nullopt;
  }
  return global_scalars_[static_cast<size_t>(GlobalSlotOf(global))];
}

void Interpreter::WriteGlobal(const std::string& name, RtValue value) {
  const GlobalVariable* global = LookupGlobal(name);
  if (global == nullptr) {
    return;
  }
  global_scalars_[static_cast<size_t>(GlobalSlotOf(global))] = std::move(value);
}

bool Interpreter::GlobalWasRead(const std::string& name) const {
  const GlobalVariable* global = LookupGlobal(name);
  if (global == nullptr) {
    return false;
  }
  return global_read_stamps_[static_cast<size_t>(GlobalSlotOf(global))] != 0;
}

}  // namespace spex
