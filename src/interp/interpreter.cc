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

// Elements of one array laid out as cells up front; a larger array's
// elements become overflow cells on first use.
constexpr int64_t kMaxLaidOutCells = 1 << 16;

RtValue Address(int64_t frame, size_t depth, uint32_t cell) {
  RtValue addr;
  addr.kind = RtValue::Kind::kAddr;
  addr.cell = cell;
  addr.i = static_cast<int64_t>(depth);
  addr.frame = frame;
  return addr;
}

bool IsCellAddress(const RtValue& value) {
  return value.kind == RtValue::Kind::kAddr && value.cell != RtValue::kOutOfBounds;
}

// Does `a pred b` hold? (C semantics: every predicate but != is false on a
// NaN operand.)
template <typename T>
bool Holds(IrCmpPred pred, T a, T b) {
  switch (pred) {
    case IrCmpPred::kEq:
      return a == b;
    case IrCmpPred::kNe:
      return a != b;
    case IrCmpPred::kLt:
      return a < b;
    case IrCmpPred::kLe:
      return a <= b;
    case IrCmpPred::kGt:
      return a > b;
    case IrCmpPred::kGe:
      return a >= b;
  }
  return false;
}

// The type a step from a cell of walk type `walk` defaults from.
const IrType* WalkStep(const IrType* walk, int64_t step) {
  if (walk == nullptr || !walk->IsStruct()) {
    return walk;  // Array steps keep the element type.
  }
  const auto& fields = walk->field_types();
  return step >= 0 && static_cast<uint64_t>(step) < fields.size()
             ? fields[static_cast<size_t>(step)]
             : nullptr;
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

const std::string& RtValue::str() const {
  bool has_payload = (kind == Kind::kString || kind == Kind::kFnRef) && sp != nullptr;
  return has_payload ? *sp : EmptyString();
}

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

Interpreter::Interpreter(const Module& module, OsSimulator* os) : module_(module), os_(os) {
  BuildModuleIndex();
  BuildGlobals();
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
  for (size_t i = 0; i < globals.size(); ++i) {
    const GlobalVariable* global = globals[i].get();
    globals_by_name_.emplace(global->name(), global);
    global_slot_.emplace(global, static_cast<int32_t>(i));
  }
  global_read_stamps_.assign(globals.size(), 0);
  global_write_stamps_.assign(globals.size(), 0);
}

// Lazily resolves one call instruction to a defined function or an
// intrinsic id. Resolution is cached in the caller's decoded code, so the
// name hash and the (one-time) table lookup are paid once per call site,
// not once per executed call — and never for code that does not run, which
// keeps interpreter startup free of a whole-module walk.
void Interpreter::ResolveCallSite(const Instruction* instr, CallSite* site) {
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

  const Function* callee = LookupFunction(instr->callee());
  if (callee != nullptr && !callee->IsDeclaration()) {
    site->code = &CodeFor(*callee);
  } else {
    auto it = kIntrinsics->find(instr->callee());
    site->intrinsic = it != kIntrinsics->end() ? IntrinsicId(it->second) : IntrinsicId::kNone;
  }
  site->resolved = true;
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

void Interpreter::AssignCells(Space* to, const Space& from) {
  to->cells = from.cells;
  if (!to->overflow.empty() || !from.overflow.empty()) {
    to->overflow = from.overflow;
    to->overflow_cells = from.overflow_cells;
  }
}

void Interpreter::Reset() {
  AssignCells(&globals_, init_globals_);
  kept_.clear();
  std::fill(global_read_stamps_.begin(), global_read_stamps_.end(), 0);
  std::fill(global_write_stamps_.begin(), global_write_stamps_.end(), 0);
  logs_.clear();
  depth_ = 0;
  steps_ = 0;
  next_frame_id_ = 0;
  os_ops_ = 0;
  stale_cell_ops_ = 0;
  access_stamp_ = 1;
}

Interpreter::Snapshot Interpreter::TakeSnapshot() const {
  Snapshot snapshot;
  AssignCells(&snapshot.globals_, globals_);
  snapshot.kept_ = kept_;
  snapshot.read_stamps_ = global_read_stamps_;
  snapshot.write_stamps_ = global_write_stamps_;
  snapshot.logs_ = logs_;
  snapshot.steps_ = steps_;
  snapshot.next_frame_id_ = next_frame_id_;
  snapshot.os_ops_ = os_ops_;
  snapshot.stale_cell_ops_ = stale_cell_ops_;
  snapshot.access_stamp_ = access_stamp_;
  return snapshot;
}

void Interpreter::RestoreSnapshot(const Snapshot& snapshot) {
  AssignCells(&globals_, snapshot.globals_);
  if (!kept_.empty() || !snapshot.kept_.empty()) {
    kept_ = snapshot.kept_;
    // Layouts are per interpreter, and the snapshot may come from another.
    for (auto& [id, space] : kept_) {
      space.layout = &CodeFor(*space.fn).frame;
    }
  }
  global_read_stamps_ = snapshot.read_stamps_;
  global_write_stamps_ = snapshot.write_stamps_;
  logs_ = snapshot.logs_;
  steps_ = snapshot.steps_;
  next_frame_id_ = snapshot.next_frame_id_;
  os_ops_ = snapshot.os_ops_;
  stale_cell_ops_ = snapshot.stale_cell_ops_;
  access_stamp_ = snapshot.access_stamp_;
  depth_ = 0;
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

// ---------------------------------------------------------------------------
// Layout.

const Interpreter::FieldLayout* Interpreter::StructLayout(const IrType* type) {
  if (type == nullptr || !type->IsStruct()) {
    return nullptr;
  }
  auto it = struct_layouts_.find(type);
  if (it != struct_layouts_.end()) {
    return &it->second;
  }
  FieldLayout layout;
  for (const IrType* field : type->field_types()) {
    const FieldLayout* nested = StructLayout(field);
    layout.offsets.push_back(layout.cells);
    layout.nested.push_back(nested);
    layout.cells += nested != nullptr ? nested->cells : 1;
  }
  return &struct_layouts_.emplace(type, std::move(layout)).first->second;
}

// Appends one value's cells: the value itself, then (for a struct) its
// fields' cells in order.
void Interpreter::LayOutNode(Layout* layout, const IrType* walk, const FieldLayout* fields,
                             int32_t owner) {
  layout->image.push_back(DefaultValueFor(walk));
  layout->shape.push_back(Shape{walk, 0, 0, fields});
  if (owner >= 0) {
    layout->owner.push_back(owner);
  }
  if (fields == nullptr) {
    return;
  }
  for (size_t k = 0; k < fields->nested.size(); ++k) {
    LayOutNode(layout, WalkStep(walk, static_cast<int64_t>(k)), fields->nested[k], owner);
  }
}

// Appends the cells of a global or alloca of `type`; `bound` > 0 makes it
// an array of that many elements.
void Interpreter::LayOutRoot(Layout* layout, const IrType* type, int64_t bound,
                             int32_t owner) {
  const FieldLayout* fields = StructLayout(type);
  if (bound <= 0) {
    LayOutNode(layout, type, fields, owner);
    return;
  }
  const uint32_t stride = fields != nullptr ? fields->cells : 1;
  const bool laid_out = bound <= kMaxLaidOutCells / stride;
  layout->image.push_back(DefaultValueFor(type));
  layout->shape.push_back(Shape{type, bound, laid_out ? stride : 0, nullptr});
  if (owner >= 0) {
    layout->owner.push_back(owner);
  }
  if (!laid_out) {
    return;
  }
  for (int64_t k = 0; k < bound; ++k) {
    LayOutNode(layout, type, fields, owner);  // Every row is one element.
  }
}

RtValue Interpreter::ConstantValue(const Value* value) {
  switch (value->value_kind()) {
    case ValueKind::kConstantInt:
      return RtValue::Int(value->constant_int());
    case ValueKind::kConstantFloat:
      return RtValue::Float(value->constant_float());
    case ValueKind::kConstantString:
      return InternedString(value->constant_string());
    case ValueKind::kConstantNull:
      return RtValue::Null();
    case ValueKind::kGlobal:
      return Address(-1, 0, global_layout_.root[static_cast<size_t>(GlobalSlotOf(value))]);
    case ValueKind::kArgument:
    case ValueKind::kInstruction:
      break;
  }
  return RtValue::Int(0);
}

// Decodes `fn` and lays out its frame. Every operand becomes a register:
// arguments and instructions by value id, constants and globals in
// registers after those, filled from FunctionCode::regs at every call.
// Each block becomes its ops up to its first terminator (the instructions
// after one never run), or a kFallOff op when it has none.
const Interpreter::FunctionCode& Interpreter::CodeFor(const Function& fn) {
  static_assert(static_cast<int>(OpCode::kUnreachable) ==
                static_cast<int>(InstrKind::kUnreachable));
  auto [it, inserted] = code_.try_emplace(&fn);
  FunctionCode& code = it->second;
  if (!inserted) {
    return code;
  }
  code.fn = &fn;
  code.result = DefaultValueFor(fn.return_type());
  code.regs.assign(fn.value_id_count(), RtValue());
  code.frame.root.assign(fn.value_id_count(), 0);
  std::unordered_map<const Value*, uint32_t> constants;
  auto reg = [&](const Value* value) -> uint32_t {
    if (value->value_kind() == ValueKind::kArgument ||
        value->value_kind() == ValueKind::kInstruction) {
      return value->id();
    }
    auto [slot, fresh] = constants.try_emplace(value, static_cast<uint32_t>(code.regs.size()));
    if (fresh) {
      code.regs.push_back(ConstantValue(value));
    }
    return slot->second;
  };
  std::vector<uint32_t> block_op(fn.blocks().size());  // Block index -> its first op.
  uint32_t op_count = 0;
  for (const auto& block : fn.blocks()) {
    block_op[block->index()] = op_count;
    bool terminated = false;
    for (const auto& instr : block->instructions()) {
      ++op_count;
      if (instr->IsTerminator()) {
        terminated = true;
        break;
      }
    }
    op_count += terminated ? 0 : 1;
  }
  code.ops.reserve(op_count);
  constants.reserve(op_count);
  for (const auto& block : fn.blocks()) {
    bool terminated = false;
    for (const auto& instr_ptr : block->instructions()) {
      const Instruction* instr = instr_ptr.get();
      Op op;
      op.code = static_cast<OpCode>(instr->instr_kind());
      op.dest = instr->id();
      op.instr = instr;
      switch (instr->instr_kind()) {
        case InstrKind::kAlloca:
          code.frame.root[instr->id()] = static_cast<uint32_t>(code.frame.image.size());
          op.a = code.frame.root[instr->id()];
          LayOutRoot(&code.frame, instr->allocated_type(), instr->alloca_array_size(), -1);
          break;
        case InstrKind::kLoad:
          op.a = reg(instr->operand(0));
          break;
        case InstrKind::kStore:
        case InstrKind::kIndexAddr:
          op.a = reg(instr->operand(0));
          op.b = reg(instr->operand(1));
          break;
        case InstrKind::kBinOp:
          op.sub = static_cast<uint8_t>(instr->bin_op());
          op.a = reg(instr->operand(0));
          op.b = reg(instr->operand(1));
          break;
        case InstrKind::kCmp:
          op.sub = static_cast<uint8_t>(instr->cmp_pred());
          op.a = reg(instr->operand(0));
          op.b = reg(instr->operand(1));
          break;
        case InstrKind::kCast: {
          op.a = reg(instr->operand(0));
          const IrType* to = instr->type();
          CastTo cast = CastTo::kSame;
          if (to->kind() == IrTypeKind::kFloat) {
            cast = CastTo::kFloat;
          } else if (to->IsBool()) {
            cast = CastTo::kBool;
          } else if (to->IsInteger()) {
            // Integer truncation — this is where 9000000000 silently
            // becomes an overflowed 32-bit value (paper Figure 5(a)).
            cast = to->bit_width() == 8    ? CastTo::kInt8
                   : to->bit_width() == 16 ? CastTo::kInt16
                   : to->bit_width() == 32 ? CastTo::kInt32
                                           : CastTo::kInt64;
          }
          op.sub = static_cast<uint8_t>(cast);
          break;
        }
        case InstrKind::kCall:
          op.a = static_cast<uint32_t>(code.operands.size());
          op.b = static_cast<uint32_t>(instr->operand_count());
          for (const Value* operand : instr->operands()) {
            code.operands.push_back(reg(operand));
          }
          op.next = static_cast<uint32_t>(code.sites.size());
          code.sites.emplace_back();
          break;
        case InstrKind::kFieldAddr:
          op.a = reg(instr->operand(0));
          op.b = static_cast<uint32_t>(instr->field_index());
          break;
        case InstrKind::kBr:
          op.next = block_op[instr->successors()[0]->index()];
          break;
        case InstrKind::kCondBr:
          op.a = reg(instr->operand(0));
          op.next = block_op[instr->successors()[0]->index()];
          op.alt = block_op[instr->successors()[1]->index()];
          break;
        case InstrKind::kSwitch:
          op.a = static_cast<uint32_t>(code.operands.size());
          op.b = static_cast<uint32_t>(instr->successors().size());
          op.next = reg(instr->operand(0));
          for (const BasicBlock* target : instr->successors()) {
            code.operands.push_back(block_op[target->index()]);
          }
          break;
        case InstrKind::kRet:
          op.sub = instr->operand_count() == 1 ? 1 : 0;
          op.a = op.sub != 0 ? reg(instr->operand(0)) : 0;
          break;
        case InstrKind::kUnreachable:
          break;
      }
      code.ops.push_back(op);
      if (instr->IsTerminator()) {
        terminated = true;
        break;
      }
    }
    if (!terminated) {
      code.ops.push_back(Op{});
    }
  }
  return code;
}

void Interpreter::BuildGlobals() {
  const auto& globals = module_.globals();
  for (size_t slot = 0; slot < globals.size(); ++slot) {
    const GlobalVariable* global = globals[slot].get();
    global_layout_.root.push_back(static_cast<uint32_t>(global_layout_.image.size()));
    LayOutRoot(&global_layout_, global->value_type(),
               global->is_array() ? global->array_size() : 0, static_cast<int32_t>(slot));
  }
  init_globals_.layout = &global_layout_;
  init_globals_.cells = global_layout_.image;
  globals_.layout = &global_layout_;

  auto leaf_value = [this](const GlobalInit& leaf) -> RtValue {
    switch (leaf.kind) {
      case GlobalInit::Kind::kInt:
        return RtValue::Int(leaf.int_value);
      case GlobalInit::Kind::kFloat:
        return RtValue::Float(leaf.float_value);
      case GlobalInit::Kind::kString:
        return InternedString(leaf.string_value);
      case GlobalInit::Kind::kNull:
        return RtValue::Null();
      case GlobalInit::Kind::kGlobalRef: {
        // Address of another global, or a function reference.
        const GlobalVariable* target = LookupGlobal(leaf.string_value);
        if (target != nullptr) {
          return Address(-1, 0, global_layout_.root[static_cast<size_t>(GlobalSlotOf(target))]);
        }
        Symbol sym = pool_.Intern(leaf.string_value);
        return RtValue::PooledFnRef(pool_.StablePtr(sym), sym);
      }
      default:
        return RtValue::Int(0);
    }
  };
  // Initializer leaves sit at steps from the root, like the addresses the
  // program builds to reach them; a leaf past an array's bound can never
  // be read, so it is dropped. Advance() steps through globals_, so the
  // image is built there and swapped into init_globals_.
  std::swap(globals_, init_globals_);
  for (size_t slot = 0; slot < globals.size(); ++slot) {
    const GlobalVariable* global = globals[slot].get();
    const GlobalInit& init = global->init();
    RtValue root = Address(-1, 0, global_layout_.root[slot]);
    auto store_leaf = [&](std::initializer_list<int64_t> steps, const GlobalInit& leaf) {
      RtValue addr = root;
      for (int64_t step : steps) {
        addr = Advance(addr, step);
      }
      if (addr.cell != RtValue::kOutOfBounds) {
        globals_.cells[addr.cell] = leaf_value(leaf);
      }
    };
    if (init.kind == GlobalInit::Kind::kNone) {
      continue;  // The root already holds the type default.
    }
    if (init.kind != GlobalInit::Kind::kList) {
      globals_.cells[root.cell] = leaf_value(init);
      continue;
    }
    // Array and/or struct initializer.
    const IrType* type = global->value_type();
    for (size_t i = 0; i < init.elements.size(); ++i) {
      const GlobalInit& element = init.elements[i];
      const auto row = static_cast<int64_t>(i);
      if (element.kind == GlobalInit::Kind::kList) {
        // Struct row (possibly inside an array).
        for (size_t j = 0; j < element.elements.size(); ++j) {
          store_leaf({row, static_cast<int64_t>(j)}, element.elements[j]);
        }
      } else if (global->is_array() || type->IsStruct()) {
        // Array element, or field i of a struct initializer without nesting.
        store_leaf({row}, element);
      }
    }
  }
  std::swap(globals_, init_globals_);
}

// ---------------------------------------------------------------------------
// Memory.

Interpreter::Frame* Interpreter::LiveFrame(const RtValue& addr) const {
  auto depth = static_cast<uint64_t>(addr.i);
  if (depth < depth_ && stack_[depth]->space.id == addr.frame) {
    return stack_[depth].get();
  }
  return nullptr;
}

Interpreter::Space& Interpreter::FrameSpace(const RtValue& addr, bool access) {
  if (Frame* frame = LiveFrame(addr)) {
    return frame->space;
  }
  auto it = kept_.find(addr.frame);
  if (it == kept_.end()) {
    throw TrapError("Segmentation fault (dangling pointer)");
  }
  if (access) {
    ++stale_cell_ops_;  // Escaped &local from a completed call.
  }
  return it->second;
}

int32_t Interpreter::GlobalOwner(uint32_t cell) const {
  return cell < global_layout_.owner.size()
             ? global_layout_.owner[cell]
             : globals_.overflow_cells[cell - global_layout_.owner.size()].owner;
}

void Interpreter::ThrowOutOfBounds(const RtValue& addr, const Instruction* at) const {
  throw TrapError("Segmentation fault (array index " + std::to_string(addr.i) +
                  " out of bounds 0.." + std::to_string(addr.frame - 1) + " at " +
                  (at != nullptr ? at->loc().ToString() : "<unknown>") + ")");
}

RtValue Interpreter::Advance(RtValue addr, int64_t step) {
  if (addr.cell == RtValue::kOutOfBounds) {
    return addr;  // Only the first step is bounds-checked, and it failed.
  }
  Space& space = addr.frame == -1 ? globals_ : FrameSpace(addr, /*access=*/false);
  const Layout& layout = *space.layout;
  const IrType* walk = nullptr;
  int32_t owner = -1;
  bool array_step = false;  // A step into an array root keeps its element type.
  if (addr.cell < layout.shape.size()) {
    const Shape& shape = layout.shape[addr.cell];
    array_step = shape.bound > 0;
    if (array_step) {
      if (step < 0 || step >= shape.bound) {
        addr.cell = RtValue::kOutOfBounds;
        addr.i = step;
        addr.frame = shape.bound;
        return addr;
      }
      if (shape.stride > 0) {
        addr.cell += 1 + static_cast<uint32_t>(step) * shape.stride;
        return addr;
      }
    } else if (shape.fields != nullptr && step >= 0 &&
               static_cast<uint64_t>(step) < shape.fields->offsets.size()) {
      addr.cell += shape.fields->offsets[static_cast<size_t>(step)];
      return addr;
    }
    walk = shape.walk;
    owner = layout.owner.empty() ? -1 : layout.owner[addr.cell];
  } else {
    const OverflowCell& parent = space.overflow_cells[addr.cell - layout.shape.size()];
    walk = parent.walk;
    owner = parent.owner;
  }
  auto [it, inserted] = space.overflow.try_emplace(OverflowStep{addr.cell, step},
                                                   static_cast<uint32_t>(space.cells.size()));
  if (inserted) {
    const IrType* child = array_step ? walk : WalkStep(walk, step);
    space.cells.push_back(DefaultValueFor(child));
    space.overflow_cells.push_back(OverflowCell{child, owner});
  }
  addr.cell = it->second;
  return addr;
}

RtValue Interpreter::LoadCell(const RtValue& addr, const Instruction* at) {
  if (addr.kind == RtValue::Kind::kNull) {
    throw TrapError("Segmentation fault (null pointer dereference)");
  }
  if (addr.kind != RtValue::Kind::kAddr) {
    throw TrapError("Segmentation fault (load through non-pointer value)");
  }
  if (addr.cell == RtValue::kOutOfBounds) {
    ThrowOutOfBounds(addr, at);
  }
  if (addr.frame == -1) {
    global_read_stamps_[static_cast<size_t>(GlobalOwner(addr.cell))] = access_stamp_;
    return globals_.cells[addr.cell];
  }
  return FrameSpace(addr, /*access=*/true).cells[addr.cell];
}

void Interpreter::StoreCell(const RtValue& addr, const RtValue& value, const Instruction* at) {
  if (addr.kind == RtValue::Kind::kNull) {
    throw TrapError("Segmentation fault (null pointer write)");
  }
  if (addr.kind != RtValue::Kind::kAddr) {
    throw TrapError("Segmentation fault (store through non-pointer value)");
  }
  if (addr.cell == RtValue::kOutOfBounds) {
    ThrowOutOfBounds(addr, at);
  }
  Space* space = &globals_;
  if (addr.frame == -1) {
    global_write_stamps_[static_cast<size_t>(GlobalOwner(addr.cell))] = access_stamp_;
  } else {
    space = &FrameSpace(addr, /*access=*/true);
  }
  if (IsCellAddress(value) && value.frame != -1) {
    NoteAddressStored(*space, value);
  }
  space->cells[addr.cell] = value;
}

// A frame's cells are released when it returns, unless an address of it
// may be read afterwards. That is the case once the address is stored
// anywhere that outlives the frame: a global, a shallower frame, or a
// frame that has already returned. A deeper live frame that receives it
// only matters if that frame's own cells are kept (see PopFrame).
void Interpreter::NoteAddressStored(Space& dest, const RtValue& value) {
  if (dest.id == value.frame) {
    return;
  }
  Frame* owner = LiveFrame(value);
  if (owner == nullptr) {
    return;  // Its frame already returned: kept, or unreachable.
  }
  if (dest.live && dest.id > value.frame) {
    dest.holds_outer = true;
    return;
  }
  owner->space.escaped = true;
}

// ---------------------------------------------------------------------------
// Execution.

void Interpreter::Step() {
  if (++steps_ > kMaxSteps) {
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
    Frame& frame = PushFrame(CodeFor(*fn));
    const auto& params = fn->arguments();
    for (size_t i = 0; i < params.size(); ++i) {
      frame.regs[params[i]->id()] =
          i < args.size() ? args[i] : DefaultValueFor(params[i]->type());
    }
    outcome.return_value = RunFrame(frame);
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
  // Trap/exit/hang unwinding skips RunFrame's pops.
  while (depth_ > 0) {
    PopFrame();
  }
  return outcome;
}

Interpreter::Frame& Interpreter::PushFrame(const FunctionCode& code) {
  if (depth_ >= kMaxCallDepth) {
    throw TrapError("Segmentation fault (stack overflow)");
  }
  if (depth_ == stack_.size()) {
    stack_.push_back(std::make_unique<Frame>());
  }
  Frame& frame = *stack_[depth_++];
  frame.code = &code;
  frame.regs.assign(code.regs.begin(), code.regs.end());
  Space& space = frame.space;
  space.id = next_frame_id_++;
  space.fn = code.fn;
  space.layout = &code.frame;
  space.cells.assign(code.frame.image.begin(), code.frame.image.end());
  if (!space.overflow.empty()) {
    space.overflow.clear();
    space.overflow_cells.clear();
  }
  space.live = true;
  space.escaped = false;
  space.holds_outer = false;
  return frame;
}

void Interpreter::PopFrame() {
  Space& space = stack_[--depth_]->space;
  space.live = false;
  if (!space.escaped) {
    return;  // Nothing can reach its cells any more: the next call reuses them.
  }
  if (space.holds_outer) {
    // Its kept cells may hold addresses of any frame below it.
    for (size_t d = 0; d < depth_; ++d) {
      stack_[d]->space.escaped = true;
    }
  }
  kept_.emplace(space.id, std::move(space));
  space = Space();
}

RtValue Interpreter::RunFrame(Frame& frame) {
  const FunctionCode& code = *frame.code;
  // The frame's register file is never resized while it runs: callees get
  // their own pooled frames.
  RtValue* regs = frame.regs.data();
  const Op* pc = code.ops.data();
  for (;;) {
    const Op& op = *pc++;
    if (op.code == OpCode::kFallOff) {
      PopFrame();
      return code.result;
    }
    Step();
    switch (op.code) {
      case OpCode::kAlloca:
        regs[op.dest] = Address(frame.space.id, depth_ - 1, op.a);
        break;
      case OpCode::kLoad: {
        const RtValue& addr = regs[op.a];
        if (addr.kind == RtValue::Kind::kAddr && addr.frame == frame.space.id &&
            addr.cell != RtValue::kOutOfBounds) {
          regs[op.dest] = frame.space.cells[addr.cell];  // Own frame: the common case.
        } else {
          regs[op.dest] = LoadCell(addr, op.instr);
        }
        break;
      }
      case OpCode::kStore: {
        const RtValue& addr = regs[op.b];
        const RtValue& value = regs[op.a];
        if (addr.kind == RtValue::Kind::kAddr && addr.frame == frame.space.id &&
            addr.cell != RtValue::kOutOfBounds && value.kind != RtValue::Kind::kAddr) {
          frame.space.cells[addr.cell] = value;  // Own frame, nothing to escape.
        } else {
          StoreCell(addr, value, op.instr);
        }
        break;
      }
      case OpCode::kBinOp: {
        const RtValue& lhs = regs[op.a];
        const RtValue& rhs = regs[op.b];
        if (lhs.kind == RtValue::Kind::kFloat || rhs.kind == RtValue::Kind::kFloat) {
          double a = lhs.AsFloat();
          double b = rhs.AsFloat();
          double out = 0;
          switch (static_cast<IrBinOp>(op.sub)) {
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
          regs[op.dest] = RtValue::Float(out);
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
        switch (static_cast<IrBinOp>(op.sub)) {
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
            out = static_cast<IrBinOp>(op.sub) == IrBinOp::kDiv ? a / b : a % b;
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
        regs[op.dest] = RtValue::Int(out);
        break;
      }
      case OpCode::kCmp: {
        const RtValue& lhs = regs[op.a];
        const RtValue& rhs = regs[op.b];
        const auto pred = static_cast<IrCmpPred>(op.sub);
        bool holds = false;
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
          } else if (lhs.kind == RtValue::Kind::kString &&
                     rhs.kind == RtValue::Kind::kString && lhs.sp == rhs.sp) {
            order = 0;  // Same pooled payload.
          } else {
            order = CompareStrings(lhs.str(), rhs.str());
          }
          holds = Holds(pred, order, 0);
        } else if (lhs.kind == RtValue::Kind::kFloat || rhs.kind == RtValue::Kind::kFloat) {
          holds = Holds(pred, lhs.AsFloat(), rhs.AsFloat());
        } else {
          holds = Holds(pred, lhs.AsInt(), rhs.AsInt());
        }
        regs[op.dest] = RtValue::Int(holds ? 1 : 0);
        break;
      }
      case OpCode::kCast: {
        const RtValue& operand = regs[op.a];
        switch (static_cast<CastTo>(op.sub)) {
          case CastTo::kFloat:
            regs[op.dest] = RtValue::Float(operand.AsFloat());
            break;
          case CastTo::kBool:
            regs[op.dest] = RtValue::Int(operand.IsTruthy() ? 1 : 0);
            break;
          case CastTo::kInt8:
            regs[op.dest] = RtValue::Int(static_cast<int8_t>(operand.AsInt()));
            break;
          case CastTo::kInt16:
            regs[op.dest] = RtValue::Int(static_cast<int16_t>(operand.AsInt()));
            break;
          case CastTo::kInt32:
            regs[op.dest] = RtValue::Int(static_cast<int32_t>(operand.AsInt()));
            break;
          case CastTo::kInt64:
            regs[op.dest] = RtValue::Int(operand.AsInt());
            break;
          case CastTo::kSame:
            regs[op.dest] = operand;
            break;
        }
        break;
      }
      case OpCode::kCall:
        regs[op.dest] = ExecCall(frame, op);
        break;
      case OpCode::kFieldAddr: {
        const RtValue& base = regs[op.a];
        if (base.kind == RtValue::Kind::kNull) {
          throw TrapError("Segmentation fault (null pointer field access)");
        }
        if (base.kind != RtValue::Kind::kAddr) {
          throw TrapError("Segmentation fault (field access on non-pointer)");
        }
        regs[op.dest] = Advance(base, op.b);
        break;
      }
      case OpCode::kIndexAddr: {
        const RtValue& base = regs[op.a];
        if (base.kind == RtValue::Kind::kNull) {
          throw TrapError("Segmentation fault (null pointer indexing)");
        }
        if (base.kind != RtValue::Kind::kAddr) {
          throw TrapError("Segmentation fault (indexing a non-pointer)");
        }
        regs[op.dest] = Advance(base, regs[op.b].AsInt());
        break;
      }
      case OpCode::kBr:
        pc = code.ops.data() + op.next;
        break;
      case OpCode::kCondBr:
        pc = code.ops.data() + (regs[op.a].IsTruthy() ? op.next : op.alt);
        break;
      case OpCode::kSwitch: {
        const int64_t subject = regs[op.next].AsInt();
        const std::vector<int64_t>& values = op.instr->switch_values();
        const uint32_t* targets = code.operands.data() + op.a;
        pc = code.ops.data() + targets[0];  // default
        for (size_t i = 0; i < values.size(); ++i) {
          if (values[i] == subject) {
            pc = code.ops.data() + targets[i + 1];
            break;
          }
        }
        break;
      }
      case OpCode::kRet: {
        const RtValue ret = op.sub != 0 ? regs[op.a] : code.result;
        if (IsCellAddress(ret) && ret.frame == frame.space.id) {
          frame.space.escaped = true;  // &local returned to the caller.
        }
        PopFrame();
        return ret;
      }
      case OpCode::kUnreachable:
        throw TrapError("Segmentation fault (unreachable code executed)");
      case OpCode::kFallOff:
        break;
    }
  }
}

RtValue Interpreter::ExecCall(Frame& frame, const Op& op) {
  CallSite& site = frame.code->sites[op.next];
  if (!site.resolved) {
    ResolveCallSite(op.instr, &site);
  }
  const uint32_t* operands = frame.code->operands.data() + op.a;
  if (site.code != nullptr) {
    // Arguments go straight into the callee's registers; the caller's
    // frame stays put, since frames are pooled behind stable pointers.
    Frame& callee = PushFrame(*site.code);
    const auto& params = site.code->fn->arguments();
    for (size_t i = 0; i < params.size(); ++i) {
      callee.regs[params[i]->id()] =
          i < op.b ? frame.regs[operands[i]] : DefaultValueFor(params[i]->type());
    }
    return RunFrame(callee);
  }
  std::vector<RtValue>& args = frame.call_args;
  args.assign(op.b, RtValue());
  for (size_t i = 0; i < op.b; ++i) {
    args[i] = frame.regs[operands[i]];
  }
  return Intrinsic(site.intrinsic, op.instr->callee(), args, op.instr);
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
  // Accumulates modulo 2^64: an overlong number wraps instead of running
  // signed-overflow UB in the checker.
  uint64_t value = 0;
  while (i < text.size() && std::isdigit(static_cast<unsigned char>(text[i])) != 0) {
    value = value * 10 + static_cast<uint64_t>(text[i] - '0');
    ++i;
  }
  return static_cast<int64_t>(negative ? 0 - value : value);
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
    case IntrinsicId::kSleep:
    case IntrinsicId::kUsleep:
    case IntrinsicId::kPollWait: {
      int64_t amount = std::max<int64_t>(0, arg_int(0));
      if (id == IntrinsicId::kSleep) {
        os_->AdvanceClock(amount);
        steps_ += std::min<int64_t>(amount, 1'000'000) * 100;
      } else if (id == IntrinsicId::kUsleep) {
        os_->AdvanceClock(amount / 1'000'000);
        steps_ += std::min<int64_t>(amount / 10'000, 100'000'000);
      } else {
        os_->AdvanceClock(amount / 1000);
        steps_ += std::min<int64_t>(amount / 10, 100'000'000);
      }
      if (steps_ > kMaxSteps) {
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
      Frame& callee = PushFrame(CodeFor(*handler));
      const auto& params = handler->arguments();
      for (size_t i = 0; i < params.size(); ++i) {
        callee.regs[params[i]->id()] =
            i + 1 < args.size() ? args[i + 1] : DefaultValueFor(params[i]->type());
      }
      return RunFrame(callee);
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
  return globals_.cells[global_layout_.root[static_cast<size_t>(GlobalSlotOf(global))]];
}

bool Interpreter::GlobalWasRead(const std::string& name) const {
  const GlobalVariable* global = LookupGlobal(name);
  if (global == nullptr) {
    return false;
  }
  return global_read_stamps_[static_cast<size_t>(GlobalSlotOf(global))] != 0;
}

}  // namespace spex
