#include "src/ir/lowering.h"

#include <cassert>
#include <map>
#include <set>
#include <unordered_map>
#include <vector>

#include "src/ir/builder.h"

namespace spex {

namespace {

// Return types of common C library functions, used when a MiniC program
// calls a function it never declared. The corpus declares its own prototypes
// for anything unusual; this table is just a convenience for snippets.
enum class BuiltinReturn { kInt32, kInt64, kString, kDouble, kVoid };

const std::unordered_map<std::string, BuiltinReturn>& BuiltinReturns() {
  static const auto* kTable = new std::unordered_map<std::string, BuiltinReturn>{
      {"atoi", BuiltinReturn::kInt32},     {"atol", BuiltinReturn::kInt64},
      {"strtol", BuiltinReturn::kInt64},   {"strtoll", BuiltinReturn::kInt64},
      {"strtoul", BuiltinReturn::kInt64},  {"strtod", BuiltinReturn::kDouble},
      {"sscanf", BuiltinReturn::kInt32},   {"sprintf", BuiltinReturn::kInt32},
      {"snprintf", BuiltinReturn::kInt32}, {"strcmp", BuiltinReturn::kInt32},
      {"strcasecmp", BuiltinReturn::kInt32},
      {"strncmp", BuiltinReturn::kInt32},  {"strncasecmp", BuiltinReturn::kInt32},
      {"strlen", BuiltinReturn::kInt64},   {"strchr", BuiltinReturn::kString},
      {"strstr", BuiltinReturn::kString},  {"strdup", BuiltinReturn::kString},
      {"getenv", BuiltinReturn::kString},  {"open", BuiltinReturn::kInt32},
      {"close", BuiltinReturn::kInt32},    {"read", BuiltinReturn::kInt64},
      {"write", BuiltinReturn::kInt64},    {"socket", BuiltinReturn::kInt32},
      {"bind", BuiltinReturn::kInt32},     {"listen", BuiltinReturn::kInt32},
      {"connect", BuiltinReturn::kInt32},  {"htons", BuiltinReturn::kInt32},
      {"sleep", BuiltinReturn::kInt32},    {"usleep", BuiltinReturn::kInt32},
      {"time", BuiltinReturn::kInt64},     {"exit", BuiltinReturn::kVoid},
      {"abort", BuiltinReturn::kVoid},     {"malloc", BuiltinReturn::kInt64},
      {"free", BuiltinReturn::kVoid},      {"printf", BuiltinReturn::kInt32},
      {"fprintf", BuiltinReturn::kInt32},  {"log_error", BuiltinReturn::kVoid},
      {"log_warn", BuiltinReturn::kVoid},  {"log_info", BuiltinReturn::kVoid},
      {"log_fatal", BuiltinReturn::kVoid}, {"parse_int_strict", BuiltinReturn::kInt32},
      {"invoke_handler1", BuiltinReturn::kInt32},
      {"invoke_handler2", BuiltinReturn::kInt32},
  };
  return *kTable;
}

// True when struct `held` is struct `outer` or holds it by value, at any
// depth. `seen` keeps a cycle that does not pass through `outer` finite.
bool HoldsByValue(const std::map<std::string, const StructDecl*>& decls,
                  const std::string& held, const std::string& outer,
                  std::set<std::string>* seen) {
  if (held == outer) {
    return true;
  }
  auto it = decls.find(held);
  if (it == decls.end() || !seen->insert(held).second) {
    return false;
  }
  for (const StructField& field : it->second->fields) {
    if (field.type.kind == AstTypeKind::kStruct &&
        HoldsByValue(decls, field.type.struct_name, outer, seen)) {
      return true;
    }
  }
  return false;
}

class LoweringContext {
 public:
  LoweringContext(const TranslationUnit& unit, DiagnosticEngine* diags)
      : unit_(unit), diags_(diags), module_(std::make_unique<Module>(unit.file_name)) {}

  std::unique_ptr<Module> Lower();

 private:
  struct LocalSlot {
    Value* address = nullptr;  // The alloca.
    bool is_array = false;
  };

  const IrType* ConvertType(const AstType& ast_type);
  void LowerStructs();
  void LowerGlobals();
  GlobalInit EvalConstInit(const Expr& expr);
  void DeclareFunctions();
  void LowerFunctionBody(const FunctionDecl& decl, Function* fn);

  // Statement / expression lowering. All methods operate on builder_'s
  // current insertion block.
  void LowerStmt(const Stmt& stmt);
  void LowerBlockStmts(const std::vector<StmtPtr>& stmts);
  void LowerIf(const Stmt& stmt);
  void LowerSwitch(const Stmt& stmt);
  void LowerWhile(const Stmt& stmt);
  void LowerDoWhile(const Stmt& stmt);
  void LowerFor(const Stmt& stmt);
  void LowerLocalDecl(const VarDecl& decl);

  Value* LowerExpr(const Expr& expr);
  Value* LowerLValue(const Expr& expr);  // Returns an address (pointer-typed value).
  Value* LowerCondition(const Expr& expr);
  Value* ToBool(Value* value, const SourceLoc& loc);
  Value* Coerce(Value* value, const IrType* target, const SourceLoc& loc);
  Value* LowerCall(const Expr& expr);
  Value* LowerShortCircuit(const Expr& expr);
  Value* LowerTernary(const Expr& expr);

  // Symbol handling.
  void PushScope() { scopes_.emplace_back(); }
  void PopScope() { scopes_.pop_back(); }
  void DefineLocal(const std::string& name, LocalSlot slot) { scopes_.back()[name] = slot; }
  const LocalSlot* FindLocal(const std::string& name) const;

  BasicBlock* NewBlock(const std::string& hint);
  bool IsArrayBase(const Expr& expr) const;

  const TranslationUnit& unit_;
  DiagnosticEngine* diags_;
  std::unique_ptr<Module> module_;

  Function* current_fn_ = nullptr;
  std::unique_ptr<IrBuilder> builder_;
  std::vector<std::map<std::string, LocalSlot>> scopes_;
  std::vector<std::pair<BasicBlock*, BasicBlock*>> loop_stack_;  // (break, continue) targets.
  int block_counter_ = 0;
};

const IrType* LoweringContext::ConvertType(const AstType& ast_type) {
  TypeTable& types = module_->types();
  switch (ast_type.kind) {
    case AstTypeKind::kVoid:
      return types.void_type();
    case AstTypeKind::kBool:
      return types.bool_type();
    case AstTypeKind::kChar:
      return types.IntType(8, ast_type.is_unsigned);
    case AstTypeKind::kShort:
      return types.IntType(16, ast_type.is_unsigned);
    case AstTypeKind::kInt:
      return types.IntType(32, ast_type.is_unsigned);
    case AstTypeKind::kLong:
      return types.IntType(64, ast_type.is_unsigned);
    case AstTypeKind::kDouble:
      return types.float_type();
    case AstTypeKind::kStruct:
      return types.StructType(ast_type.struct_name);
    case AstTypeKind::kPointer:
      if (ast_type.IsString()) {
        return types.string_type();
      }
      return types.PointerTo(ConvertType(*ast_type.pointee));
  }
  return types.void_type();
}

void LoweringContext::LowerStructs() {
  // Two passes so structs can reference each other through pointers.
  std::map<std::string, const StructDecl*> decls;
  for (const auto& decl : unit_.structs) {
    module_->types().StructType(decl->name);
    decls.emplace(decl->name, decl.get());
  }
  for (const auto& decl : unit_.structs) {
    std::vector<const IrType*> field_types;
    std::vector<std::string> field_names;
    for (const StructField& field : decl->fields) {
      const IrType* type = ConvertType(field.type);
      std::set<std::string> seen;
      if (field.type.kind == AstTypeKind::kStruct &&
          HoldsByValue(decls, field.type.struct_name, decl->name, &seen)) {
        // No finite layout. Lowered as a pointer, the module's types stay finite.
        diags_->Error(field.loc, "struct '" + decl->name + "' contains itself by value (field '" +
                                     field.name + "')");
        type = module_->types().PointerTo(type);
      }
      field_types.push_back(type);
      field_names.push_back(field.name);
    }
    module_->types().DefineStructBody(decl->name, std::move(field_types),
                                      std::move(field_names));
  }
}

GlobalInit LoweringContext::EvalConstInit(const Expr& expr) {
  switch (expr.kind) {
    case ExprKind::kIntLiteral:
      return GlobalInit::Int(expr.int_value);
    case ExprKind::kFloatLiteral:
      return GlobalInit::Float(expr.float_value);
    case ExprKind::kStringLiteral:
      return GlobalInit::Str(expr.string_value);
    case ExprKind::kNullLiteral:
      return GlobalInit::Null();
    case ExprKind::kUnary:
      if (expr.unary_op == UnaryOp::kNegate) {
        GlobalInit inner = EvalConstInit(*expr.lhs);
        if (inner.kind == GlobalInit::Kind::kInt) {
          return GlobalInit::Int(-inner.int_value);
        }
        if (inner.kind == GlobalInit::Kind::kFloat) {
          return GlobalInit::Float(-inner.float_value);
        }
      }
      if (expr.unary_op == UnaryOp::kAddressOf && expr.lhs->kind == ExprKind::kIdentifier) {
        return GlobalInit::Ref(expr.lhs->name);
      }
      break;
    case ExprKind::kIdentifier:
      // A bare identifier in a constant initializer refers to a function
      // (handler tables) or to another global's address (rare).
      return GlobalInit::Ref(expr.name);
    case ExprKind::kInitList: {
      std::vector<GlobalInit> elements;
      elements.reserve(expr.arguments.size());
      for (const auto& arg : expr.arguments) {
        elements.push_back(EvalConstInit(*arg));
      }
      return GlobalInit::List(std::move(elements));
    }
    case ExprKind::kBinary: {
      GlobalInit lhs = EvalConstInit(*expr.lhs);
      GlobalInit rhs = EvalConstInit(*expr.rhs);
      if (lhs.kind == GlobalInit::Kind::kInt && rhs.kind == GlobalInit::Kind::kInt) {
        int64_t a = lhs.int_value;
        int64_t b = rhs.int_value;
        switch (expr.binary_op) {
          case BinaryOp::kAdd:
            return GlobalInit::Int(a + b);
          case BinaryOp::kSub:
            return GlobalInit::Int(a - b);
          case BinaryOp::kMul:
            return GlobalInit::Int(a * b);
          case BinaryOp::kDiv:
            return GlobalInit::Int(b != 0 ? a / b : 0);
          case BinaryOp::kShl:
            return GlobalInit::Int(a << b);
          default:
            break;
        }
      }
      break;
    }
    default:
      break;
  }
  diags_->Error(expr.loc, "unsupported constant initializer expression");
  return GlobalInit::Int(0);
}

void LoweringContext::LowerGlobals() {
  for (const auto& decl : unit_.globals) {
    const IrType* type = ConvertType(decl->type);
    int64_t array_size = 0;
    bool is_array = decl->has_array_size;
    if (is_array) {
      array_size = decl->array_size;
    }
    GlobalInit init;
    if (decl->init != nullptr) {
      init = EvalConstInit(*decl->init);
      if (is_array && array_size < 0 && init.kind == GlobalInit::Kind::kList) {
        array_size = static_cast<int64_t>(init.elements.size());
      }
    }
    GlobalVariable* global = module_->AddGlobal(type, decl->name, is_array, array_size);
    global->set_init(std::move(init));
    global->set_loc(decl->loc);
  }
}

void LoweringContext::DeclareFunctions() {
  for (const auto& decl : unit_.functions) {
    if (module_->FindFunction(decl->name) != nullptr && decl->body == nullptr) {
      continue;  // Prototype after definition adds nothing.
    }
    Function* fn = module_->AddFunction(decl->name, ConvertType(decl->return_type));
    for (const ParamDecl& param : decl->params) {
      fn->AddArgument(ConvertType(param.type), param.name);
    }
  }
}

std::unique_ptr<Module> LoweringContext::Lower() {
  LowerStructs();
  LowerGlobals();
  DeclareFunctions();
  for (const auto& decl : unit_.functions) {
    if (decl->body == nullptr) {
      continue;
    }
    Function* fn = module_->FindFunction(decl->name);
    assert(fn != nullptr);
    if (!fn->IsDeclaration()) {
      continue;  // Duplicate definition; first one wins, error already noted.
    }
    LowerFunctionBody(*decl, fn);
    fn->Finalize();
  }
  return std::move(module_);
}

BasicBlock* LoweringContext::NewBlock(const std::string& hint) {
  return current_fn_->CreateBlock(hint + "." + std::to_string(block_counter_++));
}

const LoweringContext::LocalSlot* LoweringContext::FindLocal(const std::string& name) const {
  for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
    auto found = it->find(name);
    if (found != it->end()) {
      return &found->second;
    }
  }
  return nullptr;
}

void LoweringContext::LowerFunctionBody(const FunctionDecl& decl, Function* fn) {
  current_fn_ = fn;
  block_counter_ = 0;
  builder_ = std::make_unique<IrBuilder>(module_.get(), fn);
  BasicBlock* entry = fn->CreateBlock("entry");
  builder_->SetInsertPoint(entry);
  scopes_.clear();
  PushScope();
  for (size_t i = 0; i < decl.params.size(); ++i) {
    Argument* arg = fn->arguments()[i].get();
    Instruction* slot = builder_->CreateAlloca(arg->type(), 0, arg->name(), decl.params[i].loc);
    builder_->CreateStore(arg, slot, decl.params[i].loc);
    DefineLocal(arg->name(), LocalSlot{slot, false});
  }
  LowerStmt(*decl.body);
  // Terminate remaining open blocks: blocks that real control flow can reach
  // get an implicit return; dead continuation blocks left behind by early
  // returns/breaks get `unreachable`.
  fn->Finalize();  // Computes predecessor lists for the reachability check.
  for (const auto& block : fn->blocks()) {
    if (block->HasTerminator()) {
      continue;
    }
    builder_->SetInsertPoint(block.get());
    bool live = block.get() == fn->entry() || !block->predecessors().empty();
    if (!live) {
      builder_->CreateUnreachable(decl.loc);
    } else if (fn->return_type()->IsVoid()) {
      builder_->CreateRet(nullptr, decl.loc);
    } else {
      builder_->CreateRet(module_->ConstInt(module_->types().IntType(32, false), 0), decl.loc);
    }
  }
  PopScope();
}

void LoweringContext::LowerBlockStmts(const std::vector<StmtPtr>& stmts) {
  for (const auto& stmt : stmts) {
    LowerStmt(*stmt);
  }
}

void LoweringContext::LowerStmt(const Stmt& stmt) {
  switch (stmt.kind) {
    case StmtKind::kBlock:
      PushScope();
      LowerBlockStmts(stmt.body);
      PopScope();
      break;
    case StmtKind::kDecl:
      LowerLocalDecl(*stmt.decl);
      break;
    case StmtKind::kExpr:
      LowerExpr(*stmt.expr);
      break;
    case StmtKind::kIf:
      LowerIf(stmt);
      break;
    case StmtKind::kSwitch:
      LowerSwitch(stmt);
      break;
    case StmtKind::kWhile:
      LowerWhile(stmt);
      break;
    case StmtKind::kDoWhile:
      LowerDoWhile(stmt);
      break;
    case StmtKind::kFor:
      LowerFor(stmt);
      break;
    case StmtKind::kReturn: {
      Value* value = nullptr;
      if (stmt.expr != nullptr) {
        value = LowerExpr(*stmt.expr);
        if (!current_fn_->return_type()->IsVoid()) {
          value = Coerce(value, current_fn_->return_type(), stmt.loc);
        }
      }
      builder_->CreateRet(value, stmt.loc);
      builder_->SetInsertPoint(NewBlock("afterret"));
      break;
    }
    case StmtKind::kBreak:
      if (loop_stack_.empty()) {
        diags_->Error(stmt.loc, "'break' outside loop or switch");
      } else {
        builder_->CreateBr(loop_stack_.back().first, stmt.loc);
        builder_->SetInsertPoint(NewBlock("afterbreak"));
      }
      break;
    case StmtKind::kContinue: {
      BasicBlock* target = nullptr;
      for (auto it = loop_stack_.rbegin(); it != loop_stack_.rend(); ++it) {
        if (it->second != nullptr) {
          target = it->second;
          break;
        }
      }
      if (target == nullptr) {
        diags_->Error(stmt.loc, "'continue' outside loop");
      } else {
        builder_->CreateBr(target, stmt.loc);
        builder_->SetInsertPoint(NewBlock("aftercontinue"));
      }
      break;
    }
  }
}

void LoweringContext::LowerLocalDecl(const VarDecl& decl) {
  const IrType* type = ConvertType(decl.type);
  int64_t array_size = decl.has_array_size ? decl.array_size : 0;
  bool is_array = decl.has_array_size;
  if (is_array && array_size < 0 && decl.init != nullptr &&
      decl.init->kind == ExprKind::kInitList) {
    array_size = static_cast<int64_t>(decl.init->arguments.size());
  }
  Instruction* slot = builder_->CreateAlloca(type, array_size, decl.name, decl.loc);
  DefineLocal(decl.name, LocalSlot{slot, is_array});
  if (decl.init != nullptr) {
    if (decl.init->kind == ExprKind::kInitList) {
      // Element-wise stores through indexaddr.
      for (size_t i = 0; i < decl.init->arguments.size(); ++i) {
        Value* index = module_->ConstInt(module_->types().IntType(64, false),
                                         static_cast<int64_t>(i));
        Value* addr = builder_->CreateIndexAddr(slot, index, decl.loc);
        Value* value = LowerExpr(*decl.init->arguments[i]);
        builder_->CreateStore(Coerce(value, type, decl.loc), addr, decl.loc);
      }
    } else {
      Value* value = LowerExpr(*decl.init);
      builder_->CreateStore(Coerce(value, type, decl.loc), slot, decl.loc);
    }
  }
}

void LoweringContext::LowerIf(const Stmt& stmt) {
  Value* condition = LowerCondition(*stmt.expr);
  BasicBlock* then_block = NewBlock("if.then");
  BasicBlock* merge = NewBlock("if.end");
  BasicBlock* else_block = stmt.else_branch != nullptr ? NewBlock("if.else") : merge;
  builder_->CreateCondBr(condition, then_block, else_block, stmt.loc);

  builder_->SetInsertPoint(then_block);
  LowerStmt(*stmt.then_branch);
  if (!builder_->insert_block()->HasTerminator()) {
    builder_->CreateBr(merge, stmt.loc);
  }
  if (stmt.else_branch != nullptr) {
    builder_->SetInsertPoint(else_block);
    LowerStmt(*stmt.else_branch);
    if (!builder_->insert_block()->HasTerminator()) {
      builder_->CreateBr(merge, stmt.loc);
    }
  }
  builder_->SetInsertPoint(merge);
}

void LoweringContext::LowerSwitch(const Stmt& stmt) {
  Value* subject = LowerExpr(*stmt.expr);
  BasicBlock* merge = NewBlock("switch.end");

  std::vector<BasicBlock*> case_blocks;
  BasicBlock* default_block = merge;
  for (size_t i = 0; i < stmt.cases.size(); ++i) {
    BasicBlock* block = NewBlock(stmt.cases[i].is_default ? "switch.default" : "switch.case");
    case_blocks.push_back(block);
    if (stmt.cases[i].is_default) {
      default_block = block;
    }
  }

  std::vector<std::pair<int64_t, BasicBlock*>> table;
  for (size_t i = 0; i < stmt.cases.size(); ++i) {
    for (int64_t value : stmt.cases[i].values) {
      table.emplace_back(value, case_blocks[i]);
    }
  }
  builder_->CreateSwitch(subject, default_block, table, stmt.loc);

  loop_stack_.emplace_back(merge, nullptr);  // break targets merge; continue passes through.
  for (size_t i = 0; i < stmt.cases.size(); ++i) {
    builder_->SetInsertPoint(case_blocks[i]);
    LowerBlockStmts(stmt.cases[i].body);
    if (!builder_->insert_block()->HasTerminator()) {
      // C-style fallthrough into the next case body, or exit on the last one.
      BasicBlock* next = (i + 1 < case_blocks.size()) ? case_blocks[i + 1] : merge;
      builder_->CreateBr(next, stmt.cases[i].loc);
    }
  }
  loop_stack_.pop_back();
  builder_->SetInsertPoint(merge);
}

void LoweringContext::LowerWhile(const Stmt& stmt) {
  BasicBlock* cond_block = NewBlock("while.cond");
  BasicBlock* body_block = NewBlock("while.body");
  BasicBlock* exit_block = NewBlock("while.end");
  builder_->CreateBr(cond_block, stmt.loc);

  builder_->SetInsertPoint(cond_block);
  Value* condition = LowerCondition(*stmt.expr);
  builder_->CreateCondBr(condition, body_block, exit_block, stmt.loc);

  builder_->SetInsertPoint(body_block);
  loop_stack_.emplace_back(exit_block, cond_block);
  LowerStmt(*stmt.loop_body);
  loop_stack_.pop_back();
  if (!builder_->insert_block()->HasTerminator()) {
    builder_->CreateBr(cond_block, stmt.loc);
  }
  builder_->SetInsertPoint(exit_block);
}

void LoweringContext::LowerDoWhile(const Stmt& stmt) {
  BasicBlock* body_block = NewBlock("do.body");
  BasicBlock* cond_block = NewBlock("do.cond");
  BasicBlock* exit_block = NewBlock("do.end");
  builder_->CreateBr(body_block, stmt.loc);

  builder_->SetInsertPoint(body_block);
  loop_stack_.emplace_back(exit_block, cond_block);
  LowerStmt(*stmt.loop_body);
  loop_stack_.pop_back();
  if (!builder_->insert_block()->HasTerminator()) {
    builder_->CreateBr(cond_block, stmt.loc);
  }

  builder_->SetInsertPoint(cond_block);
  Value* condition = LowerCondition(*stmt.expr);
  builder_->CreateCondBr(condition, body_block, exit_block, stmt.loc);
  builder_->SetInsertPoint(exit_block);
}

void LoweringContext::LowerFor(const Stmt& stmt) {
  PushScope();
  if (stmt.for_init != nullptr) {
    LowerStmt(*stmt.for_init);
  }
  BasicBlock* cond_block = NewBlock("for.cond");
  BasicBlock* body_block = NewBlock("for.body");
  BasicBlock* step_block = NewBlock("for.step");
  BasicBlock* exit_block = NewBlock("for.end");
  builder_->CreateBr(cond_block, stmt.loc);

  builder_->SetInsertPoint(cond_block);
  if (stmt.expr != nullptr) {
    Value* condition = LowerCondition(*stmt.expr);
    builder_->CreateCondBr(condition, body_block, exit_block, stmt.loc);
  } else {
    builder_->CreateBr(body_block, stmt.loc);
  }

  builder_->SetInsertPoint(body_block);
  loop_stack_.emplace_back(exit_block, step_block);
  LowerStmt(*stmt.loop_body);
  loop_stack_.pop_back();
  if (!builder_->insert_block()->HasTerminator()) {
    builder_->CreateBr(step_block, stmt.loc);
  }

  builder_->SetInsertPoint(step_block);
  if (stmt.for_step != nullptr) {
    LowerExpr(*stmt.for_step);
  }
  builder_->CreateBr(cond_block, stmt.loc);
  builder_->SetInsertPoint(exit_block);
  PopScope();
}

Value* LoweringContext::ToBool(Value* value, const SourceLoc& loc) {
  const IrType* type = value->type();
  if (type->IsBool()) {
    return value;
  }
  Value* zero = nullptr;
  TypeTable& types = module_->types();
  if (type->IsInteger()) {
    zero = module_->ConstInt(type, 0);
  } else if (type->kind() == IrTypeKind::kFloat) {
    zero = module_->ConstFloat(0.0);
  } else if (type->IsString() || type->IsPointer()) {
    zero = module_->ConstNull(type);
  } else {
    zero = module_->ConstInt(types.IntType(32, false), 0);
  }
  return builder_->CreateCmp(IrCmpPred::kNe, value, zero, loc);
}

Value* LoweringContext::Coerce(Value* value, const IrType* target, const SourceLoc& loc) {
  const IrType* from = value->type();
  if (from == target) {
    return value;
  }
  // Numeric / bool conversions become implicit casts; everything else is
  // passed through untouched (the corpus is well-typed by construction).
  bool from_num = from->IsNumeric() || from->IsBool();
  bool to_num = target->IsNumeric() || target->IsBool();
  if (from_num && to_num) {
    return builder_->CreateCast(target, value, /*is_explicit=*/false, loc);
  }
  return value;
}

Value* LoweringContext::LowerCondition(const Expr& expr) {
  Value* value = LowerExpr(expr);
  return ToBool(value, expr.loc);
}

bool LoweringContext::IsArrayBase(const Expr& expr) const {
  if (expr.kind != ExprKind::kIdentifier) {
    return false;
  }
  const LocalSlot* local = FindLocal(expr.name);
  if (local != nullptr) {
    return local->is_array;
  }
  GlobalVariable* global = module_->FindGlobal(expr.name);
  return global != nullptr && global->is_array();
}

Value* LoweringContext::LowerLValue(const Expr& expr) {
  switch (expr.kind) {
    case ExprKind::kIdentifier: {
      const LocalSlot* local = FindLocal(expr.name);
      if (local != nullptr) {
        return local->address;
      }
      GlobalVariable* global = module_->FindGlobal(expr.name);
      if (global != nullptr) {
        return global;
      }
      diags_->Error(expr.loc, "unknown variable '" + expr.name + "'");
      // Recover with a fresh slot so lowering can continue.
      Instruction* slot = builder_->CreateAlloca(module_->types().IntType(64, false), 0,
                                                 expr.name, expr.loc);
      return slot;
    }
    case ExprKind::kMember: {
      Value* base = nullptr;
      if (expr.is_arrow) {
        base = LowerExpr(*expr.lhs);  // Pointer value.
      } else {
        base = LowerLValue(*expr.lhs);  // Address of the aggregate.
      }
      const IrType* base_type = base->type();
      const IrType* struct_type = nullptr;
      if (base_type->IsPointer() && base_type->pointee()->IsStruct()) {
        struct_type = base_type->pointee();
      } else if (base_type->IsStruct()) {
        struct_type = base_type;
      }
      if (struct_type == nullptr) {
        diags_->Error(expr.loc, "member access on non-struct value");
        return base;
      }
      int index = struct_type->FieldIndex(expr.name);
      if (index < 0) {
        diags_->Error(expr.loc, "no field '" + expr.name + "' in " + struct_type->ToString());
        return base;
      }
      return builder_->CreateFieldAddr(base, struct_type, index, expr.loc);
    }
    case ExprKind::kIndex: {
      Value* index = LowerExpr(*expr.rhs);
      if (IsArrayBase(*expr.lhs)) {
        Value* base = LowerLValue(*expr.lhs);
        return builder_->CreateIndexAddr(base, index, expr.loc);
      }
      // Pointer indexing: load the pointer value first.
      Value* base = LowerExpr(*expr.lhs);
      if (!base->type()->IsPointer()) {
        diags_->Error(expr.loc, "indexing a non-pointer value");
        return base;
      }
      return builder_->CreateIndexAddr(base, index, expr.loc);
    }
    case ExprKind::kUnary:
      if (expr.unary_op == UnaryOp::kDeref) {
        return LowerExpr(*expr.lhs);  // The pointer value is the address.
      }
      break;
    default:
      break;
  }
  diags_->Error(expr.loc, "expression is not assignable");
  Instruction* slot =
      builder_->CreateAlloca(module_->types().IntType(64, false), 0, "error", expr.loc);
  return slot;
}

Value* LoweringContext::LowerShortCircuit(const Expr& expr) {
  // result = lhs ? (rhs != 0) : false   for &&
  // result = lhs ? true : (rhs != 0)    for ||
  TypeTable& types = module_->types();
  Instruction* slot = builder_->CreateAlloca(types.bool_type(), 0, "sc.tmp", expr.loc);
  Value* lhs = LowerCondition(*expr.lhs);
  BasicBlock* rhs_block = NewBlock("sc.rhs");
  BasicBlock* merge = NewBlock("sc.end");
  Value* true_const = module_->ConstInt(types.bool_type(), 1);
  Value* false_const = module_->ConstInt(types.bool_type(), 0);
  if (expr.binary_op == BinaryOp::kLogicalAnd) {
    builder_->CreateStore(false_const, slot, expr.loc);
    builder_->CreateCondBr(lhs, rhs_block, merge, expr.loc);
  } else {
    builder_->CreateStore(true_const, slot, expr.loc);
    builder_->CreateCondBr(lhs, merge, rhs_block, expr.loc);
  }
  builder_->SetInsertPoint(rhs_block);
  Value* rhs = LowerCondition(*expr.rhs);
  builder_->CreateStore(rhs, slot, expr.loc);
  builder_->CreateBr(merge, expr.loc);
  builder_->SetInsertPoint(merge);
  return builder_->CreateLoad(slot, expr.loc);
}

Value* LoweringContext::LowerTernary(const Expr& expr) {
  Value* condition = LowerCondition(*expr.lhs);
  BasicBlock* then_block = NewBlock("sel.then");
  BasicBlock* else_block = NewBlock("sel.else");
  BasicBlock* merge = NewBlock("sel.end");
  builder_->CreateCondBr(condition, then_block, else_block, expr.loc);

  builder_->SetInsertPoint(then_block);
  Value* then_value = LowerExpr(*expr.rhs);
  Instruction* slot = nullptr;
  {
    // Allocate the temp in whatever type the then-value has; the else value
    // is coerced to match.
    slot = builder_->CreateAlloca(then_value->type(), 0, "sel.tmp", expr.loc);
    builder_->CreateStore(then_value, slot, expr.loc);
    builder_->CreateBr(merge, expr.loc);
  }
  builder_->SetInsertPoint(else_block);
  Value* else_value = LowerExpr(*expr.third);
  builder_->CreateStore(Coerce(else_value, then_value->type(), expr.loc), slot, expr.loc);
  builder_->CreateBr(merge, expr.loc);

  builder_->SetInsertPoint(merge);
  return builder_->CreateLoad(slot, expr.loc);
}

Value* LoweringContext::LowerCall(const Expr& expr) {
  TypeTable& types = module_->types();
  Function* callee = module_->FindFunction(expr.name);
  const IrType* return_type = nullptr;
  if (callee != nullptr) {
    return_type = callee->return_type();
  } else {
    auto it = BuiltinReturns().find(expr.name);
    if (it != BuiltinReturns().end()) {
      switch (it->second) {
        case BuiltinReturn::kInt32:
          return_type = types.IntType(32, false);
          break;
        case BuiltinReturn::kInt64:
          return_type = types.IntType(64, false);
          break;
        case BuiltinReturn::kString:
          return_type = types.string_type();
          break;
        case BuiltinReturn::kDouble:
          return_type = types.float_type();
          break;
        case BuiltinReturn::kVoid:
          return_type = types.void_type();
          break;
      }
    } else {
      return_type = types.IntType(64, false);
    }
  }
  std::vector<Value*> args;
  args.reserve(expr.arguments.size());
  for (size_t i = 0; i < expr.arguments.size(); ++i) {
    Value* arg = LowerExpr(*expr.arguments[i]);
    if (callee != nullptr && i < callee->arguments().size()) {
      arg = Coerce(arg, callee->arguments()[i]->type(), expr.loc);
    }
    args.push_back(arg);
  }
  return builder_->CreateCall(return_type, expr.name, std::move(args), expr.loc);
}

Value* LoweringContext::LowerExpr(const Expr& expr) {
  TypeTable& types = module_->types();
  switch (expr.kind) {
    case ExprKind::kIntLiteral:
      return module_->ConstInt(types.IntType(32, false), expr.int_value);
    case ExprKind::kFloatLiteral:
      return module_->ConstFloat(expr.float_value);
    case ExprKind::kStringLiteral:
      return module_->ConstString(expr.string_value);
    case ExprKind::kNullLiteral:
      return module_->ConstNull(types.string_type());
    case ExprKind::kIdentifier: {
      Value* address = LowerLValue(expr);
      if (IsArrayBase(expr)) {
        return address;  // Arrays decay to their base address.
      }
      return builder_->CreateLoad(address, expr.loc);
    }
    case ExprKind::kMember:
    case ExprKind::kIndex: {
      Value* address = LowerLValue(expr);
      return builder_->CreateLoad(address, expr.loc);
    }
    case ExprKind::kAssign: {
      Value* value = LowerExpr(*expr.rhs);
      Value* address = LowerLValue(*expr.lhs);
      const IrType* target = address->type()->IsPointer() ? address->type()->pointee() : nullptr;
      if (target != nullptr) {
        value = Coerce(value, target, expr.loc);
      }
      builder_->CreateStore(value, address, expr.loc);
      return value;
    }
    case ExprKind::kUnary: {
      switch (expr.unary_op) {
        case UnaryOp::kNegate: {
          Value* operand = LowerExpr(*expr.lhs);
          Value* zero = operand->type()->kind() == IrTypeKind::kFloat
                            ? module_->ConstFloat(0.0)
                            : module_->ConstInt(operand->type(), 0);
          return builder_->CreateBinOp(IrBinOp::kSub, zero, operand, expr.loc);
        }
        case UnaryOp::kNot: {
          Value* operand = ToBool(LowerExpr(*expr.lhs), expr.loc);
          return builder_->CreateCmp(IrCmpPred::kEq, operand,
                                     module_->ConstInt(types.bool_type(), 0), expr.loc);
        }
        case UnaryOp::kBitNot: {
          Value* operand = LowerExpr(*expr.lhs);
          return builder_->CreateBinOp(IrBinOp::kXor, operand,
                                       module_->ConstInt(operand->type(), -1), expr.loc);
        }
        case UnaryOp::kDeref: {
          Value* pointer = LowerExpr(*expr.lhs);
          if (!pointer->type()->IsPointer()) {
            diags_->Error(expr.loc, "dereference of a non-pointer value");
            return pointer;
          }
          return builder_->CreateLoad(pointer, expr.loc);
        }
        case UnaryOp::kAddressOf:
          return LowerLValue(*expr.lhs);
        case UnaryOp::kPreInc:
        case UnaryOp::kPreDec: {
          Value* address = LowerLValue(*expr.lhs);
          Value* old_value = builder_->CreateLoad(address, expr.loc);
          IrBinOp op = expr.unary_op == UnaryOp::kPreInc ? IrBinOp::kAdd : IrBinOp::kSub;
          Value* one = old_value->type()->kind() == IrTypeKind::kFloat
                           ? module_->ConstFloat(1.0)
                           : module_->ConstInt(old_value->type(), 1);
          Value* new_value = builder_->CreateBinOp(op, old_value, one, expr.loc);
          builder_->CreateStore(new_value, address, expr.loc);
          return new_value;
        }
      }
      break;
    }
    case ExprKind::kBinary: {
      if (expr.binary_op == BinaryOp::kLogicalAnd || expr.binary_op == BinaryOp::kLogicalOr) {
        return LowerShortCircuit(expr);
      }
      Value* lhs = LowerExpr(*expr.lhs);
      Value* rhs = LowerExpr(*expr.rhs);
      // Promote to a common numeric type for mixed operands.
      if (lhs->type() != rhs->type() && (lhs->type()->IsNumeric() || lhs->type()->IsBool()) &&
          (rhs->type()->IsNumeric() || rhs->type()->IsBool())) {
        const IrType* common = nullptr;
        if (lhs->type()->kind() == IrTypeKind::kFloat ||
            rhs->type()->kind() == IrTypeKind::kFloat) {
          common = types.float_type();
        } else {
          int width = 32;
          if (lhs->type()->IsInteger()) {
            width = std::max(width, lhs->type()->bit_width());
          }
          if (rhs->type()->IsInteger()) {
            width = std::max(width, rhs->type()->bit_width());
          }
          common = types.IntType(width, false);
        }
        lhs = Coerce(lhs, common, expr.loc);
        rhs = Coerce(rhs, common, expr.loc);
      }
      if (IsComparisonOp(expr.binary_op)) {
        IrCmpPred pred;
        switch (expr.binary_op) {
          case BinaryOp::kLt:
            pred = IrCmpPred::kLt;
            break;
          case BinaryOp::kLe:
            pred = IrCmpPred::kLe;
            break;
          case BinaryOp::kGt:
            pred = IrCmpPred::kGt;
            break;
          case BinaryOp::kGe:
            pred = IrCmpPred::kGe;
            break;
          case BinaryOp::kEq:
            pred = IrCmpPred::kEq;
            break;
          default:
            pred = IrCmpPred::kNe;
            break;
        }
        return builder_->CreateCmp(pred, lhs, rhs, expr.loc);
      }
      IrBinOp op;
      switch (expr.binary_op) {
        case BinaryOp::kAdd:
          op = IrBinOp::kAdd;
          break;
        case BinaryOp::kSub:
          op = IrBinOp::kSub;
          break;
        case BinaryOp::kMul:
          op = IrBinOp::kMul;
          break;
        case BinaryOp::kDiv:
          op = IrBinOp::kDiv;
          break;
        case BinaryOp::kRem:
          op = IrBinOp::kRem;
          break;
        case BinaryOp::kShl:
          op = IrBinOp::kShl;
          break;
        case BinaryOp::kShr:
          op = IrBinOp::kShr;
          break;
        case BinaryOp::kBitAnd:
          op = IrBinOp::kAnd;
          break;
        case BinaryOp::kBitOr:
          op = IrBinOp::kOr;
          break;
        default:
          op = IrBinOp::kXor;
          break;
      }
      return builder_->CreateBinOp(op, lhs, rhs, expr.loc);
    }
    case ExprKind::kTernary:
      return LowerTernary(expr);
    case ExprKind::kCall:
      return LowerCall(expr);
    case ExprKind::kCast: {
      Value* operand = LowerExpr(*expr.lhs);
      const IrType* target = ConvertType(expr.cast_type);
      if (operand->type() == target) {
        return operand;
      }
      return builder_->CreateCast(target, operand, /*is_explicit=*/true, expr.loc);
    }
    case ExprKind::kInitList:
      diags_->Error(expr.loc, "initializer list in expression context");
      return module_->ConstInt(types.IntType(32, false), 0);
  }
  return module_->ConstInt(types.IntType(32, false), 0);
}

}  // namespace

std::unique_ptr<Module> LowerToIr(const TranslationUnit& unit, DiagnosticEngine* diags) {
  LoweringContext context(unit, diags);
  return context.Lower();
}

}  // namespace spex
