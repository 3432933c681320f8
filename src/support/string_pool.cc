#include "src/support/string_pool.h"

namespace spex {

Symbol StringPool::Intern(std::string_view text) {
  auto it = index_.find(text);
  if (it != index_.end()) {
    return it->second;
  }
  storage_.emplace_back(text);
  bytes_ += text.size();
  Symbol sym = static_cast<Symbol>(storage_.size());  // 1-based.
  index_.emplace(std::string_view(storage_.back()), sym);
  return sym;
}

const std::string* StringPool::InternPtr(std::string_view text, Symbol* sym) {
  Symbol interned = Intern(text);
  if (sym != nullptr) {
    *sym = interned;
  }
  return &storage_[interned - 1];
}

const std::string* StringPool::StablePtr(Symbol sym) const {
  if (sym == kInvalidSymbol || sym > storage_.size()) {
    return nullptr;
  }
  return &storage_[sym - 1];
}

std::string_view StringPool::View(Symbol sym) const {
  const std::string* str = StablePtr(sym);
  return str != nullptr ? std::string_view(*str) : std::string_view();
}

}  // namespace spex
