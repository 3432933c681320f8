// Interned-string pool: dense Symbol ids over stable string storage.
//
// The interpreter's runtime values used to carry an owned std::string each;
// register moves, Reset() image copies and snapshot restores all paid an
// allocation per string value. Interning replaces the payload with a Symbol
// id plus a pointer into pool-stable storage, so copying a runtime value is
// trivial and comparing two values interned in the same pool is a pointer
// check. Storage is a deque, so interned strings never move: a
// `const std::string*` handed out by the pool stays valid for the pool's
// lifetime regardless of later Intern() calls.
//
// Ownership and threading: a pool has exactly one owner, the Interpreter
// that interns into it, and is used only from that interpreter's thread.
// There is no lock and no reclamation; the pool lives and dies with its
// interpreter.
#ifndef SPEX_SUPPORT_STRING_POOL_H_
#define SPEX_SUPPORT_STRING_POOL_H_

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>

namespace spex {

// Dense 1-based id of an interned string; 0 is "no symbol".
using Symbol = uint32_t;
inline constexpr Symbol kInvalidSymbol = 0;

class StringPool {
 public:
  struct Stats {
    size_t strings = 0;  // Distinct interned strings.
    size_t bytes = 0;    // Total payload bytes held.
  };

  StringPool() = default;
  StringPool(const StringPool&) = delete;
  StringPool& operator=(const StringPool&) = delete;

  // Returns the symbol for `text`, interning it on first sight.
  Symbol Intern(std::string_view text);

  // Intern and return the stable storage pointer in one step; `sym`
  // receives the symbol if non-null.
  const std::string* InternPtr(std::string_view text, Symbol* sym = nullptr);

  // Stable pointer for an already-interned symbol; null for an unknown one.
  const std::string* StablePtr(Symbol sym) const;

  std::string_view View(Symbol sym) const;

  Stats stats() const { return Stats{storage_.size(), bytes_}; }

 private:
  // Deque keeps element addresses stable across growth; index_ keys are
  // views into the stored strings themselves.
  std::deque<std::string> storage_;
  std::unordered_map<std::string_view, Symbol> index_;
  size_t bytes_ = 0;
};

}  // namespace spex

#endif  // SPEX_SUPPORT_STRING_POOL_H_
