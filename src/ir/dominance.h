// Dominator/post-dominator trees and control-dependence analysis.
//
// Control dependence is the backbone of two of the paper's inference engines:
// data-range classification looks at the behaviour of the region controlled
// by a comparison, and control-dependency inference asks which parameter P's
// branches guard the usage sites of parameter Q (Section 2.2.4).
#ifndef SPEX_IR_DOMINANCE_H_
#define SPEX_IR_DOMINANCE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/ir/ir.h"

namespace spex {

// Forward or reverse dominator tree over one function's CFG. Unreachable
// blocks are reported as dominated by nothing and dominating nothing.
class DominatorTree {
 public:
  // post = false: classic dominators rooted at entry.
  // post = true: post-dominators rooted at a virtual exit that all Ret /
  // Unreachable / successor-less blocks lead to.
  DominatorTree(const Function& function, bool post);

  // True iff `a` dominates `b` (reflexive).
  bool Dominates(const BasicBlock* a, const BasicBlock* b) const;
  // Immediate dominator, or nullptr for the root / unreachable blocks.
  const BasicBlock* ImmediateDominator(const BasicBlock* block) const;
  bool IsReachable(const BasicBlock* block) const;

 private:
  size_t IndexOf(const BasicBlock* block) const;

  const Function& function_;
  bool post_;
  size_t n_ = 0;           // Number of real blocks.
  size_t virtual_exit_ = 0;  // Index of the virtual exit (post mode only).
  std::vector<std::vector<uint32_t>> dom_sets_;  // Bitsets, indexed by block index.
  std::vector<int> idom_;                        // -1 = none.
  std::vector<bool> reachable_;
};

// One direct control dependence: `block` executes only if `branch` takes the
// successor edge `successor_index`. Deps order by the branch's per-function
// Value id, never by its address: callers that keep the first dep per
// derived key (constraint locations) must not depend on heap layout.
struct ControlDep {
  ControlDep() = default;
  ControlDep(const Instruction* branch, int successor_index)
      : branch(branch), branch_id(branch->id()), successor_index(successor_index) {}

  const Instruction* branch = nullptr;
  uint32_t branch_id = 0;  // branch->id(), cached so ordering stays a plain compare.
  int successor_index = -1;

  bool operator<(const ControlDep& other) const {
    if (branch_id != other.branch_id) {
      return branch_id < other.branch_id;
    }
    return successor_index < other.successor_index;
  }
  bool operator==(const ControlDep& other) const {
    return branch_id == other.branch_id && successor_index == other.successor_index;
  }
};

// Control dependence of one function, computed once at construction and
// keyed by dense index. Direct deps live in a vector indexed by
// BasicBlock::index(). The function's dep edges (every successor edge of a
// branch with two or more successors) are numbered in `ControlDep` order;
// each block's transitive closure is a bitset over those edge ids, and each
// edge's region is the transpose of the closures. Every query is a lookup:
// the returned spans live as long as this object.
class ControlDependence {
 public:
  explicit ControlDependence(const Function& function);

  // Branch edges this block is directly control-dependent on, in the order
  // of the controlling branches' blocks.
  std::span<const ControlDep> DirectDeps(const BasicBlock* block) const;

  // Transitive closure: direct deps plus the deps of the controlling
  // branches' own blocks, in `ControlDep` order. This is the set of
  // conditions that must all hold for `block` to execute. In a loop a block
  // can depend on its own branch.
  std::span<const ControlDep> TransitiveDeps(const BasicBlock* block) const;

  // The blocks that execute only when `dep` is taken, including blocks
  // nested under further branches inside the region, in function order.
  // Empty if `dep` is not a dep edge of this function.
  std::span<const BasicBlock* const> Region(const ControlDep& dep) const;

  // Only the blocks *directly* control-dependent on `dep`: the straight-line
  // body of the branch arm, excluding nested sub-branches. In function order.
  std::span<const BasicBlock* const> DirectRegion(const ControlDep& dep) const;

 private:
  // Block index of `block` if it belongs to this function, else -1.
  int IndexOf(const BasicBlock* block) const;
  // Dense id of `dep` among this function's dep edges, or -1.
  int EdgeId(const ControlDep& dep) const;

  const Function& function_;
  std::vector<std::vector<ControlDep>> direct_;  // Indexed by block index.
  std::vector<int> first_edge_;                  // Block index -> id of its edge 0, or -1.
  // Compressed rows: closure_deps_[closure_begin_[b] .. closure_begin_[b+1])
  // is block b's closure; likewise per edge id for the two region tables.
  std::vector<uint32_t> closure_begin_;
  std::vector<ControlDep> closure_deps_;
  std::vector<uint32_t> region_begin_;
  std::vector<const BasicBlock*> region_blocks_;
  std::vector<uint32_t> direct_region_begin_;
  std::vector<const BasicBlock*> direct_region_blocks_;
};

}  // namespace spex

#endif  // SPEX_IR_DOMINANCE_H_
