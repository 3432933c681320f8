#include "src/ir/dominance.h"

#include <algorithm>
#include <bit>

namespace spex {

namespace {

void SetBit(std::vector<uint32_t>& bits, size_t i) { bits[i / 32] |= (1u << (i % 32)); }
bool GetBit(const std::vector<uint32_t>& bits, size_t i) {
  return (bits[i / 32] & (1u << (i % 32))) != 0;
}

// bits &= other; returns true if bits changed.
bool IntersectInto(std::vector<uint32_t>& bits, const std::vector<uint32_t>& other) {
  bool changed = false;
  for (size_t i = 0; i < bits.size(); ++i) {
    uint32_t next = bits[i] & other[i];
    if (next != bits[i]) {
      bits[i] = next;
      changed = true;
    }
  }
  return changed;
}

// Row `i` of a compressed table: data[begin[i] .. begin[i + 1]).
template <typename T>
std::span<const T> Row(const std::vector<T>& data, const std::vector<uint32_t>& begin, size_t i) {
  return std::span<const T>(data).subspan(begin[i], begin[i + 1] - begin[i]);
}

}  // namespace

DominatorTree::DominatorTree(const Function& function, bool post)
    : function_(function), post_(post) {
  n_ = function.blocks().size();
  size_t total = post_ ? n_ + 1 : n_;  // +1 for the virtual exit.
  virtual_exit_ = n_;
  size_t words = (total + 31) / 32;

  // Build the edge lists in the direction of the analysis: for dominators we
  // walk predecessors; for post-dominators we walk successors (i.e. the
  // predecessors in the reversed CFG).
  std::vector<std::vector<size_t>> preds(total);
  std::vector<size_t> roots;
  if (!post_) {
    for (const auto& block : function.blocks()) {
      for (const BasicBlock* succ : block->Successors()) {
        preds[succ->index()].push_back(block->index());
      }
    }
    if (n_ > 0) {
      roots.push_back(0);
    }
  } else {
    for (const auto& block : function.blocks()) {
      auto succs = block->Successors();
      if (succs.empty()) {
        // Exit block: the virtual exit's "predecessor" in the reverse CFG.
        preds[block->index()].push_back(virtual_exit_);
      }
      for (const BasicBlock* succ : succs) {
        preds[block->index()].push_back(succ->index());
      }
    }
    roots.push_back(virtual_exit_);
  }

  // Reachability in the analysis direction.
  reachable_.assign(total, false);
  {
    std::vector<size_t> work = roots;
    // Forward reachability needs successor lists in the analysis direction,
    // which are the reverse of `preds`.
    std::vector<std::vector<size_t>> succs_dir(total);
    for (size_t to = 0; to < total; ++to) {
      for (size_t from : preds[to]) {
        succs_dir[from].push_back(to);
      }
    }
    for (size_t root : roots) {
      reachable_[root] = true;
    }
    while (!work.empty()) {
      size_t node = work.back();
      work.pop_back();
      for (size_t next : succs_dir[node]) {
        if (!reachable_[next]) {
          reachable_[next] = true;
          work.push_back(next);
        }
      }
    }
  }

  // Iterative dominator sets.
  std::vector<uint32_t> full(words, 0);
  for (size_t i = 0; i < total; ++i) {
    SetBit(full, i);
  }
  dom_sets_.assign(total, full);
  for (size_t root : roots) {
    std::vector<uint32_t> only_self(words, 0);
    SetBit(only_self, root);
    dom_sets_[root] = only_self;
  }

  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t i = 0; i < total; ++i) {
      if (!reachable_[i] || std::find(roots.begin(), roots.end(), i) != roots.end()) {
        continue;
      }
      std::vector<uint32_t> next(words, 0xffffffffu);
      bool any_pred = false;
      for (size_t pred : preds[i]) {
        if (!reachable_[pred]) {
          continue;
        }
        any_pred = true;
        IntersectInto(next, dom_sets_[pred]);
      }
      if (!any_pred) {
        next.assign(words, 0);
      }
      SetBit(next, i);
      if (next != dom_sets_[i]) {
        dom_sets_[i] = std::move(next);
        changed = true;
      }
    }
  }
  // Unreachable blocks dominate/are dominated by nothing but themselves.
  for (size_t i = 0; i < total; ++i) {
    if (!reachable_[i]) {
      std::vector<uint32_t> only_self(words, 0);
      SetBit(only_self, i);
      dom_sets_[i] = only_self;
    }
  }

  // Immediate dominators: the unique strict dominator that is dominated by
  // all other strict dominators.
  idom_.assign(total, -1);
  for (size_t i = 0; i < total; ++i) {
    if (!reachable_[i]) {
      continue;
    }
    int best = -1;
    for (size_t cand = 0; cand < total; ++cand) {
      if (cand == i || !GetBit(dom_sets_[i], cand)) {
        continue;
      }
      if (best == -1 || GetBit(dom_sets_[cand], static_cast<size_t>(best))) {
        best = static_cast<int>(cand);
      }
    }
    idom_[i] = best;
  }
}

size_t DominatorTree::IndexOf(const BasicBlock* block) const { return block->index(); }

bool DominatorTree::Dominates(const BasicBlock* a, const BasicBlock* b) const {
  size_t ia = IndexOf(a);
  size_t ib = IndexOf(b);
  if (ia >= dom_sets_.size() || ib >= dom_sets_.size()) {
    return false;
  }
  return GetBit(dom_sets_[ib], ia);
}

const BasicBlock* DominatorTree::ImmediateDominator(const BasicBlock* block) const {
  size_t i = IndexOf(block);
  if (i >= idom_.size() || idom_[i] < 0 || static_cast<size_t>(idom_[i]) >= n_) {
    return nullptr;  // Root, virtual exit, or unreachable.
  }
  return function_.blocks()[static_cast<size_t>(idom_[i])].get();
}

bool DominatorTree::IsReachable(const BasicBlock* block) const {
  size_t i = IndexOf(block);
  return i < reachable_.size() && reachable_[i];
}

ControlDependence::ControlDependence(const Function& function) : function_(function) {
  const auto& blocks = function.blocks();
  const size_t n = blocks.size();
  DominatorTree postdom(function, /*post=*/true);

  // Number the dep edges in ControlDep order: branches by Value id, then
  // successor index. Unconditional edges impose no control dependence.
  std::vector<const Instruction*> branches;
  for (const auto& block : blocks) {
    const Instruction* term = block->terminator();
    if (term != nullptr && term->successors().size() >= 2) {
      branches.push_back(term);
    }
  }
  std::sort(branches.begin(), branches.end(),
            [](const Instruction* a, const Instruction* b) { return a->id() < b->id(); });
  first_edge_.assign(n, -1);
  size_t num_edges = 0;
  for (const Instruction* branch : branches) {
    first_edge_[branch->parent()->index()] = static_cast<int>(num_edges);
    num_edges += branch->successors().size();
  }
  std::vector<ControlDep> edges;
  edges.reserve(num_edges);
  for (const Instruction* branch : branches) {
    for (size_t edge = 0; edge < branch->successors().size(); ++edge) {
      edges.emplace_back(branch, static_cast<int>(edge));
    }
  }

  auto edge_id = [&](const ControlDep& dep) {
    return static_cast<size_t>(first_edge_[dep.branch->parent()->index()] + dep.successor_index);
  };

  // B is control-dependent on edge (A -> S) iff B post-dominates S (or
  // B == S) and B does not post-dominate A: exactly the blocks on the
  // post-dominator tree path from S up to, not including, ipdom(A), minus A
  // itself. The virtual exit (nullptr) ends every path.
  direct_.resize(n);
  for (const auto& block_a : blocks) {
    Instruction* term = block_a->terminator();
    if (term == nullptr || term->successors().size() < 2) {
      continue;
    }
    const BasicBlock* stop = postdom.ImmediateDominator(block_a.get());
    const auto& succs = term->successors();
    for (size_t edge = 0; edge < succs.size(); ++edge) {
      if (!postdom.IsReachable(succs[edge])) {
        continue;
      }
      for (const BasicBlock* b = succs[edge]; b != nullptr && b != stop;
           b = postdom.ImmediateDominator(b)) {
        if (b != block_a.get()) {
          direct_[b->index()].emplace_back(term, static_cast<int>(edge));
        }
      }
    }
  }

  // Closures as bitsets over edge ids: closure(B) is the union over B's
  // direct deps d of {d} and closure(block of d). Iterate to the least
  // fixpoint; loops make the dependence graph cyclic, so a block can reach
  // its own branch.
  const size_t words = (num_edges + 63) / 64;
  std::vector<uint64_t> closure(n * words, 0);
  for (size_t b = 0; b < n; ++b) {
    for (const ControlDep& dep : direct_[b]) {
      size_t id = edge_id(dep);
      closure[b * words + id / 64] |= uint64_t{1} << (id % 64);
    }
  }
  for (bool changed = true; changed;) {
    changed = false;
    for (size_t b = 0; b < n; ++b) {
      uint64_t* row = closure.data() + b * words;
      for (const ControlDep& dep : direct_[b]) {
        const uint64_t* from = closure.data() + dep.branch->parent()->index() * words;
        for (size_t w = 0; w < words; ++w) {
          uint64_t next = row[w] | from[w];
          changed |= next != row[w];
          row[w] = next;
        }
      }
    }
  }

  // Materialize each block's closure in edge-id (= ControlDep) order, and
  // transpose the closures and the direct deps into per-edge regions. Blocks
  // are visited in function order, so every region comes out in it.
  closure_begin_.assign(n + 1, 0);
  region_begin_.assign(num_edges + 1, 0);
  direct_region_begin_.assign(num_edges + 1, 0);
  auto for_each_closure_edge = [&](size_t b, auto&& visit) {
    for (size_t w = 0; w < words; ++w) {
      for (uint64_t bits = closure[b * words + w]; bits != 0; bits &= bits - 1) {
        visit(w * 64 + static_cast<size_t>(std::countr_zero(bits)));
      }
    }
  };
  for (size_t b = 0; b < n; ++b) {
    for_each_closure_edge(b, [&](size_t id) {
      closure_deps_.push_back(edges[id]);
      ++region_begin_[id + 1];
    });
    closure_begin_[b + 1] = static_cast<uint32_t>(closure_deps_.size());
    for (const ControlDep& dep : direct_[b]) {
      ++direct_region_begin_[edge_id(dep) + 1];
    }
  }
  for (size_t id = 0; id < num_edges; ++id) {
    region_begin_[id + 1] += region_begin_[id];
    direct_region_begin_[id + 1] += direct_region_begin_[id];
  }
  region_blocks_.resize(region_begin_[num_edges]);
  direct_region_blocks_.resize(direct_region_begin_[num_edges]);
  std::vector<uint32_t> region_fill(region_begin_.begin(), region_begin_.end() - 1);
  std::vector<uint32_t> direct_fill(direct_region_begin_.begin(),
                                    direct_region_begin_.end() - 1);
  for (size_t b = 0; b < n; ++b) {
    for_each_closure_edge(b,
                          [&](size_t id) { region_blocks_[region_fill[id]++] = blocks[b].get(); });
    for (const ControlDep& dep : direct_[b]) {
      direct_region_blocks_[direct_fill[edge_id(dep)]++] = blocks[b].get();
    }
  }
}

int ControlDependence::IndexOf(const BasicBlock* block) const {
  size_t i = block->index();
  return i < direct_.size() && function_.blocks()[i].get() == block ? static_cast<int>(i) : -1;
}

int ControlDependence::EdgeId(const ControlDep& dep) const {
  if (dep.branch == nullptr || dep.successor_index < 0) {
    return -1;
  }
  const BasicBlock* block = dep.branch->parent();
  int i = IndexOf(block);
  // Only a terminator has successors, so the range check also rejects
  // non-branch instructions.
  if (i < 0 || first_edge_[static_cast<size_t>(i)] < 0 ||
      static_cast<size_t>(dep.successor_index) >= dep.branch->successors().size()) {
    return -1;
  }
  return first_edge_[static_cast<size_t>(i)] + dep.successor_index;
}

std::span<const ControlDep> ControlDependence::DirectDeps(const BasicBlock* block) const {
  int i = IndexOf(block);
  if (i < 0) {
    return {};
  }
  return direct_[static_cast<size_t>(i)];
}

std::span<const ControlDep> ControlDependence::TransitiveDeps(const BasicBlock* block) const {
  int i = IndexOf(block);
  if (i < 0) {
    return {};
  }
  return Row(closure_deps_, closure_begin_, static_cast<size_t>(i));
}

std::span<const BasicBlock* const> ControlDependence::Region(const ControlDep& dep) const {
  int id = EdgeId(dep);
  if (id < 0) {
    return {};
  }
  return Row(region_blocks_, region_begin_, static_cast<size_t>(id));
}

std::span<const BasicBlock* const> ControlDependence::DirectRegion(const ControlDep& dep) const {
  int id = EdgeId(dep);
  if (id < 0) {
    return {};
  }
  return Row(direct_region_blocks_, direct_region_begin_, static_cast<size_t>(id));
}

}  // namespace spex
