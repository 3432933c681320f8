// Deterministic random number generation for tests: a seeded test draws
// the same values on every run. SplitMix64 is small, fast, and has no
// global state.
#ifndef SPEX_TESTS_RNG_H_
#define SPEX_TESTS_RNG_H_

#include <cstdint>
#include <string>
#include <vector>

namespace spex {

class DeterministicRng {
 public:
  explicit DeterministicRng(uint64_t seed) : state_(seed) {}

  uint64_t NextU64() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  // Uniform in [0, bound). bound must be > 0.
  uint64_t NextBounded(uint64_t bound) { return NextU64() % bound; }

  // Uniform in [lo, hi] inclusive. Requires lo <= hi.
  int64_t NextInRange(int64_t lo, int64_t hi) {
    uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
    return lo + static_cast<int64_t>(NextBounded(span));
  }

  double NextDouble() { return static_cast<double>(NextU64() >> 11) * (1.0 / 9007199254740992.0); }

  bool NextBool(double probability_true = 0.5) { return NextDouble() < probability_true; }

  template <typename T>
  const T& Pick(const std::vector<T>& items) {
    return items[NextBounded(items.size())];
  }

  // Derives an independent child stream; used so that adding parameters to
  // one corpus target never perturbs another target's stream.
  DeterministicRng Fork(uint64_t salt) { return DeterministicRng(NextU64() ^ (salt * 0x9e3779b97f4a7c15ULL)); }

 private:
  uint64_t state_;
};

}  // namespace spex

#endif  // SPEX_TESTS_RNG_H_
