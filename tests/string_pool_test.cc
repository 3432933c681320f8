// StringPool tests: round-trip, uniqueness, pointer stability and stats.
#include "src/support/string_pool.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace spex {
namespace {

TEST(StringPoolTest, RoundTripAndUniqueness) {
  StringPool pool;
  Symbol hello = pool.Intern("hello");
  Symbol world = pool.Intern("world");
  EXPECT_NE(hello, kInvalidSymbol);
  EXPECT_NE(world, kInvalidSymbol);
  EXPECT_NE(hello, world);
  EXPECT_EQ(pool.View(hello), "hello");
  EXPECT_EQ(pool.View(world), "world");
  // Re-interning the same text yields the same symbol (and pointer).
  EXPECT_EQ(pool.Intern("hello"), hello);
  EXPECT_EQ(pool.InternPtr("hello"), pool.StablePtr(hello));
  EXPECT_EQ(pool.stats().strings, 2u);
}

TEST(StringPoolTest, InvalidSymbolsResolveToNothing) {
  StringPool pool;
  EXPECT_EQ(pool.StablePtr(kInvalidSymbol), nullptr);
  EXPECT_EQ(pool.StablePtr(42), nullptr);
  EXPECT_EQ(pool.View(kInvalidSymbol), "");
}

TEST(StringPoolTest, PointersStableAcrossGrowth) {
  StringPool pool;
  const std::string* first = pool.InternPtr("first");
  std::vector<const std::string*> pointers;
  for (int i = 0; i < 10000; ++i) {
    pointers.push_back(pool.InternPtr("filler_" + std::to_string(i)));
  }
  // Growth must not move previously interned strings.
  EXPECT_EQ(first, pool.InternPtr("first"));
  EXPECT_EQ(*first, "first");
  for (int i = 0; i < 10000; ++i) {
    EXPECT_EQ(*pointers[i], "filler_" + std::to_string(i));
  }
  EXPECT_EQ(pool.stats().strings, 10001u);
}

TEST(StringPoolTest, StatsCountPayloadBytes) {
  StringPool pool;
  pool.Intern("abc");
  pool.Intern("defgh");
  pool.Intern("abc");  // Duplicate: no growth.
  StringPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.strings, 2u);
  EXPECT_EQ(stats.bytes, 8u);
}

}  // namespace
}  // namespace spex
