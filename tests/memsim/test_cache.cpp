#include "memsim/cache.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>

namespace lassm::memsim {
namespace {

CacheConfig cfg(std::uint64_t size, std::uint32_t line, std::uint32_t ways) {
  return CacheConfig{size, line, ways};
}

TEST(Cache, MissThenHit) {
  Cache c(cfg(1024, 64, 2));
  EXPECT_FALSE(c.access(1, false).hit);
  EXPECT_TRUE(c.access(1, false).hit);
  EXPECT_EQ(c.stats().hits, 1U);
  EXPECT_EQ(c.stats().misses, 1U);
}

TEST(Cache, ZeroCapacityAlwaysMisses) {
  Cache c(cfg(0, 64, 8));
  for (int i = 0; i < 10; ++i) EXPECT_FALSE(c.access(5, false).hit);
  EXPECT_EQ(c.stats().misses, 10U);
  EXPECT_EQ(c.resident_lines(), 0U);
}

TEST(Cache, CapacityEvicts) {
  // 4 lines, fully associative: a working set of 5 evicts.
  Cache c(cfg(4 * 64, 64, 4));
  for (std::uint64_t l = 0; l < 5; ++l) c.access(l, false);
  EXPECT_EQ(c.resident_lines(), 4U);
}

TEST(Cache, LruVictimSelection) {
  Cache c(cfg(2 * 64, 64, 2));  // one set of two ways
  c.access(10, false);
  c.access(20, false);
  c.access(10, false);  // 10 is now MRU
  // Insert a third line mapping to the same (only) set: evicts LRU = 20.
  // Use lines until one lands in the set (set count is 1 here).
  c.access(30, false);
  EXPECT_TRUE(c.access(10, false).hit);   // survived
  EXPECT_FALSE(c.access(20, false).hit);  // evicted
}

TEST(Cache, DirtyEvictionReportsWriteback) {
  Cache c(cfg(1 * 64, 64, 1));  // single line
  c.access(1, true);            // dirty
  const auto r = c.access(2, false);
  EXPECT_FALSE(r.hit);
  EXPECT_TRUE(r.writeback);
  EXPECT_EQ(r.victim_line, 1U);
  EXPECT_EQ(c.stats().writebacks, 1U);
}

TEST(Cache, CleanEvictionNoWriteback) {
  Cache c(cfg(1 * 64, 64, 1));
  c.access(1, false);
  EXPECT_FALSE(c.access(2, false).writeback);
}

TEST(Cache, WriteMarksResidentLineDirty) {
  Cache c(cfg(1 * 64, 64, 1));
  c.access(1, false);     // clean fill
  c.access(1, true);      // hit-write: now dirty
  EXPECT_EQ(c.dirty_lines(), 1U);
  EXPECT_TRUE(c.access(2, false).writeback);
}

TEST(Cache, InvalidateAllKeepsStats) {
  Cache c(cfg(1024, 64, 4));
  c.access(1, false);
  c.access(1, false);
  c.invalidate_all();
  EXPECT_EQ(c.resident_lines(), 0U);
  EXPECT_EQ(c.stats().hits, 1U);
  EXPECT_FALSE(c.access(1, false).hit);  // gone after invalidation
}

TEST(Cache, HitRate) {
  Cache c(cfg(4096, 64, 4));
  EXPECT_DOUBLE_EQ(c.stats().hit_rate(), 0.0);
  c.access(1, false);
  c.access(1, false);
  c.access(1, false);
  c.access(2, false);
  EXPECT_DOUBLE_EQ(c.stats().hit_rate(), 0.5);
}

TEST(Cache, WaysClampedToCapacity) {
  Cache c(cfg(2 * 64, 64, 16));  // only 2 lines exist
  c.access(1, false);
  c.access(2, false);
  EXPECT_EQ(c.resident_lines(), 2U);
  c.access(3, false);
  EXPECT_EQ(c.resident_lines(), 2U);  // capacity bound holds
}

class CacheWorkingSet : public ::testing::TestWithParam<std::uint64_t> {};

// Property: a working set that fits never misses after the first pass.
TEST_P(CacheWorkingSet, FitsMeansNoCapacityMisses) {
  const std::uint64_t lines = GetParam();
  Cache c(cfg(64 * 1024, 64, 16));  // 1024 lines, 16-way
  for (std::uint64_t l = 0; l < lines; ++l) c.access(l, false);
  c.reset_stats();
  for (int pass = 0; pass < 3; ++pass) {
    for (std::uint64_t l = 0; l < lines; ++l) c.access(l, false);
  }
  EXPECT_EQ(c.stats().misses, 0U) << lines << " lines";
}

INSTANTIATE_TEST_SUITE_P(Sizes, CacheWorkingSet,
                         ::testing::Values(1, 16, 64, 256, 512));

TEST(Cache, ThrashingWorkingSetMostlyMisses) {
  Cache c(cfg(64 * 64, 64, 8));  // 64 lines
  // Working set of 4096 lines cycled: LRU guarantees ~0 hits.
  for (int pass = 0; pass < 2; ++pass) {
    for (std::uint64_t l = 0; l < 4096; ++l) c.access(l, false);
  }
  EXPECT_LT(c.stats().hit_rate(), 0.01);
}

TEST(Cache, ReshapeIsIndistinguishableFromConstruction) {
  // A slab reused across geometries (smaller, larger, same stride, other
  // associativity) must behave exactly like a freshly built cache: the
  // earlier geometry's tags, recency words and epoch stamps are garbage to
  // the new one. The first geometry is filled without any invalidation, so
  // its sets carry the same epoch stamp a fresh slab starts with.
  const CacheConfig shapes[] = {cfg(64 * 1024, 64, 16), cfg(8 * 1024, 64, 16),
                                cfg(128 * 1024, 32, 8), cfg(5 * 128, 128, 16),
                                cfg(64 * 1024, 64, 16), cfg(0, 64, 8),
                                cfg(2 * 1024, 32, 2)};
  std::mt19937_64 rng(77);
  Cache reused(shapes[0]);
  for (const CacheConfig& shape : shapes) {
    reused.reshape(shape);
    Cache fresh(shape);
    EXPECT_EQ(reused.stats().accesses(), 0U);
    EXPECT_EQ(reused.resident_lines(), 0U);
    EXPECT_EQ(reused.dirty_lines(), 0U);
    for (int i = 0; i < 20000; ++i) {
      const std::uint64_t line = rng() % 4096;
      const bool is_write = rng() % 3 == 0;
      const auto got = reused.access(line, is_write);
      const auto want = fresh.access(line, is_write);
      ASSERT_EQ(got.hit, want.hit) << shape.size_bytes << " access " << i;
      ASSERT_EQ(got.writeback, want.writeback) << "access " << i;
      ASSERT_EQ(got.victim_line, want.victim_line) << "access " << i;
    }
    EXPECT_EQ(reused.resident_lines(), fresh.resident_lines());
    EXPECT_EQ(reused.dirty_lines(), fresh.dirty_lines());
    EXPECT_EQ(reused.stats().writebacks, fresh.stats().writebacks);
  }
}

}  // namespace
}  // namespace lassm::memsim
