// Differential tests for the hot-path Cache/TieredMemory implementation.
//
// The fast paths (last-line memo, prefix tag scan, packed-nibble recency,
// epoch-based invalidation) all claim *exact* equivalence to a plain
// set-associative true-LRU write-back cache. These tests drive randomized
// access streams through the real implementation and through a
// deliberately naive map/list-based oracle that mirrors the seed
// implementation's contract — lowest-index invalid way first, true LRU
// with lowest-index tie-break (unreachable: stamps are distinct), dirty
// victims billed as writebacks — and demand identical results on every
// single access, not just at the end. The tiered oracle also mirrors
// flush() billing and both eviction counters, and the study devices' real
// warp-effective slices (32/64/128 B lines, MI250X's clamped 2-way L1 and
// 5-way L2) drive both levels, including the pristine-hierarchy wipe path.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <random>
#include <string>
#include <vector>

#include "memsim/cache.hpp"
#include "memsim/tiered.hpp"
#include "simt/device.hpp"

namespace lassm::memsim {
namespace {

/// Naive reference model of one cache level, structured for obviousness:
/// each set is a row of ways filled from the left, recency kept as an
/// explicit monotonically increasing stamp, victim chosen by linear scan.
class OracleCache {
 public:
  explicit OracleCache(const CacheConfig& cfg) {
    const std::uint64_t lines = cfg.num_lines();
    if (lines == 0) return;
    ways_ = std::min<std::uint64_t>(
        std::min<std::uint64_t>(cfg.ways == 0 ? 1 : cfg.ways, 16), lines);
    std::uint64_t sets = 1;
    while (sets * 2 <= lines / ways_) sets *= 2;
    used_.assign(sets, 0);
    ways_of_sets_.assign(sets * ways_, Way{});
  }

  struct Result {
    bool hit = false;
    bool writeback = false;
    std::uint64_t victim_line = 0;
  };

  Result access(std::uint64_t line, bool is_write) {
    Result r;
    if (used_.empty()) {
      ++misses_;
      return r;
    }
    std::uint64_t mixed = line * 0x9e3779b97f4a7c15ULL;
    mixed ^= mixed >> 29;
    const std::uint64_t set = mixed & (used_.size() - 1);
    Way* ways = &ways_of_sets_[set * ways_];
    std::uint64_t& used = used_[set];
    for (std::uint64_t w = 0; w < used; ++w) {
      if (ways[w].valid && ways[w].line == line) {
        ways[w].stamp = ++tick_;
        ways[w].dirty = ways[w].dirty || is_write;
        ++hits_;
        r.hit = true;
        return r;
      }
    }
    ++misses_;
    // Victim: lowest-index invalid way, else the lowest stamp.
    if (used < ways_) ways[used++] = Way{};
    std::uint64_t victim = 0;
    for (std::uint64_t w = 0; w < used; ++w) {
      if (!ways[w].valid) {
        victim = w;
        break;
      }
      if (ways[w].stamp < ways[victim].stamp) victim = w;
    }
    Way& v = ways[victim];
    if (v.valid && v.dirty) {
      r.writeback = true;
      r.victim_line = v.line;
      ++writebacks_;
    }
    v.valid = true;
    v.line = line;
    v.dirty = is_write;
    v.stamp = ++tick_;
    return r;
  }

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  std::uint64_t writebacks() const { return writebacks_; }

  std::uint64_t resident_lines() const {
    return count([](const Way&) { return true; });
  }
  std::uint64_t dirty_lines() const {
    return count([](const Way& w) { return w.dirty; });
  }

  void invalidate_all() { std::fill(used_.begin(), used_.end(), 0); }

 private:
  struct Way {
    bool valid = false;
    bool dirty = false;
    std::uint64_t line = 0;
    std::uint64_t stamp = 0;
  };

  template <typename Pred>
  std::uint64_t count(Pred pred) const {
    std::uint64_t n = 0;
    for (std::uint64_t s = 0; s < used_.size(); ++s)
      for (std::uint64_t w = 0; w < used_[s]; ++w) {
        const Way& way = ways_of_sets_[s * ways_ + w];
        n += way.valid && pred(way) ? 1 : 0;
      }
    return n;
  }

  std::vector<std::uint64_t> used_;  ///< ways in use per set
  std::vector<Way> ways_of_sets_;    ///< set s: [s * ways_, s * ways_ + used)
  std::uint64_t ways_ = 0;
  std::uint64_t tick_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t writebacks_ = 0;
};

/// Naive reference of the two-level hierarchy's byte accounting, mirroring
/// TieredMemory::span_access_impl: L1 probe per line, dirty L1 victims
/// drain into L2, L2 misses fetch from (and dirty L2 victims write to)
/// HBM. flush() mirrors TieredMemory::flush: every dirty L1 line counts as
/// an L1 eviction absorbed by L2, every dirty L2 line as a writeback to
/// HBM, and both levels end empty.
class OracleTiered {
 public:
  OracleTiered(const CacheConfig& l1, const CacheConfig& l2)
      : l1_(l1), l2_(l2), line_bytes_(l1.line_bytes) {}

  ServiceLevel access(std::uint64_t addr, std::uint32_t size, bool is_write,
                      bool no_fetch) {
    ++accesses_;
    if (size == 0) return ServiceLevel::kL1;
    ServiceLevel deepest = ServiceLevel::kL1;
    const std::uint64_t first = addr / line_bytes_;
    const std::uint64_t last = (addr + size - 1) / line_bytes_;
    for (std::uint64_t line = first; line <= last; ++line) {
      ++lines_touched_;
      const auto r1 = l1_.access(line, is_write);
      if (r1.hit) {
        ++l1_hits_;
        continue;
      }
      if (r1.writeback) {
        ++l1_evictions_;
        const auto wb = l2_.access(r1.victim_line, true);
        if (!wb.hit) {
          hbm_write_bytes_ += line_bytes_;
          ++l2_evictions_;
          if (wb.writeback) {
            hbm_write_bytes_ += line_bytes_;
            ++l2_evictions_;
          }
        } else if (wb.writeback) {
          hbm_write_bytes_ += line_bytes_;
          ++l2_evictions_;
        }
      }
      const auto r2 = l2_.access(line, is_write);
      if (r2.hit) {
        ++l2_hits_;
        deepest = std::max(deepest, ServiceLevel::kL2);
        continue;
      }
      if (r2.writeback) {
        hbm_write_bytes_ += line_bytes_;
        ++l2_evictions_;
      }
      if (!no_fetch) {
        ++hbm_lines_;
        hbm_read_bytes_ += line_bytes_;
      }
      deepest = ServiceLevel::kHbm;
    }
    return deepest;
  }

  /// The bulk wipe's contract: one full-line streaming store per
  /// line-sized chunk, the last chunk a full line even when `bytes` is not
  /// a multiple of the line size.
  ServiceLevel stream_write_range(std::uint64_t addr, std::uint64_t bytes) {
    ServiceLevel deepest = ServiceLevel::kL1;
    for (std::uint64_t off = 0; off < bytes; off += line_bytes_)
      deepest = std::max(deepest, access(addr + off, line_bytes_, true, true));
    return deepest;
  }

  void flush() {
    l1_evictions_ += l1_.dirty_lines();
    const std::uint64_t l2_dirty = l2_.dirty_lines();
    hbm_write_bytes_ += l2_dirty * line_bytes_;
    l2_evictions_ += l2_dirty;
    l1_.invalidate_all();
    l2_.invalidate_all();
  }

  std::uint64_t accesses_ = 0, lines_touched_ = 0, l1_hits_ = 0,
                l2_hits_ = 0, l1_evictions_ = 0, l2_evictions_ = 0,
                hbm_lines_ = 0, hbm_read_bytes_ = 0, hbm_write_bytes_ = 0;
  OracleCache l1_;
  OracleCache l2_;
  std::uint32_t line_bytes_;
};

/// ctest names each case after this struct's bytes, so it has no padding
/// (`seed` is 64-bit): padding bytes are indeterminate and would make the
/// test IDs differ between builds.
struct StreamParams {
  std::uint64_t size_bytes;
  std::uint32_t line_bytes;
  std::uint32_t ways;
  std::uint64_t address_space_lines;
  std::uint64_t seed;
};

/// Drives one randomized stream through Cache and OracleCache, demanding
/// identical results access by access and identical occupancy at every
/// invalidation and at the end.
void expect_cache_matches_oracle(const CacheConfig& cfg,
                                 std::uint64_t address_space_lines,
                                 std::uint32_t seed) {
  Cache cache(cfg);
  OracleCache oracle(cfg);

  std::mt19937_64 rng(seed);
  // Mixed stream: bursts of locality (re-touch recent lines, the memo's
  // bread and butter) interleaved with uniform lines and periodic
  // invalidations (the epoch path).
  std::vector<std::uint64_t> recent;
  for (int i = 0; i < 60000; ++i) {
    std::uint64_t line;
    if (!recent.empty() && rng() % 4 != 0) {
      line = recent[rng() % recent.size()];
    } else {
      line = rng() % address_space_lines;
      recent.push_back(line);
      if (recent.size() > 12) recent.erase(recent.begin());
    }
    const bool is_write = rng() % 3 == 0;
    const auto got = cache.access(line, is_write);
    const auto want = oracle.access(line, is_write);
    ASSERT_EQ(got.hit, want.hit) << "access " << i << " line " << line;
    ASSERT_EQ(got.writeback, want.writeback) << "access " << i;
    if (want.writeback) {
      ASSERT_EQ(got.victim_line, want.victim_line) << "access " << i;
    }
    if (i % 9000 == 8999) {
      ASSERT_EQ(cache.resident_lines(), oracle.resident_lines())
          << "access " << i;
      ASSERT_EQ(cache.dirty_lines(), oracle.dirty_lines()) << "access " << i;
      cache.invalidate_all();
      oracle.invalidate_all();
      recent.clear();
    }
  }
  EXPECT_EQ(cache.stats().hits, oracle.hits());
  EXPECT_EQ(cache.stats().misses, oracle.misses());
  EXPECT_EQ(cache.stats().writebacks, oracle.writebacks());
  EXPECT_EQ(cache.resident_lines(), oracle.resident_lines());
  EXPECT_EQ(cache.dirty_lines(), oracle.dirty_lines());
}

class CacheDifferential : public ::testing::TestWithParam<StreamParams> {};

TEST_P(CacheDifferential, MatchesOracleAccessByAccess) {
  const StreamParams p = GetParam();
  expect_cache_matches_oracle(CacheConfig{p.size_bytes, p.line_bytes, p.ways},
                              p.address_space_lines,
                              static_cast<std::uint32_t>(p.seed));
}

INSTANTIATE_TEST_SUITE_P(
    Streams, CacheDifferential,
    ::testing::Values(
        // L1-slice-shaped: 32 B lines, 8 ways.
        StreamParams{24576, 32, 8, 4096, 1},
        // L2-slice-shaped: 16 ways.
        StreamParams{40960, 32, 16, 4096, 2},
        // Tiny, high-conflict: exercises victim choice constantly.
        StreamParams{4 * 64, 64, 2, 64, 3},
        // Direct-mapped degenerate.
        StreamParams{16 * 64, 64, 1, 256, 4},
        // Odd way count (no SIMD tag path), sparse address space.
        StreamParams{6 * 64 * 8, 64, 6, 100000, 5}));

/// One study device's warp-effective hierarchy at one batch concurrency:
/// the real l1_slice_config() / l2_slice_config(c) geometries the kernel
/// runs on.
struct SliceParams {
  std::string name;
  CacheConfig l1;
  CacheConfig l2;
  std::uint32_t seed;
};

/// Names the slice in test listings (the default prints its bytes).
void PrintTo(const SliceParams& p, std::ostream* os) { *os << p.name; }

std::vector<SliceParams> study_slices() {
  std::vector<SliceParams> out;
  std::uint32_t seed = 100;
  for (const simt::DeviceSpec& dev : simt::DeviceSpec::study_devices()) {
    for (const std::uint64_t c : {1, 28, 300, 1500}) {
      out.push_back({dev.slug + "_c" + std::to_string(c),
                     dev.l1_slice_config(), dev.l2_slice_config(c), ++seed});
    }
  }
  return out;
}

std::string slice_name(const ::testing::TestParamInfo<SliceParams>& info) {
  std::string n = info.param.name;
  for (char& ch : n)
    if (ch == '-') ch = '_';
  return n;
}

/// The cache-level oracle on each level of the study slices; the address
/// space is three times the level's capacity, so streams both hit and
/// evict.
class SliceCacheDifferential : public ::testing::TestWithParam<SliceParams> {};

TEST_P(SliceCacheDifferential, BothLevelsMatchOracle) {
  const SliceParams& p = GetParam();
  for (const CacheConfig& cfg : {p.l1, p.l2}) {
    SCOPED_TRACE(cfg.size_bytes);
    expect_cache_matches_oracle(cfg, 3 * cfg.num_lines() + 7, p.seed);
  }
}

INSTANTIATE_TEST_SUITE_P(StudySlices, SliceCacheDifferential,
                         ::testing::ValuesIn(study_slices()), slice_name);

/// Every counter both models expose, plus each level's own stats: the
/// first mismatch is named.
::testing::AssertionResult same_counters(const TieredMemory& mem,
                                         const OracleTiered& o) {
  const TrafficStats& s = mem.stats();
  const struct {
    const char* what;
    std::uint64_t got, want;
  } fields[] = {
      {"accesses", s.accesses, o.accesses_},
      {"lines_touched", s.lines_touched, o.lines_touched_},
      {"l1_hits", s.l1_hits, o.l1_hits_},
      {"l2_hits", s.l2_hits, o.l2_hits_},
      {"l1_evictions", s.l1_evictions, o.l1_evictions_},
      {"l2_evictions", s.l2_evictions, o.l2_evictions_},
      {"hbm_lines", s.hbm_lines, o.hbm_lines_},
      {"hbm_read_bytes", s.hbm_read_bytes, o.hbm_read_bytes_},
      {"hbm_write_bytes", s.hbm_write_bytes, o.hbm_write_bytes_},
      {"l1.hits", mem.l1().stats().hits, o.l1_.hits()},
      {"l1.misses", mem.l1().stats().misses, o.l1_.misses()},
      {"l1.writebacks", mem.l1().stats().writebacks, o.l1_.writebacks()},
      {"l2.hits", mem.l2().stats().hits, o.l2_.hits()},
      {"l2.misses", mem.l2().stats().misses, o.l2_.misses()},
      {"l2.writebacks", mem.l2().stats().writebacks, o.l2_.writebacks()},
  };
  for (const auto& f : fields) {
    if (f.got != f.want)
      return ::testing::AssertionFailure()
             << f.what << " = " << f.got << ", oracle " << f.want;
  }
  return ::testing::AssertionSuccess();
}

/// Occupancy of both levels (O(sets) scans, so checked at phase ends).
::testing::AssertionResult same_occupancy(const TieredMemory& mem,
                                          const OracleTiered& o) {
  const struct {
    const char* what;
    std::uint64_t got, want;
  } fields[] = {
      {"l1.resident", mem.l1().resident_lines(), o.l1_.resident_lines()},
      {"l1.dirty", mem.l1().dirty_lines(), o.l1_.dirty_lines()},
      {"l2.resident", mem.l2().resident_lines(), o.l2_.resident_lines()},
      {"l2.dirty", mem.l2().dirty_lines(), o.l2_.dirty_lines()},
  };
  for (const auto& f : fields) {
    if (f.got != f.want)
      return ::testing::AssertionFailure()
             << f.what << " = " << f.got << ", oracle " << f.want;
  }
  return ::testing::AssertionSuccess();
}

/// The whole hierarchy on the study slices: kernel-shaped random phases
/// (single-line and multi-line accesses, aligned and unaligned wipes)
/// separated by flush() and reset(), with wipes longer than both levels on
/// a pristine hierarchy right after construction, flush() and reset() —
/// the table wipe's fresh-line case — and an unaligned wipe on a pristine
/// hierarchy, which must not take that case.
class TieredCacheDifferential : public ::testing::TestWithParam<SliceParams> {
 protected:
  void SetUp() override {
    const SliceParams& p = GetParam();
    line_ = p.l1.line_bytes;
    // Longer than both levels: every wipe line evicts once L1 is full, and
    // the tail of the wipe evicts its own head from L2.
    wipe_lines_ = p.l1.num_lines() + p.l2.num_lines() * 9 / 8 + 3;
    arena_ = 4 * (p.l1.num_lines() + p.l2.num_lines()) * line_;
    rng_.seed(p.seed);
  }

  void random_phase(TieredMemory& mem, OracleTiered& o, int ops) {
    for (int i = 0; i < ops; ++i) {
      const std::uint64_t addr = rng_() % arena_;
      ServiceLevel got, want;
      switch (rng_() % 7) {
        case 0:
          got = mem.read(addr, 12);
          want = o.access(addr, 12, false, false);
          break;
        case 1:
          got = mem.write(addr, 20);
          want = o.access(addr, 20, true, false);
          break;
        case 2: {
          const std::uint32_t len = 21 + rng_() % 100;
          got = mem.read_range(addr, len);
          want = o.access(addr, len, false, false);
          break;
        }
        case 3:
          got = mem.stream_write(addr, line_);
          want = o.access(addr, line_, true, true);
          break;
        case 4: {  // aligned wipe
          const std::uint64_t base = addr / line_ * line_;
          const std::uint64_t bytes = line_ * (1 + rng_() % 64);
          got = mem.stream_write_range(base, bytes);
          want = o.stream_write_range(base, bytes);
          break;
        }
        case 5: {  // unaligned start and length
          const std::uint64_t bytes = 1 + rng_() % (line_ * 40);
          got = mem.stream_write_range(addr, bytes);
          want = o.stream_write_range(addr, bytes);
          break;
        }
        default:
          got = mem.read(addr, 1);
          want = o.access(addr, 1, false, false);
          break;
      }
      ASSERT_EQ(got, want) << "op " << i;
      ASSERT_TRUE(same_counters(mem, o)) << "op " << i;
    }
    ASSERT_TRUE(same_occupancy(mem, o));
  }

  void wipe(TieredMemory& mem, OracleTiered& o, std::uint64_t addr,
            std::uint64_t bytes) {
    ASSERT_EQ(mem.stream_write_range(addr, bytes),
              o.stream_write_range(addr, bytes));
    ASSERT_TRUE(same_counters(mem, o));
    ASSERT_TRUE(same_occupancy(mem, o));
  }

  void flush(TieredMemory& mem, OracleTiered& o) {
    mem.flush();
    o.flush();
    ASSERT_TRUE(same_counters(mem, o));
    ASSERT_TRUE(same_occupancy(mem, o));
  }

  std::uint64_t line_ = 0;
  std::uint64_t wipe_lines_ = 0;
  std::uint64_t arena_ = 0;
  std::mt19937_64 rng_;
};

TEST_P(TieredCacheDifferential, CountersMatchOracleAcrossFlushAndReset) {
  const SliceParams& p = GetParam();
  TieredMemory mem(p.l1, p.l2);
  OracleTiered o(p.l1, p.l2);
  const std::uint64_t table = 64 * line_;  // a line-aligned table base

  // Construction: a short pristine wipe, then random traffic over it.
  ASSERT_NO_FATAL_FAILURE(wipe(mem, o, table, line_ * 37));
  ASSERT_NO_FATAL_FAILURE(random_phase(mem, o, 3000));

  // flush(): billing, then a pristine wipe longer than both levels.
  ASSERT_NO_FATAL_FAILURE(flush(mem, o));
  ASSERT_NO_FATAL_FAILURE(wipe(mem, o, table, wipe_lines_ * line_));
  ASSERT_NO_FATAL_FAILURE(random_phase(mem, o, 3000));

  // reset(): a fresh oracle; the long pristine wipe again, its length not a
  // multiple of the line (the last chunk is still a full line).
  mem.reset();
  o = OracleTiered(p.l1, p.l2);
  ASSERT_NO_FATAL_FAILURE(
      wipe(mem, o, table + line_, wipe_lines_ * line_ - line_ / 2));
  ASSERT_NO_FATAL_FAILURE(random_phase(mem, o, 3000));

  // A pristine but unaligned wipe: every chunk straddles two lines.
  mem.reset();
  o = OracleTiered(p.l1, p.l2);
  ASSERT_NO_FATAL_FAILURE(
      wipe(mem, o, table + 5, (p.l1.num_lines() * 3 + 1) * line_));
  ASSERT_NO_FATAL_FAILURE(random_phase(mem, o, 3000));
  ASSERT_NO_FATAL_FAILURE(flush(mem, o));
}

INSTANTIATE_TEST_SUITE_P(StudySlices, TieredCacheDifferential,
                         ::testing::ValuesIn(study_slices()), slice_name);

// Whole-hierarchy differential: every counter TieredMemory exposes must
// match the naive model under a kernel-shaped mix of single-line accesses,
// multi-line ranges, streaming wipes and flush-less resets.
TEST(TieredDifferentialTest, CountersMatchOracle) {
  const CacheConfig l1{24576, 32, 8};
  const CacheConfig l2{40960, 32, 16};
  TieredMemory mem(l1, l2);
  OracleTiered oracle(l1, l2);

  std::mt19937_64 rng(20240731);
  const std::uint64_t arena = 1u << 18;
  for (int i = 0; i < 40000; ++i) {
    const std::uint64_t addr = rng() % arena;
    switch (rng() % 6) {
      case 0:
        mem.read(addr, 12);
        oracle.access(addr, 12, false, false);
        break;
      case 1:
        mem.write(addr, 20);
        oracle.access(addr, 20, true, false);
        break;
      case 2: {  // multi-line k-mer-shaped range
        const std::uint32_t len = 21 + rng() % 100;
        mem.read_range(addr, len);
        oracle.access(addr, len, false, false);
        break;
      }
      case 3:
        mem.stream_write(addr, 32);
        oracle.access(addr, 32, true, true);
        break;
      case 4: {  // streaming wipe == per-line stream_write loop
        const std::uint64_t bytes = 32 * (1 + rng() % 64);
        const std::uint64_t base = addr & ~std::uint64_t{31};
        mem.stream_write_range(base, bytes);
        for (std::uint64_t off = 0; off < bytes; off += 32) {
          oracle.access(base + off, 32, true, true);
        }
        break;
      }
      default:
        mem.read(addr, 1);
        oracle.access(addr, 1, false, false);
        break;
    }
    if (i % 4000 == 3999) {
      // A fresh oracle == TieredMemory::reset() (invalidation without
      // writeback billing plus zeroed counters).
      mem.reset();
      oracle = OracleTiered(l1, l2);
    }
  }
  const TrafficStats& s = mem.stats();
  EXPECT_EQ(s.accesses, oracle.accesses_);
  EXPECT_EQ(s.lines_touched, oracle.lines_touched_);
  EXPECT_EQ(s.l1_hits, oracle.l1_hits_);
  EXPECT_EQ(s.l2_hits, oracle.l2_hits_);
  EXPECT_EQ(s.l1_evictions, oracle.l1_evictions_);
  EXPECT_EQ(s.l2_evictions, oracle.l2_evictions_);
  EXPECT_EQ(s.hbm_lines, oracle.hbm_lines_);
  EXPECT_EQ(s.hbm_read_bytes, oracle.hbm_read_bytes_);
  EXPECT_EQ(s.hbm_write_bytes, oracle.hbm_write_bytes_);
  EXPECT_EQ(mem.l1().stats().hits, oracle.l1_.hits());
  EXPECT_EQ(mem.l1().stats().misses, oracle.l1_.misses());
  EXPECT_EQ(mem.l2().stats().hits, oracle.l2_.hits());
  EXPECT_EQ(mem.l2().stats().misses, oracle.l2_.misses());
}

}  // namespace
}  // namespace lassm::memsim
