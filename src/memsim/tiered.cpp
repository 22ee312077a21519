#include "memsim/tiered.hpp"

#include <algorithm>
#include <bit>

namespace lassm::memsim {

TieredMemory::TieredMemory(const CacheConfig& l1, const CacheConfig& l2)
    : l1_(l1), l2_(l2) {
  set_line_bytes(l1.line_bytes);
  stats_.line_bytes = line_bytes_;
}

void TieredMemory::set_line_bytes(std::uint32_t line_bytes) noexcept {
  // The hierarchy transacts at L1-line granularity throughout; an L2 with a
  // different nominal line size is modelled at the same granularity, which
  // keeps byte accounting consistent across levels.
  line_bytes_ = line_bytes;
  line_pow2_ = line_bytes_ != 0 && std::has_single_bit(line_bytes_);
  line_shift_ = line_pow2_
                    ? static_cast<std::uint32_t>(std::countr_zero(line_bytes_))
                    : 0;
}

template <bool UseL1Memo>
ServiceLevel TieredMemory::span_access_impl(std::uint64_t first,
                                            std::uint64_t last, bool is_write,
                                            bool no_fetch) noexcept {
  pristine_ = false;
  ServiceLevel deepest = ServiceLevel::kL1;
  for (std::uint64_t line = first; line <= last; ++line) {
    ++stats_.lines_touched;
    const Cache::AccessResult r1 = UseL1Memo
                                       ? l1_.access(line, is_write)
                                       : l1_.access_slow(line, is_write);
    if (r1.hit) {
      ++stats_.l1_hits;
      continue;
    }
    if (r1.writeback) drain_l1_victim(r1.victim_line);
    // L2 skips the memo: nothing probes it there.
    const Cache::AccessResult r2 = l2_.access_unmemoised(line, is_write);
    if (r2.hit) {
      ++stats_.l2_hits;
      deepest = std::max(deepest, ServiceLevel::kL2);
      continue;
    }
    if (r2.writeback) bill_l2_writeback();
    if (!no_fetch) {
      ++stats_.hbm_lines;
      stats_.hbm_read_bytes += line_bytes_;
    }
    deepest = ServiceLevel::kHbm;
  }
  return deepest;
}

ServiceLevel TieredMemory::span_access(std::uint64_t first, std::uint64_t last,
                                       bool is_write, bool no_fetch) noexcept {
  return span_access_impl<true>(first, last, is_write, no_fetch);
}

ServiceLevel TieredMemory::span_access_cold(std::uint64_t first,
                                            std::uint64_t last, bool is_write,
                                            bool no_fetch) noexcept {
  return span_access_impl<false>(first, last, is_write, no_fetch);
}

void TieredMemory::drain_l1_victim(std::uint64_t victim_line) noexcept {
  // Dirty L1 victim drains into L2; if L2 misses, the writeback goes
  // through to HBM immediately.
  ++stats_.l1_evictions;
  const Cache::AccessResult wb =
      l2_.access_unmemoised(victim_line, /*is_write=*/true);
  if (!wb.hit) bill_l2_writeback();
  if (wb.writeback) bill_l2_writeback();
}

ServiceLevel TieredMemory::stream_write_range(std::uint64_t addr,
                                              std::uint64_t bytes) noexcept {
  if (bytes == 0 || line_bytes_ == 0) return ServiceLevel::kL1;
  ServiceLevel deepest = ServiceLevel::kL1;
  const std::uint64_t chunks = (bytes + line_bytes_ - 1) / line_bytes_;
  if (pristine_ && addr % line_bytes_ == 0) {
    // Fresh-line wipe: with nothing resident at either level and every
    // chunk exactly one line, chunk c stores line first + c, which no
    // earlier chunk touched, so it misses both levels — each level's
    // lookup is replaced by a known-absent insert. The L2 probe for a
    // dirty L1 victim stays a full probe: the victim is an earlier wipe
    // line that L2 may have evicted since.
    pristine_ = false;
    stats_.accesses += chunks;
    stats_.lines_touched += chunks;
    const std::uint64_t first = line_of(addr);
    for (std::uint64_t line = first; line < first + chunks; ++line) {
      const Cache::AccessResult r1 = l1_.insert_absent(line, /*is_write=*/true);
      if (r1.writeback) drain_l1_victim(r1.victim_line);
      if (l2_.insert_absent(line, /*is_write=*/true).writeback)
        bill_l2_writeback();
    }
    return ServiceLevel::kHbm;  // a streaming store that missed L2
  }
  std::uint64_t a = addr;
  for (std::uint64_t c = 0; c < chunks; ++c, a += line_bytes_) {
    // One logical access per line-sized chunk, like the loop this replaces.
    // Cold span: a wipe never revisits a line it just memoised (successive
    // chunks touch strictly increasing lines), so the memo probe is skipped.
    ++stats_.accesses;
    const std::uint64_t first = line_of(a);
    const std::uint64_t last = line_of(a + line_bytes_ - 1);
    deepest = std::max(deepest, span_access_cold(first, last, /*is_write=*/true,
                                                 /*no_fetch=*/true));
  }
  return deepest;
}

void TieredMemory::reset() noexcept {
  l1_.invalidate_all();
  l2_.invalidate_all();
  l1_.reset_stats();
  l2_.reset_stats();
  stats_ = {};
  stats_.line_bytes = line_bytes_;
  pristine_ = true;
}

void TieredMemory::reshape(const CacheConfig& l1, const CacheConfig& l2) {
  l1_.reshape(l1);
  l2_.reshape(l2);
  set_line_bytes(l1.line_bytes);
  stats_ = {};
  stats_.line_bytes = line_bytes_;
  pristine_ = true;
}

void TieredMemory::flush() noexcept {
  // Dirty L1 lines drain to L2. With write-allocate at both levels a dirty
  // L1 line is resident in L2 unless L2 has evicted it since; treating all
  // of them as L2 hits is a small, documented approximation that avoids
  // exposing line enumeration from Cache.
  const std::uint64_t l1_dirty = l1_.dirty_lines();
  stats_.l1_evictions += l1_dirty;  // absorbed by L2; no HBM traffic here
  const std::uint64_t l2_dirty = l2_.dirty_lines();
  stats_.hbm_write_bytes += l2_dirty * line_bytes_;
  stats_.l2_evictions += l2_dirty;
  l1_.invalidate_all();
  l2_.invalidate_all();
  pristine_ = true;
}

}  // namespace lassm::memsim
