#pragma once

#include <cassert>
#include <cstdint>

#include "memsim/cache.hpp"

namespace lassm::memsim {

/// Which level of the hierarchy serviced an access (worst line of the
/// access, i.e. the deepest level any of its lines had to reach).
enum class ServiceLevel : std::uint8_t { kL1 = 0, kL2 = 1, kHbm = 2 };

/// Aggregate traffic counters for one hierarchy.
struct TrafficStats {
  std::uint64_t accesses = 0;        ///< logical accesses (read/write calls)
  std::uint64_t lines_touched = 0;   ///< line-granular probes into L1
  std::uint32_t line_bytes = 0;      ///< transaction granularity
  std::uint64_t l1_hits = 0;
  std::uint64_t l2_hits = 0;
  std::uint64_t l1_evictions = 0;    ///< dirty L1 victim lines drained to L2
  std::uint64_t l2_evictions = 0;    ///< dirty lines written back to HBM
                                     ///< (invariant: * line_bytes ==
                                     ///< hbm_write_bytes)
  std::uint64_t hbm_lines = 0;       ///< line fills from HBM
  std::uint64_t hbm_read_bytes = 0;
  std::uint64_t hbm_write_bytes = 0; ///< writebacks reaching HBM

  std::uint64_t hbm_bytes() const noexcept {
    return hbm_read_bytes + hbm_write_bytes;
  }
  /// Bytes serviced by L1 (every line-granular probe).
  std::uint64_t l1_bytes() const noexcept {
    return lines_touched * line_bytes;
  }
  /// Bytes that had to be serviced below L1 (L2 traffic).
  std::uint64_t l2_bytes() const noexcept {
    return (lines_touched - l1_hits) * line_bytes;
  }
  /// Merges another hierarchy's counters into this one.
  ///
  /// Invariant: merged hierarchies must transact at the same line
  /// granularity — the byte-derived counters (l1_bytes, l2_bytes,
  /// hbm_*_bytes) are meaningless across mixed line sizes. A zero
  /// line_bytes (default-constructed accumulator, or a hierarchy that
  /// never transacted) adopts the other side's value; a genuine mismatch
  /// asserts in debug builds and keeps the first non-zero value in
  /// release builds.
  void add(const TrafficStats& o) noexcept {
    assert(line_bytes == 0 || o.line_bytes == 0 ||
           line_bytes == o.line_bytes);
    if (line_bytes == 0) line_bytes = o.line_bytes;
    accesses += o.accesses;
    lines_touched += o.lines_touched;
    l1_hits += o.l1_hits;
    l2_hits += o.l2_hits;
    l1_evictions += o.l1_evictions;
    l2_evictions += o.l2_evictions;
    hbm_lines += o.hbm_lines;
    hbm_read_bytes += o.hbm_read_bytes;
    hbm_write_bytes += o.hbm_write_bytes;
  }
};

/// A two-level cache hierarchy over HBM, operating on byte ranges.
///
/// This is used in two configurations:
///  * device-level: full L1 (one slice per CU is modelled by the caller
///    choosing which hierarchy to route an access through), full L2;
///  * warp-effective: the SIMT runtime gives each warp a private hierarchy
///    whose capacities are the per-warp *fair share* of L1 and L2 given the
///    number of concurrently resident warps. This models the capacity
///    pressure of concurrent execution without simulating interleaving,
///    keeping runs deterministic (see DESIGN.md).
///
/// Hot path: the single-line access (the kernel's key/value/entry touches
/// and most k-mer byte fetches) first consults the L1 cache's last-line
/// memo inline — a repeat of a just-touched line resolves without entering
/// the per-line machinery at all, with identical counters (see DESIGN.md
/// "Hot path & equivalence contract").
class TieredMemory {
 public:
  TieredMemory(const CacheConfig& l1, const CacheConfig& l2);

  /// Reads `size` bytes at simulated address `addr`. Returns the deepest
  /// level touched.
  ServiceLevel read(std::uint64_t addr, std::uint32_t size) noexcept {
    return access(addr, size, /*is_write=*/false);
  }

  /// Writes `size` bytes (write-allocate; dirty data reaches HBM on
  /// eviction, counted as hbm_write_bytes).
  ServiceLevel write(std::uint64_t addr, std::uint32_t size) noexcept {
    return access(addr, size, /*is_write=*/true);
  }

  ServiceLevel access(std::uint64_t addr, std::uint32_t size,
                      bool is_write) noexcept {
    return access(addr, size, is_write, /*no_fetch=*/false);
  }

  /// Full-line streaming store (memset-style): on a miss the line is
  /// allocated dirty without fetching it from HBM, as GPU write-combining
  /// stores do. Partial lines still behave like write-allocate.
  ServiceLevel stream_write(std::uint64_t addr, std::uint32_t size) noexcept {
    return access(addr, size, /*is_write=*/true, /*no_fetch=*/true);
  }

  ServiceLevel access(std::uint64_t addr, std::uint32_t size, bool is_write,
                      bool no_fetch) noexcept {
    ++stats_.accesses;
    if (size == 0) return ServiceLevel::kL1;
    const std::uint64_t first = line_of(addr);
    const std::uint64_t last = line_of(addr + size - 1);
    if (first == last) {
      if (l1_.memo_probe(first, is_write)) {
        ++stats_.lines_touched;
        ++stats_.l1_hits;
        return ServiceLevel::kL1;
      }
      return span_access_cold(first, first, is_write, no_fetch);
    }
    return span_access(first, last, is_write, no_fetch);
  }

  /// Bulk read of `bytes` bytes as ONE logical access (identical accounting
  /// to read(), but sized for multi-line ranges): every covered line is
  /// probed, the deepest level touched is returned. Use for contiguous
  /// multi-line reads (k-mer spans, record scans) instead of hand-rolled
  /// per-line loops.
  ServiceLevel read_range(std::uint64_t addr, std::uint64_t bytes) noexcept {
    ++stats_.accesses;
    if (bytes == 0) return ServiceLevel::kL1;
    const std::uint64_t first = line_of(addr);
    const std::uint64_t last = line_of(addr + bytes - 1);
    if (first == last) {
      if (l1_.memo_probe(first, /*is_write=*/false)) {
        ++stats_.lines_touched;
        ++stats_.l1_hits;
        return ServiceLevel::kL1;
      }
      return span_access_cold(first, first, /*is_write=*/false,
                              /*no_fetch=*/false);
    }
    return span_access(first, last, /*is_write=*/false, /*no_fetch=*/false);
  }

  /// Bulk streaming wipe: exactly equivalent (same TrafficStats, same
  /// ServiceLevel result, same cache state) to the line-granular store loop
  ///
  ///   for (off = 0; off < bytes; off += line_bytes())
  ///     stream_write(addr + off, line_bytes());
  ///
  /// which is how the kernel's table (re-)initialisation billed its slab
  /// wipe: one logical access per line-sized chunk, each chunk a full-line
  /// streaming store (the final chunk is a full line even when `bytes` is
  /// not line-aligned, matching that loop). `bytes == 0` performs nothing.
  /// A line-aligned wipe of a pristine hierarchy (nothing resident since
  /// construction, reset(), reshape() or flush()) — a task's first table
  /// wipe — inserts its lines as known-absent, with no tag scan.
  ServiceLevel stream_write_range(std::uint64_t addr,
                                  std::uint64_t bytes) noexcept;

  /// Flushes dirty L1+L2 lines, counting their writebacks to HBM (called at
  /// kernel end so short kernels are not under-billed for stores).
  void flush() noexcept;

  /// Transient service interruption (the fault-injection mem-stall seam):
  /// models the tier dropping its cached state mid-kernel. Dirty lines are
  /// written back (billed like flush()) and both levels are invalidated, so
  /// every subsequent access re-fetches from HBM. Counters keep
  /// accumulating across the interruption — the perturbation is visible in
  /// the task's traffic, which is the point.
  void fault_interrupt() noexcept { flush(); }

  /// Returns the hierarchy to its just-constructed state: all lines
  /// invalidated (without billing writebacks) and all counters zeroed.
  /// Lets a pooled warp context reuse one hierarchy across tasks instead of
  /// reallocating the set arrays per task; a reset hierarchy is
  /// indistinguishable from a freshly constructed one.
  void reset() noexcept;

  /// Re-shapes both levels to new geometries, ending in the state a fresh
  /// `TieredMemory(l1, l2)` starts in, while reusing the set slabs'
  /// allocations (a pooled warp context moving to a new batch concurrency).
  void reshape(const CacheConfig& l1, const CacheConfig& l2);

  const TrafficStats& stats() const noexcept { return stats_; }
  const Cache& l1() const noexcept { return l1_; }
  const Cache& l2() const noexcept { return l2_; }
  std::uint32_t line_bytes() const noexcept { return line_bytes_; }

 private:
  /// Line index of a byte address (shift when the line size is a power of
  /// two — it always is for the modelled devices — else divide).
  std::uint64_t line_of(std::uint64_t addr) const noexcept {
    return line_pow2_ ? addr >> line_shift_ : addr / line_bytes_;
  }

  /// The per-line probe loop over [first, last]; the inline fast path above
  /// peels off single-line repeats of the memoised L1 lines. The cold
  /// variant skips the per-line L1 memo probe — bit-identical results (the
  /// memo is a pure shortcut; the full probe handles memoised lines the
  /// same way), used where the memo is known useless: a single line whose
  /// memo probe just missed, or a streaming wipe over fresh lines.
  ServiceLevel span_access(std::uint64_t first, std::uint64_t last,
                           bool is_write, bool no_fetch) noexcept;
  ServiceLevel span_access_cold(std::uint64_t first, std::uint64_t last,
                                bool is_write, bool no_fetch) noexcept;
  template <bool UseL1Memo>
  ServiceLevel span_access_impl(std::uint64_t first, std::uint64_t last,
                                bool is_write, bool no_fetch) noexcept;
  /// A dirty L1 victim's write into L2, with its HBM billing.
  void drain_l1_victim(std::uint64_t victim_line) noexcept;
  void bill_l2_writeback() noexcept {
    stats_.hbm_write_bytes += line_bytes_;
    ++stats_.l2_evictions;
  }
  void set_line_bytes(std::uint32_t line_bytes) noexcept;

  Cache l1_;
  Cache l2_;
  std::uint32_t line_bytes_ = 0;
  std::uint32_t line_shift_ = 0;
  bool line_pow2_ = false;
  /// Nothing resident at either level: set by construction, reset(),
  /// reshape() and flush(), cleared by the first line any access touches.
  bool pristine_ = true;
  TrafficStats stats_;
};

/// Bump allocator for simulated device addresses. Allocations are aligned
/// and never freed (kernel-lifetime arenas), matching how the GPU code
/// reserves read buffers and hash-table slabs up front.
class AddressSpace {
 public:
  /// Base > 0 so that address 0 can mean "unassigned" in debug checks.
  explicit AddressSpace(std::uint64_t base = 0x1000) : next_(base) {}

  std::uint64_t allocate(std::uint64_t bytes, std::uint64_t align = 64) noexcept {
    next_ = (next_ + align - 1) / align * align;
    const std::uint64_t addr = next_;
    next_ += bytes;
    return addr;
  }

  std::uint64_t bytes_allocated() const noexcept { return next_; }

 private:
  std::uint64_t next_;
};

}  // namespace lassm::memsim
