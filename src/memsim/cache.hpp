#pragma once

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

/// Cache and memory-hierarchy simulation.
///
/// The paper's entire cross-vendor analysis reduces to how the local
/// assembly working set (per-contig hash tables + read buffers) interacts
/// with each GPU's cache capacities (Table III: A100 40 MB L2, MI250X
/// 8 MB/die, Max 1550 204 MB/tile). We therefore simulate capacity and
/// associativity faithfully and count HBM traffic exactly; latencies are
/// applied later by the SIMT performance model.
namespace lassm::memsim {

struct CacheConfig {
  std::uint64_t size_bytes = 0;  ///< total capacity
  std::uint32_t line_bytes = 64; ///< line (transaction) granularity
  std::uint32_t ways = 8;        ///< associativity; clamped to [1, 16]

  std::uint64_t num_lines() const noexcept {
    return line_bytes == 0 ? 0 : size_bytes / line_bytes;
  }

  /// Rejects configurations the simulator cannot model: zero or
  /// non-power-of-two line size, zero or non-power-of-two associativity
  /// outside the supported [1, 16] (the packed-recency fast paths assume
  /// power-of-two geometry). Returns true when well-formed; callers that
  /// need a message use DeviceSpec::validate, which checks its slices.
  bool well_formed() const noexcept {
    const auto pow2 = [](std::uint64_t v) {
      return v != 0 && (v & (v - 1)) == 0;
    };
    return pow2(line_bytes) && pow2(ways) && ways <= 16;
  }
};

struct CacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t writebacks = 0;  ///< dirty lines evicted

  std::uint64_t accesses() const noexcept { return hits + misses; }
  double hit_rate() const noexcept {
    const auto a = accesses();
    return a == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(a);
  }
};

/// Set-associative, write-back, write-allocate cache with true-LRU
/// replacement. Operates on line addresses (byte address / line size is the
/// caller's job via TieredMemory). A zero-capacity config degenerates to a
/// cache that misses every access — useful for "no cache" ablations.
///
/// Hot-path layout (see DESIGN.md "Hot path & equivalence contract"): all
/// per-set metadata — 32-bit tags, a packed-nibble recency permutation,
/// valid/dirty bytes and the fill count — lives in one contiguous
/// 64-byte-aligned block per set (a single host cache line at 8 ways), and
/// a 64-entry last-line memo short-circuits accesses that repeat
/// recently touched lines — the dominant pattern (sequential k-mer/quality
/// bytes, key-then-value touches of one hash-table entry).
///
/// Recency is not kept as per-way timestamps but as one 64-bit word per set
/// holding the ways as 4-bit digits in most-recent-first order; every touch
/// rotates the touched way to the front with a few word-sized bit
/// operations, and the true-LRU victim is read off the tail digit in O(1)
/// instead of a scan. This packing is why associativity caps at 16.
/// Invalidation is epoch-based (see epoch_), and a running dirty-line count
/// is kept, so per-task flushes cost O(1) rather than a metadata memset and
/// a slab scan.
///
/// The probe exploits a replacement invariant: victims always prefer the
/// lowest-index invalid way and single lines are never invalidated, so the
/// valid ways of a set are exactly the prefix [0, fill). The tag scan
/// therefore needs no validity checks: one packed compare over all ways
/// with the ways at or past `fill` masked off, the same branch-free code
/// for full and filling sets; and while a set is still filling the victim
/// is just index `fill` — no scan at all. Every fast path is exactly
/// equivalent to the full probe: same stats, same recency order, same
/// victim choices.
class Cache {
 public:
  explicit Cache(const CacheConfig& cfg);

  struct AccessResult {
    bool hit = false;
    bool writeback = false;            ///< a dirty victim was evicted
    std::uint64_t victim_line = 0;     ///< line address of the victim
  };

  /// Touches one line. On miss the line is allocated (evicting LRU).
  AccessResult access(std::uint64_t line_addr, bool is_write) noexcept {
    if (memo_probe(line_addr, is_write)) return AccessResult{true, false, 0};
    return access_slow(line_addr, is_write);
  }

  /// Full probe that skips the memo shortcut. The memo is a pure
  /// optimisation — access_slow() on a memoised line takes the ordinary hit
  /// path and produces identical stats, recency order and memo state — so
  /// callers that know the memo cannot hit (streaming wipes over fresh
  /// lines, a single-line access whose memo probe already missed) may call
  /// this directly to skip the redundant compares.
  AccessResult access_slow(std::uint64_t line_addr, bool is_write) noexcept;

  /// Full probe that neither consults nor fills the memo, for a level
  /// whose memo no caller probes (the L2 of TieredMemory). Identical stats,
  /// recency order and victims to access_slow(): the memo only ever
  /// shortcuts a hit the full probe would find, and its entries are
  /// revalidated by tag, so one left unfilled or stale is never wrong.
  AccessResult access_unmemoised(std::uint64_t line_addr,
                                 bool is_write) noexcept;

  /// Allocates a line the caller knows is not resident: exactly what a
  /// missing access_unmemoised() does (miss counted, same victim, same
  /// writeback), minus the tag scan. Calling it for a resident line is a
  /// contract violation (asserted in debug builds).
  AccessResult insert_absent(std::uint64_t line_addr, bool is_write) noexcept;

  /// Memo-only probe: returns true iff `line_addr` is memoised as recently
  /// touched *and* still resident in its memoised way. A memo hit performs
  /// *exactly* what a hitting access() would: it rotates the way to the
  /// front of its set's recency permutation and merges the dirty bit — so
  /// taking this path can never change any later replacement decision.
  /// Returns false (and counts nothing) otherwise.
  bool memo_probe(std::uint64_t line_addr, bool is_write) noexcept {
    // Direct-mapped; entries are validated against the live tag, so stores
    // never have to hunt down stale entries (and a slot that was
    // overwritten for a colliding line simply misses here).
    const unsigned slot = memo_slot(line_addr);
    if (memo_line_[slot] != line_addr) return false;
    // Staleness check: the memoised way may have been refilled with another
    // line since. Tags cannot alias (line addresses fit 32 bits, asserted
    // in block_of), so tag equality proves the line is still resident in
    // exactly that way — a full probe would hit it and rotate the same
    // set's recency word. An empty slot holds the poison line, so
    // the pointers are only dereferenced when valid.
    if (*memo_tag_[slot] != static_cast<std::uint32_t>(line_addr))
      return false;
    *memo_perm_[slot] = recency_touch(*memo_perm_[slot], memo_way_[slot]);
    mark_touched(*memo_state_[slot], is_write);
    ++stats_.hits;
    return true;
  }

  /// The memo holds pointers into the metadata slab, which survive a move
  /// (the vector's heap buffer transfers) but not a copy — so copying is
  /// disabled.
  Cache(const Cache&) = delete;
  Cache& operator=(const Cache&) = delete;
  Cache(Cache&&) = default;
  Cache& operator=(Cache&&) = default;

  /// Removes all lines (e.g. between kernel launches); keeps stats.
  void invalidate_all() noexcept;

  /// Re-shapes the cache to `cfg` with empty lines and zeroed stats —
  /// indistinguishable from `Cache(cfg)` — reusing the metadata slab's
  /// allocation instead of building a new one.
  void reshape(const CacheConfig& cfg);

  const CacheConfig& config() const noexcept { return cfg_; }
  const CacheStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = {}; }

  /// Number of valid lines currently resident (for occupancy tests).
  std::uint64_t resident_lines() const noexcept;

  /// Number of resident dirty lines (pending writebacks). O(1): a running
  /// count kept by every access and reset by invalidation.
  std::uint64_t dirty_lines() const noexcept { return dirty_; }

 private:
  static constexpr std::uint8_t kStateValid = 1;
  static constexpr std::uint8_t kStateDirty = 2;
  /// Memo capacity: at the 32 B line granularity of the modelled L1 slices
  /// one lane's inner step cycles through up to ~10 hot lines at k = 77
  /// (four k-mer lines, four quality lines, the hash-entry line, the walk
  /// buffer), and a lockstep round interleaves those of up to 32 lanes —
  /// the entry line a lane probed is written again by its vote after every
  /// other lane's probe. Sixty-four direct-mapped slots halve the memo
  /// misses that still hit L1 against sixteen (on paper_grid, A100 13.0 M
  /// to 6.1 M, Max 1550 10.8 M to 4.3 M), while probe and store stay a
  /// handful of instructions and memo_clear() stays cheap per task.
  static constexpr unsigned kMemoEntries = 64;
  /// Poison line address for empty memo entries: unreachable because line
  /// addresses are byte addresses divided by the line size.
  static constexpr std::uint64_t kNoLine = ~std::uint64_t{0};

  /// Memo slot of a line. Multiplicative (golden-ratio) hash rather than
  /// the low bits: the kernel walks several arrays in lockstep whose base
  /// addresses sit whole power-of-two arenas apart, so their line numbers
  /// collide modulo any small power of two — low-bit indexing made every
  /// k-mer fetch and its quality fetch evict each other's slot. The
  /// multiply costs ~3 cycles and spreads any fixed stride.
  static unsigned memo_slot(std::uint64_t line_addr) noexcept {
    constexpr unsigned kShift = 64 - std::bit_width(kMemoEntries - 1);
    return static_cast<unsigned>((line_addr * 0x9E3779B97F4A7C15ULL) >>
                                 kShift);
  }

  static constexpr std::uint32_t kNoWay = ~std::uint32_t{0};

  /// Way of the valid prefix [0, fill) holding `tag`, or kNoWay.
  static std::uint32_t scan_tags(const std::uint32_t* tags,
                                 std::uint32_t ways, std::uint32_t fill,
                                 std::uint32_t tag) noexcept;

  /// Identity recency permutation: way i at rank i (rank 0 = most recent).
  static constexpr std::uint64_t kIdentityPerm = 0xFEDCBA9876543210ULL;

  /// A hit's state update: valid, plus dirty on a write; counts a clean
  /// line turning dirty.
  void mark_touched(std::uint8_t& state, bool is_write) noexcept {
    const std::uint8_t add = is_write ? kStateDirty : 0;
    dirty_ += (add & ~state) >> 1;  // kStateDirty == 2
    state |= static_cast<std::uint8_t>(add | kStateValid);
  }

  /// Rotates `way` to rank 0 of a recency permutation, shifting the ways
  /// that were more recent down one rank; less recent ways are untouched.
  /// Branch-free word arithmetic: locate the way's digit (XOR against the
  /// way broadcast to every digit leaves exactly one zero digit; the
  /// borrow trick flags it — false positives can only appear *above* the
  /// true digit, so the lowest flagged bit is the right one), then splice.
  static std::uint64_t recency_touch(std::uint64_t perm,
                                     std::uint32_t way) noexcept {
    // Repeated touches of the hottest line leave the permutation alone —
    // worth a predictable branch, since memo-hit streams re-touch the
    // front way almost every time.
    if ((perm & 0xF) == way) return perm;
    constexpr std::uint64_t kOnes = 0x1111111111111111ULL;
    const std::uint64_t x = perm ^ (kOnes * way);
    const std::uint64_t zero =
        (x - kOnes) & ~x & (kOnes << 3);  // bit 3 of each zero digit
    // Every bit below the way's digit, from its lowest flag (one bit
    // isolation and a shift: shorter than a count-trailing-zeros chain).
    const std::uint64_t below = ((zero & (~zero + 1)) >> 3) - 1;
    return ((perm & below) << 4) | (perm & ~((below << 4) | 0xF)) | way;
  }

  /// Per-set metadata block accessors. Block layout (64-byte aligned,
  /// stride_u64_ * 8 bytes): 32-bit tags[ways], then the recency
  /// permutation word, then state bytes [ways] followed by the set's fill
  /// count byte.
  std::uint64_t* set_block(std::uint64_t set) noexcept {
    return meta_ + set * stride_u64_;
  }
  const std::uint64_t* set_block(std::uint64_t set) const noexcept {
    return meta_ + set * stride_u64_;
  }
  static std::uint32_t* block_tags(std::uint64_t* blk) noexcept {
    return reinterpret_cast<std::uint32_t*>(blk);
  }
  std::uint64_t* block_perm(std::uint64_t* blk) const noexcept {
    return blk + perm_off_u64_;
  }
  std::uint8_t* block_state(std::uint64_t* blk) const noexcept {
    return reinterpret_cast<std::uint8_t*>(blk + state_off_u64_);
  }
  std::uint8_t& block_fill(std::uint64_t* blk) const noexcept {
    return block_state(blk)[ways_];
  }
  std::uint8_t& block_epoch(std::uint64_t* blk) const noexcept {
    return block_state(blk)[ways_ + 1];
  }

  /// Records that `line_addr` now resides in the given way of the set
  /// whose block is given. Pure stores — no scan, no loads: a colliding
  /// slot is simply overwritten, and any other slot that still points at
  /// this way goes stale, which the probe's tag check detects. (An earlier
  /// scan-based store was the single hottest instruction sequence in the
  /// simulator: its vectorised reloads of just-stored entries caused
  /// store-forwarding stalls on every miss.)
  void memo_store(std::uint64_t line_addr, std::uint64_t* blk,
                  std::uint32_t way) noexcept {
    const unsigned slot = memo_slot(line_addr);
    memo_line_[slot] = line_addr;
    memo_tag_[slot] = &block_tags(blk)[way];
    memo_perm_[slot] = block_perm(blk);
    memo_state_[slot] = &block_state(blk)[way];
    memo_way_[slot] = static_cast<std::uint8_t>(way);
  }

  /// Sizes the slab for `cfg` and empties it (construction and reshape).
  void configure(const CacheConfig& cfg);

  /// Set block a line maps to.
  std::uint64_t* block_of(std::uint64_t line_addr) noexcept;

  /// Probe body shared by access_slow() (kMemo: fills the memo) and
  /// access_unmemoised().
  template <bool kMemo>
  AccessResult lookup(std::uint64_t line_addr, bool is_write) noexcept;

  /// Miss path: picks the victim in the block's set (next unfilled way,
  /// else the LRU way), bills a dirty victim and installs the line there.
  /// Returns the way.
  std::uint32_t allocate(std::uint64_t* blk, std::uint32_t fill,
                         std::uint32_t tag32, bool is_write,
                         AccessResult& result) noexcept;

  void memo_clear() noexcept {
    for (unsigned i = 0; i < kMemoEntries; ++i) {
      memo_line_[i] = kNoLine;
      memo_tag_[i] = nullptr;
      memo_perm_[i] = nullptr;
      memo_state_[i] = nullptr;
      memo_way_[i] = 0;
    }
  }

  CacheConfig cfg_;
  std::uint32_t num_sets_ = 0;
  std::uint32_t ways_ = 0;
  /// Current invalidation epoch: a set whose epoch byte disagrees is
  /// logically empty (fill 0), which makes invalidate_all() an O(1) epoch
  /// bump instead of a slab-wide memset; the slab is really zeroed only
  /// when the 8-bit epoch wraps. Stale sets carry garbage tags/state, but
  /// probes never look past fill and refills overwrite before reading
  /// (the victim's state byte is only consulted for full sets).
  std::uint8_t epoch_ = 0;
  std::uint32_t stride_u64_ = 0;     ///< per-set block size in u64 words
  std::uint32_t perm_off_u64_ = 0;   ///< offset of the recency word
  std::uint32_t state_off_u64_ = 0;  ///< offset of the state row in a block
  std::vector<std::uint64_t> meta_storage_;  ///< raw backing (+alignment pad)
  std::uint64_t* meta_ = nullptr;            ///< 64-byte-aligned block base
  /// Resident dirty lines (see dirty_lines()).
  std::uint64_t dirty_ = 0;
  /// Last-line memo (direct-mapped through memo_slot's multiplicative
  /// hash), poisoned by memo_clear() in the constructor. A non-poison
  /// entry's pointers address the tag/recency/state slots of the way its
  /// line occupied when stored; the probe revalidates via the tag, so
  /// entries may go stale but are never wrong. Empty entries hold the
  /// poison line and null pointers (never dereferenced — poison cannot
  /// match a probe).
  alignas(64) std::uint64_t memo_line_[kMemoEntries];
  std::uint32_t* memo_tag_[kMemoEntries];
  std::uint64_t* memo_perm_[kMemoEntries];
  std::uint8_t* memo_state_[kMemoEntries];
  std::uint8_t memo_way_[kMemoEntries];
  CacheStats stats_;
};

// Hot-path definitions, inline so TieredMemory's per-line loops compile
// them in place.

/// Tag scan over the valid prefix [0, fill) of a set. At most one way can
/// hold the tag, so any scan order gives the same answer. The SSE2 form
/// compares every way, four at a time, packs the results into a bitmask,
/// masks off the ways at or past `fill` (they hold stale tags that must not
/// match) and takes the unique remaining bit: the same branch-free code for
/// full and filling sets, where the portable prefix loop's exit mispredicts
/// while large slices fill. Loads past `ways` stay inside the set's block
/// (the recency word follows the tags), and their lanes are masked off.
inline std::uint32_t Cache::scan_tags(const std::uint32_t* tags,
                                      std::uint32_t ways, std::uint32_t fill,
                                      std::uint32_t tag) noexcept {
#if defined(__SSE2__)
  const __m128i needle = _mm_set1_epi32(static_cast<int>(tag));
  std::uint32_t mask = 0;
  for (std::uint32_t w = 0; w < ways; w += 4) {
    const __m128i eq = _mm_cmpeq_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(tags + w)), needle);
    mask |= static_cast<std::uint32_t>(_mm_movemask_ps(_mm_castsi128_ps(eq)))
            << w;
  }
  mask &= (std::uint32_t{1} << fill) - 1;  // fill <= 16
  return mask ? static_cast<std::uint32_t>(std::countr_zero(mask)) : kNoWay;
#else
  (void)ways;
  std::uint32_t hit = kNoWay;
  for (std::uint32_t w = 0; w < fill; ++w) {
    if (tags[w] == tag) hit = w;
  }
  return hit;
#endif
}

inline std::uint64_t* Cache::block_of(std::uint64_t line_addr) noexcept {
  // Tags are stored as 32 bits: simulated line addresses stay far below
  // 2^32 (bump-allocated byte addresses divided by the line size).
  assert(line_addr <= 0xFFFFFFFFull);
  // Mix the line address before set selection so that power-of-two strides
  // (hash-table entries are power-of-two sized) do not alias into one set.
  std::uint64_t mixed = line_addr * 0x9e3779b97f4a7c15ULL;
  mixed ^= mixed >> 29;
  return set_block(mixed & (num_sets_ - 1));
}

inline std::uint32_t Cache::allocate(std::uint64_t* blk, std::uint32_t fill,
                                     std::uint32_t tag32, bool is_write,
                                     AccessResult& result) noexcept {
  std::uint32_t* tags = block_tags(blk);
  std::uint64_t* perm = block_perm(blk);
  std::uint8_t* state = block_state(blk);
  ++stats_.misses;
  // Choose victim: the next unfilled way while the set is filling (the
  // lowest-index invalid way, as in the pre-SoA implementation), else the
  // tail digit of the recency permutation — the true LRU way in O(1).
  // Once a set is full every way has been touched at least once, so the
  // recency order is a total order and the tail equals the least-recent
  // timestamp argmin of the pre-SoA implementation exactly (timestamps
  // were distinct, so its lowest-index tie-break never fired).
  std::uint32_t victim;
  const std::uint64_t p = *perm;
  if (fill < ways_) {
    // Filling an invalid way can never evict: its state byte is zero in a
    // freshly zeroed slab and garbage after an epoch-based invalidation,
    // so it must not be consulted — the writeback check lives in the
    // full-set branch only (identical outcome to the memset-based
    // implementation, which always found state 0 here).
    victim = fill;
    block_fill(blk) = static_cast<std::uint8_t>(fill + 1);
    block_epoch(blk) = epoch_;
    *perm = recency_touch(p, victim);
  } else {
    const unsigned tail = (ways_ - 1) * 4;
    victim = static_cast<std::uint32_t>(p >> tail) & 0xF;
    if ((state[victim] & (kStateValid | kStateDirty)) ==
        (kStateValid | kStateDirty)) {
      ++stats_.writebacks;
      --dirty_;
      result.writeback = true;
      result.victim_line = tags[victim];
    }
    // recency_touch() of the tail digit, whose position is known: ranks
    // [0, ways - 1) move down one, the victim takes rank 0.
    const std::uint64_t below = (std::uint64_t{1} << tail) - 1;
    *perm = ((p & below) << 4) | (p & ~((below << 4) | 0xF)) | victim;
  }
  tags[victim] = tag32;
  state[victim] = static_cast<std::uint8_t>(
      is_write ? (kStateValid | kStateDirty) : kStateValid);
  dirty_ += is_write ? 1 : 0;
  return victim;
}

template <bool kMemo>
inline Cache::AccessResult Cache::lookup(std::uint64_t line_addr,
                                         bool is_write) noexcept {
  AccessResult result;
  if (num_sets_ == 0) {
    ++stats_.misses;
    return result;  // capacity 0: every access misses, nothing cached
  }
  std::uint64_t* blk = block_of(line_addr);
  // A set from a previous invalidation epoch is logically empty.
  const std::uint32_t fill =
      block_epoch(blk) == epoch_ ? block_fill(blk) : 0;
  const std::uint32_t tag32 = static_cast<std::uint32_t>(line_addr);
  const std::uint32_t hit_way = scan_tags(block_tags(blk), ways_, fill, tag32);
  std::uint32_t way;
  if (hit_way != kNoWay) {
    std::uint64_t* perm = block_perm(blk);
    *perm = recency_touch(*perm, hit_way);
    mark_touched(block_state(blk)[hit_way], is_write);
    ++stats_.hits;
    result.hit = true;
    way = hit_way;
  } else {
    way = allocate(blk, fill, tag32, is_write, result);
  }
  if constexpr (kMemo) memo_store(line_addr, blk, way);
  return result;
}

inline Cache::AccessResult Cache::access_slow(std::uint64_t line_addr,
                                              bool is_write) noexcept {
  return lookup<true>(line_addr, is_write);
}

inline Cache::AccessResult Cache::access_unmemoised(std::uint64_t line_addr,
                                                    bool is_write) noexcept {
  return lookup<false>(line_addr, is_write);
}

inline Cache::AccessResult Cache::insert_absent(std::uint64_t line_addr,
                                                bool is_write) noexcept {
  AccessResult result;
  if (num_sets_ == 0) {
    ++stats_.misses;
    return result;
  }
  std::uint64_t* blk = block_of(line_addr);
  const std::uint32_t fill =
      block_epoch(blk) == epoch_ ? block_fill(blk) : 0;
  const std::uint32_t tag32 = static_cast<std::uint32_t>(line_addr);
  assert(scan_tags(block_tags(blk), ways_, fill, tag32) == kNoWay);
  allocate(blk, fill, tag32, is_write, result);
  return result;
}

}  // namespace lassm::memsim
