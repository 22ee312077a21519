#include "memsim/cache.hpp"

#include <algorithm>
#include <bit>

namespace lassm::memsim {

namespace {
/// Largest power of two <= x (0 maps to 0).
std::uint64_t floor_pow2(std::uint64_t x) noexcept {
  return x == 0 ? 0 : std::uint64_t{1} << (63 - std::countl_zero(x));
}

}  // namespace

Cache::Cache(const CacheConfig& cfg) { configure(cfg); }

void Cache::reshape(const CacheConfig& cfg) {
  configure(cfg);
  stats_ = {};
}

void Cache::configure(const CacheConfig& cfg) {
  cfg_ = cfg;
  epoch_ = 0;
  dirty_ = 0;
  memo_clear();
  std::uint64_t lines = cfg.num_lines();
  if (lines == 0) {
    num_sets_ = 0;
    ways_ = 0;
    meta_storage_.clear();
    meta_ = nullptr;
    return;
  }
  // Associativity is capped at 16 so a set's full recency order packs into
  // one 64-bit word of 4-bit digits (no modelled device exceeds 16 ways).
  ways_ = std::min<std::uint64_t>(
      std::min<std::uint64_t>(cfg.ways == 0 ? 1 : cfg.ways, 16), lines);
  // Set count must be a power of two for cheap indexing; round the
  // capacity down if needed (documented behaviour, verified in tests).
  std::uint64_t sets = floor_pow2(lines / ways_);
  if (sets == 0) sets = 1;
  num_sets_ = static_cast<std::uint32_t>(sets);
  // Per-set block: u32 tags[ways] | u64 recency perm | u8 state[ways] +
  // fill byte, rounded up to a 64-byte multiple so every block starts on a
  // host cache line (at 8 ways the whole block IS one host line).
  perm_off_u64_ = (ways_ * 4 + 7) / 8;
  state_off_u64_ = perm_off_u64_ + 1;
  // Tail: state bytes, fill count, epoch byte.
  const std::uint32_t tail_u64 = (ways_ + 2 + 7) / 8;
  stride_u64_ = (state_off_u64_ + tail_u64 + 7) / 8 * 8;
  // assign() keeps the allocation when it is large enough (reshape).
  meta_storage_.assign(static_cast<std::size_t>(num_sets_) * stride_u64_ + 8,
                       0);
  const auto raw = reinterpret_cast<std::uintptr_t>(meta_storage_.data());
  meta_ = reinterpret_cast<std::uint64_t*>((raw + 63) / 64 * 64);
  for (std::uint64_t s = 0; s < num_sets_; ++s)
    *block_perm(set_block(s)) = kIdentityPerm;
}

void Cache::invalidate_all() noexcept {
  // Bumping the epoch makes every set logically empty in O(1); the slab is
  // really zeroed (and the recency words re-seeded, exactly as
  // construction does) only when the 8-bit epoch wraps, so a set that
  // still carries an epoch byte from 256 invalidations ago can never be
  // misread as current.
  ++epoch_;
  dirty_ = 0;
  if (epoch_ == 0) {
    std::fill(meta_storage_.begin(), meta_storage_.end(), std::uint64_t{0});
    for (std::uint64_t s = 0; s < num_sets_; ++s)
      *block_perm(set_block(s)) = kIdentityPerm;
  }
  memo_clear();
}

std::uint64_t Cache::resident_lines() const noexcept {
  std::uint64_t n = 0;
  for (std::uint64_t s = 0; s < num_sets_; ++s) {
    auto* blk = const_cast<Cache*>(this)->set_block(s);
    if (block_epoch(blk) == epoch_) n += block_fill(blk);
  }
  return n;
}

}  // namespace lassm::memsim
