#include "core/loc_ht.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

#include "bio/murmur.hpp"

namespace lassm::core {

const char* walk_state_name(WalkState s) noexcept {
  switch (s) {
    case WalkState::kRunning: return "running";
    case WalkState::kEnd: return "end";
    case WalkState::kFork: return "fork";
    case WalkState::kLoop: return "loop";
    case WalkState::kLimit: return "limit";
    case WalkState::kMissing: return "missing";
    case WalkState::kAborted: return "aborted";
  }
  return "?";
}

ExtChoice choose_extension(const HtEntry& entry,
                           const AssemblyOptions& opts) noexcept {
  const auto min_votes = static_cast<std::uint32_t>(opts.min_viable_votes);

  int best = -1, second = -1;
  std::uint32_t best_score = 0, second_score = 0;
  for (int b = 0; b < bio::kNumBases; ++b) {
    const std::uint32_t hi = entry.hi_q_exts[b];
    const std::uint32_t low = entry.low_q_exts[b];
    // Any vote keeps a base viable at the configured depth floor; quality
    // enters through the score (high-quality votes count double), so a
    // lone low-quality read can still carry a sparse walk — MetaHipMer's
    // low-coverage behaviour.
    const bool viable = hi + low >= min_votes;
    if (!viable) continue;
    const std::uint32_t score = 2 * hi + low;
    if (best < 0 || score > best_score) {
      second = best;
      second_score = best_score;
      best = b;
      best_score = score;
    } else if (second < 0 || score > second_score) {
      second = b;
      second_score = score;
    }
  }

  ExtChoice out;
  if (best < 0) {
    out.state = WalkState::kEnd;
    return out;
  }
  if (second >= 0 && second_score == best_score) {
    out.state = WalkState::kFork;
    return out;
  }
  out.ext = bio::code_to_base(best);
  out.state = WalkState::kRunning;
  return out;
}

std::uint32_t LocHashTable::estimate_slots(std::uint64_t insertions,
                                           double load_factor) {
  if (load_factor <= 0.0 || load_factor > 1.0) load_factor = 0.5;
  const auto needed = static_cast<std::uint64_t>(
      static_cast<double>(insertions) / load_factor);
  return static_cast<std::uint32_t>(std::bit_ceil(std::max<std::uint64_t>(needed, 16)));
}

void LocHashTable::reset(std::uint32_t slots, std::uint64_t sim_base) {
  assert(slots != 0 && (slots & (slots - 1)) == 0);
  // Growth appends cleared entries; a smaller table reuses a prefix.
  if (slots > entries_.size()) entries_.resize(slots);
  if (epoch_ != ~std::uint32_t{0}) {
    // O(1) epoch bump: stale slots clear themselves on first touch in
    // entry(). The epoch wrap (one in 2^32 resets) falls through to a full
    // clear so an ancient surviving slot can never alias a recycled epoch
    // value.
    ++epoch_;
  } else {
    std::fill(entries_.begin(), entries_.end(), HtEntry{});
    epoch_ = 0;
  }
  slots_ = slots;
  sim_base_ = sim_base;
}

const HtEntry* LocHashTable::find(const bio::KmerView& key) const noexcept {
  if (slots_ == 0) return nullptr;
  const std::uint32_t n = slots();
  const std::uint32_t mask = n - 1;  // n is a power of two (see reset())
  std::uint32_t slot = key.hash(n);
  for (std::uint32_t probe = 0; probe < n; ++probe) {
    const HtEntry& e = entries_[slot];
    if (e.slot_epoch != epoch_ || e.empty()) return nullptr;
    if (e.key_len == key.len &&
        std::string_view(e.key_ptr, e.key_len) == key.sv()) {
      return &e;
    }
    slot = (slot + 1) & mask;
  }
  return nullptr;
}

std::uint32_t LocHashTable::occupied() const noexcept {
  std::uint32_t n = 0;
  for (std::uint32_t i = 0; i < slots_; ++i) {
    const HtEntry& e = entries_[i];
    n += (e.slot_epoch == epoch_ && !e.empty()) ? 1 : 0;
  }
  return n;
}

}  // namespace lassm::core
