#pragma once

#include <cstdint>
#include <vector>

#include "bio/dna.hpp"
#include "bio/kmer.hpp"
#include "core/options.hpp"

namespace lassm::core {

/// Simulated device layout of one hash-table entry. The paper's byte model
/// treats the value payload as 13 bytes (4 B key pointer + 1 B ext + 4 B
/// quality + 4 B count); the actual `loc_ht` struct with per-nucleotide
/// vote counters occupies 32 bytes, which is what the cache simulator sees.
inline constexpr std::uint32_t kEntryBytes = 32;
inline constexpr std::uint32_t kEntryKeyOff = 0;    ///< key ptr + len
inline constexpr std::uint32_t kEntryKeyBytes = 12;
inline constexpr std::uint32_t kEntryValOff = 12;   ///< votes + count
inline constexpr std::uint32_t kEntryValBytes = 20;

/// One slot of the per-contig de Bruijn hash table: key is a view into the
/// read arena (never copied — every comparison re-reads the read buffer),
/// value is the extension vote record.
struct HtEntry {
  const char* key_ptr = nullptr;
  std::uint64_t key_sim_addr = 0;
  std::uint32_t key_len = 0;  ///< 0 == EMPTY (the atomicCAS target)
  std::uint16_t hi_q_exts[bio::kNumBases] = {};
  std::uint16_t low_q_exts[bio::kNumBases] = {};
  std::uint16_t count = 0;
  /// Host-only scratch for O(1) walk loop detection: the slot has been
  /// visited when visit_epoch equals the walk's epoch. Not part of the
  /// simulated 32-byte device layout.
  std::uint32_t visit_epoch = 0;
  /// Host-only lazy-clear generation tag (see LocHashTable::reset): the
  /// slot's contents are valid only while slot_epoch matches the table's
  /// current epoch; a stale slot reads as freshly cleared. Not part of the
  /// simulated 32-byte device layout.
  std::uint32_t slot_epoch = 0;

  bool empty() const noexcept { return key_len == 0; }
};

/// Saturating 16-bit vote increment (votes never wrap; both kernel and
/// reference must saturate identically for bit-equal results).
constexpr void saturating_inc(std::uint16_t& v) noexcept {
  if (v != 0xFFFF) ++v;
}

/// Mer-walk termination states (Algorithm 2 / Fig. 4).
enum class WalkState : std::uint8_t {
  kRunning,  ///< walk still in progress
  kEnd,      ///< no viable extension — natural dead end (accepted)
  kFork,     ///< two competing viable extensions (retry with longer mer)
  kLoop,     ///< revisited a node (retry with longer mer)
  kLimit,    ///< hit max_walk_len (accepted)
  kMissing,  ///< k-mer not present in table (accepted, zero/short walk)
  kAborted,  ///< watchdog cancelled a walk that stopped making progress
};

const char* walk_state_name(WalkState s) noexcept;

/// True when the walk outcome is accepted as final; false triggers a
/// reconstruction with the next mer size on the ladder.
constexpr bool walk_accepted(WalkState s) noexcept {
  return s == WalkState::kEnd || s == WalkState::kLimit ||
         s == WalkState::kMissing;
}

/// Outcome of examining one entry's votes during a walk step.
struct ExtChoice {
  char ext = 0;  ///< chosen base, 0 if none
  WalkState state = WalkState::kRunning;
};

/// Vote-based extension choice shared by the GPU kernel and the CPU
/// reference (identical semantics by construction):
///  * a base is viable with >= min_viable_votes votes of any quality;
///  * among viable bases the highest score (2*hiQ + lowQ) wins;
///  * a tie between two viable bases is a fork;
///  * no viable base ends the walk.
ExtChoice choose_extension(const HtEntry& entry,
                           const AssemblyOptions& opts) noexcept;

/// The per-contig de Bruijn graph hash table (open addressing, linear
/// probing). Storage is reused across contigs by the serial simulator; the
/// simulated base address changes per contig so the cache model sees the
/// true batch-wide footprint.
class LocHashTable {
 public:
  /// Upper-limit size estimate from the pre-processing phase: the table
  /// must hold every k-mer the reads can produce.
  static std::uint32_t estimate_slots(std::uint64_t insertions,
                                      double load_factor);

  /// Clears to `slots` empty entries with device placement at `sim_base`.
  /// `slots` must be a power of two (estimate_slots guarantees it; probing
  /// masks with `slots - 1`).
  ///
  /// O(1) on the host unless the table outgrows every earlier size (the
  /// per-rung and most per-task cases): the table bumps its epoch and
  /// stale slots are cleared lazily on first touch, instead of rewriting
  /// the whole slab; a smaller table uses a prefix of the slab. The
  /// *simulated* cost is unaffected — the kernel separately bills the full
  /// streaming-store slab wipe it models (WarpKernelContext::construct). A
  /// reset table is observationally identical to a freshly assigned one.
  void reset(std::uint32_t slots, std::uint64_t sim_base);

  std::uint32_t slots() const noexcept { return slots_; }
  std::uint64_t sim_base() const noexcept { return sim_base_; }
  std::uint64_t slot_addr(std::uint32_t slot) const noexcept {
    return sim_base_ + static_cast<std::uint64_t>(slot) * kEntryBytes;
  }
  std::uint64_t footprint_bytes() const noexcept {
    return static_cast<std::uint64_t>(slots()) * kEntryBytes;
  }

  /// Slot accessor; a slot whose epoch is stale materialises as a freshly
  /// cleared entry before it is returned (the lazy half of reset()).
  HtEntry& entry(std::uint32_t slot) noexcept {
    HtEntry& e = entries_[slot];
    if (e.slot_epoch != epoch_) {
      e = HtEntry{};
      e.slot_epoch = epoch_;
    }
    return e;
  }
  /// Materialisation only rewrites state that is logically already cleared,
  /// so it preserves the table's observable state (logical constness).
  const HtEntry& entry(std::uint32_t slot) const noexcept {
    return const_cast<LocHashTable*>(this)->entry(slot);
  }

  /// Host-side lookup used by tests and the walk phase after probing has
  /// located the slot; returns nullptr when the key is absent (stale slots
  /// read as empty). Counts nothing — the kernel does its own charged
  /// probing.
  const HtEntry* find(const bio::KmerView& key) const noexcept;

  /// Number of occupied slots in the current epoch.
  std::uint32_t occupied() const noexcept;

 private:
  /// Slab of at least slots_ entries; only the prefix is the table.
  std::vector<HtEntry> entries_;
  std::uint32_t slots_ = 0;
  std::uint64_t sim_base_ = 0;
  std::uint32_t epoch_ = 0;  ///< current generation; slots lag until touched
};

}  // namespace lassm::core
