#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "bio/contig.hpp"
#include "core/input.hpp"
#include "core/options.hpp"
#include "resilience/fault_plan.hpp"
#include "simt/device.hpp"

/// Content-addressed result cache of the serving layer — the promotion of
/// the ad-hoc on-disk study cache into a first-class subsystem. Entries
/// are keyed by (dataset fingerprint, options fingerprint): two jobs with
/// byte-identical inputs and equivalent modelled configuration share an
/// entry, so repeated traffic is served without recompute. Stored values
/// are serialised to a byte blob with a checksum; every read-back
/// re-verifies the checksum, so silent storage corruption (or the armed
/// `cache_corrupt` fault seam) is detected, counted, and turned into a
/// miss + eviction — never into a wrong answer.
namespace lassm::serve {

/// The content address: which bytes were assembled, under which model.
struct CacheKey {
  std::uint64_t dataset_fp = 0;
  std::uint64_t options_fp = 0;

  bool operator==(const CacheKey& o) const noexcept {
    return dataset_fp == o.dataset_fp && options_fp == o.options_fp;
  }
  /// Stable 64-bit identity (also the fault key of the cache_corrupt
  /// seam for this entry).
  std::uint64_t mixed() const noexcept;
};

/// What a completed job stores: its extensions and the modelled kernel
/// seconds the original computation reported.
struct CachedResult {
  std::vector<bio::ContigExtension> extensions;
  double modelled_time_s = 0.0;
};

/// FNV-1a over the input's contigs (id, seq, depth), read arena bytes and
/// end-mappings, plus the mer size — any byte difference changes the key.
std::uint64_t fingerprint_input(const core::AssemblyInput& in) noexcept;

/// FNV-1a over the option fields that change modelled results, plus the
/// device identity and programming model.
std::uint64_t fingerprint_options(const core::AssemblyOptions& opts,
                                  const simt::DeviceSpec& dev,
                                  simt::ProgrammingModel pm) noexcept;

/// Bounded, scan-resistant cache, mutex-guarded: the service's client
/// threads and its dispatcher read it concurrently, the dispatcher writes
/// it, and any thread may read stats. Capacity 0 disables storage entirely.
///
/// Two LRU segments. A new entry enters probation (1/8 of the capacity,
/// rounded up); a full cache evicts probation's least recently used entry.
/// An entry hit in probation is promoted to the protected segment while it
/// has room, or when its hit count beats the protected entry with the
/// fewest hits (least recently used among ties), which is demoted to
/// probation. Pure LRU hits nothing when traffic cycles through more
/// datasets than the cache holds; this keeps a resident set that does.
/// Every hit count is halved each 10 x capacity lookups, so entries that
/// stop being asked for lose their place.
class ResultCache {
 public:
  explicit ResultCache(std::size_t capacity)
      : capacity_(capacity),
        protected_capacity_(capacity - (capacity + 7) / 8) {}

  /// Counted per lookup, not per job: a job probed more than once (a
  /// submit-time miss, then again at dispatch; or a retry) counts each.
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t corruptions = 0;  ///< checksum mismatches on read-back
    std::uint64_t evictions = 0;    ///< capacity + corruption evictions
    std::uint64_t entries = 0;
  };

  /// One lookup's answer. `corrupted` belongs to this call alone, so
  /// callers on concurrent threads attribute each corruption exactly once.
  struct Lookup {
    std::optional<CachedResult> hit;  ///< nullopt on miss/corruption
    bool corrupted = false;  ///< this call found, counted and evicted one
  };

  /// Looks up `key`. When an armed `plan` selects this key for the
  /// cache_corrupt seam, the stored blob is corrupted in place first
  /// (once per entry generation), so the checksum verification path is
  /// exercised deterministically: the entry is detected, evicted and
  /// reported as a miss.
  Lookup get(const CacheKey& key, const resilience::FaultPlan* plan);

  /// Stores `value` (serialised + checksummed). No-op at capacity 0;
  /// evicts probation's least recently used entry when full.
  void put(const CacheKey& key, const CachedResult& value);

  Stats stats() const;
  std::size_t capacity() const noexcept { return capacity_; }

 private:
  struct Entry {
    CacheKey key;
    std::string blob;            ///< serialised CachedResult
    std::uint64_t checksum = 0;  ///< FNV-1a of blob at store time
    bool seam_fired = false;     ///< cache_corrupt already applied once
    bool is_protected = false;   ///< in protected_, else in probation_
    std::uint64_t hits = 0;      ///< since stored, halved by aging
  };
  using Slot = std::list<Entry>::iterator;

  struct KeyHash {
    std::size_t operator()(const CacheKey& k) const noexcept {
      return static_cast<std::size_t>(k.mixed());
    }
  };

  /// Counts a hit on `slot` and moves it to the front of its segment,
  /// promoting it from probation when it earns a protected place.
  void touch(Slot slot);
  void erase(Slot slot);

  std::size_t capacity_;
  std::size_t protected_capacity_;
  mutable std::mutex mutex_;
  std::list<Entry> probation_;   ///< front = most recently used
  std::list<Entry> protected_;   ///< front = most recently used
  std::unordered_map<CacheKey, Slot, KeyHash> index_;
  std::uint64_t lookups_ = 0;
  Stats stats_;
};

}  // namespace lassm::serve
