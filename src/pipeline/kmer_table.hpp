#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "bio/kmer.hpp"
#include "core/spin.hpp"

/// Sharded open-addressing hash table for the pipeline front-end: the one
/// key-value layout behind both the k-mer count map (k-mer analysis, de
/// Bruijn graph) and the aligner's seed index.
///
/// Layout: 64 shards selected by the top 6 bits of PackedKmer::hash64();
/// each shard is a power-of-two vector of flat {key, value} entries probed
/// linearly from the remaining hash bits, grown at 50% load. An entry with
/// key.k() == 0 (the default-constructed PackedKmer, which can never be a
/// real k-mer) is an empty slot.
///
/// Sharding is the parallelism contract: because a k-mer's shard is a pure
/// function of its hash, per-shard operations on *distinct* shards touch
/// disjoint memory and may run concurrently with no synchronisation — the
/// front-end's parallel filter/histogram/DBG phases run one task per shard
/// on the warp-execution pool. Within a shard, slot order is a
/// deterministic function of the shard's insertion sequence; nothing
/// downstream depends on it (see ConcurrentKmerCountTable below).
namespace lassm::pipeline {

template <class Value>
class FlatKmerTable {
 public:
  static constexpr std::uint32_t kShardBits = 6;
  static constexpr std::uint32_t kShards = 1u << kShardBits;
  static constexpr std::uint64_t kNotFound = ~std::uint64_t{0};

  struct Entry {
    bio::PackedKmer key;
    Value value{};
    bool used() const noexcept { return key.k() != 0; }
  };

  static std::uint32_t shard_of_hash(std::uint64_t h) noexcept {
    return static_cast<std::uint32_t>(h >> (64 - kShardBits));
  }
  static std::uint32_t shard_of(const bio::PackedKmer& km) noexcept {
    return shard_of_hash(km.hash64());
  }

  /// Pre-sizes every shard for `expected_entries` total insertions (keeps
  /// the load factor under 1/2 without growth if the estimate holds).
  void reserve(std::uint64_t expected_entries) {
    const std::uint64_t per_shard = expected_entries / kShards + 1;
    for (Shard& s : shards_) s.reserve(per_shard);
  }

  /// Occupied slots across all shards (physical entries; a value-level
  /// tombstone convention, if the caller uses one, is not visible here).
  std::size_t entries() const noexcept {
    std::size_t n = 0;
    for (const Shard& s : shards_) n += s.used;
    return n;
  }

  /// Occupied slots of one shard (reserve hint for per-shard extraction).
  std::size_t shard_entries(std::uint32_t shard) const noexcept {
    return shards_[shard].used;
  }

  Value& get_or_insert(const bio::PackedKmer& km) {
    const std::uint64_t h = km.hash64();
    return shards_[shard_of_hash(h)].get_or_insert(km, h);
  }

  /// get_or_insert with the hash already computed (callers that prefetch
  /// hash each key exactly once).
  Value& get_or_insert_hashed(const bio::PackedKmer& km, std::uint64_t h) {
    return shards_[shard_of_hash(h)].get_or_insert(km, h);
  }

  /// Hints the probe start of `h`'s slot into cache. Insert-heavy loops
  /// hide the table's random-access latency by prefetching a key several
  /// iterations before inserting it; a stale hint (the shard rehashed in
  /// between) costs nothing but the hint.
  void prefetch_hash(std::uint64_t h) const noexcept {
    const Shard& s = shards_[shard_of_hash(h)];
    if (!s.slots.empty()) {
      __builtin_prefetch(&s.slots[h & (s.slots.size() - 1)]);
    }
  }

  /// Shard-local insert for the parallel per-shard merge phases. The
  /// caller guarantees shard == shard_of(km) and that no other thread
  /// touches `shard` concurrently (distinct shards are always safe).
  Value& get_or_insert_in_shard(std::uint32_t shard,
                                const bio::PackedKmer& km) {
    const std::uint64_t h = km.hash64();
    assert(shard == shard_of_hash(h));
    return shards_[shard].get_or_insert(km, h);
  }

  const Value* find(const bio::PackedKmer& km) const noexcept {
    return find_hashed(km, km.hash64());
  }

  /// find with the hash already computed (callers that also route by the
  /// hash hash each key exactly once).
  const Value* find_hashed(const bio::PackedKmer& km,
                           std::uint64_t h) const noexcept {
    const Shard& s = shards_[shard_of_hash(h)];
    if (s.slots.empty()) return nullptr;
    const std::size_t mask = s.slots.size() - 1;
    for (std::size_t i = h & mask;; i = (i + 1) & mask) {
      const Entry& e = s.slots[i];
      if (!e.used()) return nullptr;
      if (e.key == km) return &e.value;
    }
  }

  /// Visits one shard's occupied entries in slot order.
  template <class F>
  void for_each_in_shard(std::uint32_t shard, F&& f) const {
    for (const Entry& e : shards_[shard].slots) {
      if (e.used()) f(e);
    }
  }
  template <class F>
  void for_each_in_shard(std::uint32_t shard, F&& f) {
    for (Entry& e : shards_[shard].slots) {
      if (e.used()) f(e);
    }
  }

  /// Visits one shard's occupied entries in slot order as f(slot, entry);
  /// the entry's dense id (see dense_offsets) is offsets[shard] + slot,
  /// so a slot-indexed side table needs no probe for the entry itself.
  template <class F>
  void for_each_slot_in_shard(std::uint32_t shard, F&& f) const {
    const std::vector<Entry>& slots = shards_[shard].slots;
    for (std::size_t i = 0; i < slots.size(); ++i) {
      if (slots[i].used()) f(i, slots[i]);
    }
  }

  /// Global slot numbering for side tables (e.g. the de Bruijn graph's
  /// per-slot edge arrays): the dense id of shard s's slot i is
  /// offsets[s] + i, and offsets[kShards] is the total slot count. Valid
  /// until the next mutation.
  std::array<std::uint64_t, kShards + 1> dense_offsets() const noexcept {
    std::array<std::uint64_t, kShards + 1> off{};
    for (std::uint32_t s = 0; s < kShards; ++s) {
      off[s + 1] = off[s] + shards_[s].slots.size();
    }
    return off;
  }

  struct Found {
    std::uint64_t id = kNotFound;  ///< dense slot id, kNotFound if absent
    const Value* value = nullptr;
  };

  /// Adopts externally built storage for one shard — the zero-copy export
  /// path of ConcurrentKmerCountTable (below). `slots` must be empty or a
  /// power-of-two vector in which every occupied entry is reachable by the
  /// linear probe of its own hash from `hash & (size-1)`; that invariant
  /// holds for any open-addressing insert history with no deletions,
  /// regardless of the thread interleaving that produced it, because probe
  /// chains only ever extend. O(1): no entries are visited, the vector
  /// moves in whole.
  void adopt_shard(std::uint32_t shard, std::vector<Entry>&& slots,
                   std::size_t used) {
    assert(slots.empty() || (slots.size() & (slots.size() - 1)) == 0);
    shards_[shard].slots = std::move(slots);
    shards_[shard].used = used;
  }

  /// One probe returning both the dense slot id and the value — a
  /// membership test that also locates the key's slot-indexed state.
  Found dense_find(
      const bio::PackedKmer& km,
      const std::array<std::uint64_t, kShards + 1>& offsets) const noexcept {
    const std::uint64_t h = km.hash64();
    const std::uint32_t sid = shard_of_hash(h);
    const Shard& s = shards_[sid];
    if (s.slots.empty()) return {};
    const std::size_t mask = s.slots.size() - 1;
    for (std::size_t i = h & mask;; i = (i + 1) & mask) {
      const Entry& e = s.slots[i];
      if (!e.used()) return {};
      if (e.key == km) return {offsets[sid] + i, &e.value};
    }
  }

 private:
  struct Shard {
    std::vector<Entry> slots;  ///< power-of-two or empty
    std::size_t used = 0;

    void reserve(std::uint64_t expected) {
      std::size_t want = kMinSlots;
      while (want < expected * 2) want <<= 1;
      if (want > slots.size()) rehash(want);
    }

    Value& get_or_insert(const bio::PackedKmer& km, std::uint64_t h) {
      if (slots.empty()) {
        rehash(kMinSlots);
      } else if ((used + 1) * 2 > slots.size()) {
        rehash(slots.size() * 2);
      }
      const std::size_t mask = slots.size() - 1;
      for (std::size_t i = h & mask;; i = (i + 1) & mask) {
        Entry& e = slots[i];
        if (!e.used()) {
          ++used;
          e.key = km;
          return e.value;
        }
        if (e.key == km) return e.value;
      }
    }

    void rehash(std::size_t n_slots) {
      std::vector<Entry> old = std::move(slots);
      slots.assign(n_slots, Entry{});
      const std::size_t mask = n_slots - 1;
      for (Entry& e : old) {
        if (!e.used()) continue;
        std::size_t i = e.key.hash64() & mask;
        while (slots[i].used()) i = (i + 1) & mask;
        slots[i] = std::move(e);
      }
    }
  };

  static constexpr std::size_t kMinSlots = 16;

  std::array<Shard, kShards> shards_{};
};

/// Lock-free concurrent counting companion to FlatKmerTable<uint32_t>:
/// every worker inserts/increments k-mers directly into one shared sharded
/// table, and the finished shards move — storage and all — into a
/// FlatKmerTable via export_into()/adopt_shard(). No per-thread partial
/// maps, no merge pass.
///
/// ## Slot protocol (CAS claim + publish)
/// A PackedKmer key is 40 bytes — far too wide to CAS — so each shard
/// carries an atomic tag word per slot, parallel to the entry vector:
///
///   kEmpty (0)  -> slot free
///   kBusy  (1)  -> claimed, key write in flight (a few instructions)
///   hash|2      -> published; low-bit-tagged hash doubles as a filter
///
/// Insert probes linearly from `hash & mask`, exactly like the serial
/// table. On an empty tag the writer claims it with CAS(kEmpty -> kBusy),
/// plain-writes the key and initial count (no other thread can reach them
/// yet), then publishes with a release store of hash|2; the prober's
/// acquire load of a published tag makes the plain key read safe. kBusy is
/// spun through (the claimer is straight-line code away from publishing).
/// A published tag whose hash matches is key-compared in full — equal keys
/// always produce equal tags, so a tag mismatch alone rules a slot out.
/// Counts of published slots increment via std::atomic_ref, relaxed: counts
/// are commutative and read only after a happens-before (the pool's batch
/// barrier or a drain).
///
/// ## Load-factor guard and sharded growth
/// `used` is an exact RMW counter of retained claims. A claimer increments
/// it *before* its CAS and backs out on failure or denial, so the invariant
/// `used*2 <= capacity` is enforced at claim time with no reliance on
/// possibly-stale loads — occupancy never exceeds half the shard and every
/// probe terminates. A denied (or pre-probe-triggered) writer grows the
/// shard it tripped: it deregisters, takes the shard's rebuild flag (losers
/// defer — spin unregistered until the owner finishes), signals a pending
/// rebuild, waits for all registered writers to drain, then rebuilds its
/// shard exclusively and doubles it. Distinct shards may rebuild
/// concurrently; writers park at their next checkpoint until no rebuild is
/// pending. The registration/drain handshake is the classic two-flag
/// pattern and its four edges (enter-add/pending-load vs pending-add/
/// writers-load) are seq_cst; everything else needs only acquire/release.
///
/// ## Serial-oracle equivalence
/// Slot layout depends on the interleaving, but the *contents* — the
/// multiset of (k-mer, count) — equal serial counting's exactly, and every
/// downstream consumer (fingerprints, filter, histogram, the de Bruijn
/// walk sorted by start k-mer, dense ids as opaque identifiers) is
/// slot-order independent, so golden outputs are bit-identical at every
/// thread count. The bit-identity suite (ConcurrentKmerTable.*) holds this
/// to account at 1/2/4/8 threads against a per-chunk + ordered-merge
/// oracle that lives only in the tests.
class ConcurrentKmerCountTable {
 public:
  using Table = FlatKmerTable<std::uint32_t>;
  using Entry = Table::Entry;
  static constexpr std::uint32_t kShards = Table::kShards;

  /// `min_slots` (rounded up to a power of two, >= 4) is the capacity a
  /// shard is born with on first growth — tests shrink it to force rebuild
  /// storms; the default keeps rebuilds rare for unreserved use.
  explicit ConcurrentKmerCountTable(std::size_t min_slots = 64) {
    min_slots_ = 4;
    while (min_slots_ < min_slots) min_slots_ <<= 1;
  }

  /// Registers the calling thread as a writer for a batch of insert()
  /// calls. Registration is what rebuilds drain against, so long loops
  /// must call checkpoint() periodically (the counting loop does so once
  /// per read) or growth on *any* shard would wait for the whole batch.
  class WriterScope {
   public:
    explicit WriterScope(ConcurrentKmerCountTable& t) : t_(&t) {
      t_->writer_enter();
    }
    ~WriterScope() { t_->writer_exit(); }
    WriterScope(const WriterScope&) = delete;
    WriterScope& operator=(const WriterScope&) = delete;

    /// Parks this writer while any shard rebuild is waiting for
    /// quiescence; a relaxed load and a branch otherwise.
    void checkpoint() {
      if (t_->rebuilds_pending_.load(std::memory_order_relaxed) != 0) {
        t_->writer_exit();
        t_->writer_enter();
      }
    }

    /// The registered table as a pipeline::insert_read_kmers sink (the
    /// same prefetch/add_hashed pair KmerCountMap offers).
    void prefetch(std::uint64_t h) const noexcept { t_->prefetch_hash(h); }
    void add_hashed(const bio::PackedKmer& km, std::uint64_t h) {
      t_->insert(km, h);
    }

   private:
    ConcurrentKmerCountTable* t_;
  };

  /// Inserts `km` (hash `h` precomputed) with count `n`, or adds `n` to its
  /// existing count. The caller must hold a WriterScope.
  void insert(const bio::PackedKmer& km, std::uint64_t h,
              std::uint32_t n = 1) {
    Shard& s = shards_[Table::shard_of_hash(h)];
    const std::uint64_t fp = h | kPublishedBit;
    for (;;) {
      const std::size_t cap = s.slots.size();
      if (cap == 0 ||
          (s.used.load(std::memory_order_relaxed) + 1) * 2 > cap) {
        grow(s);
        continue;  // arrays replaced; restart with fresh capacity
      }
      const std::size_t mask = cap - 1;
      std::size_t i = h & mask;
      bool denied = false;
      for (;;) {
        std::uint64_t t = s.tags[i].load(std::memory_order_acquire);
        if (t == kEmptyTag) {
          // Claim-time load-factor guard: the increment is retained only
          // if it keeps occupancy <= cap/2 *and* the CAS wins.
          if ((s.used.fetch_add(1, std::memory_order_relaxed) + 1) * 2 >
              cap) {
            s.used.fetch_sub(1, std::memory_order_relaxed);
            denied = true;
            break;
          }
          if (s.tags[i].compare_exchange_strong(
                  t, kBusyTag, std::memory_order_acq_rel,
                  std::memory_order_acquire)) {
            s.slots[i].key = km;
            s.slots[i].value = n;  // unreachable until the publish below
            s.tags[i].store(fp, std::memory_order_release);
            return;
          }
          s.used.fetch_sub(1, std::memory_order_relaxed);
          // Lost the slot race; `t` holds the winner's tag — fall through
          // and re-examine this slot.
        }
        if (t == kBusyTag) {
          core::SpinBackoff backoff;
          do {
            backoff.pause();
            t = s.tags[i].load(std::memory_order_acquire);
          } while (t == kBusyTag);
        }
        if (t == fp && s.slots[i].key == km) {
          std::atomic_ref<std::uint32_t>(s.slots[i].value)
              .fetch_add(n, std::memory_order_relaxed);
          return;
        }
        i = (i + 1) & mask;
      }
      if (denied) grow(s);
    }
  }

  /// Hints the probe start of `h` into cache (tag word and entry); the
  /// counting loop's deferred-insert ring calls this a few k-mers ahead.
  /// The caller must hold a WriterScope (array pointers are stable only
  /// while registered).
  void prefetch_hash(std::uint64_t h) const noexcept {
    const Shard& s = shards_[Table::shard_of_hash(h)];
    if (!s.slots.empty()) {
      const std::size_t i = h & (s.slots.size() - 1);
      __builtin_prefetch(&s.tags[i]);
      __builtin_prefetch(&s.slots[i]);
    }
  }

  /// Pre-sizes the shards in `shard_mask` (bit s = shard s) for
  /// `expected_entries` total distinct k-mers spread over all kShards
  /// shards. Quiescent only (no live WriterScope): streaming callers
  /// reserve between blocks, batch callers before the batch.
  void reserve(std::uint64_t expected_entries,
               std::uint64_t shard_mask = ~std::uint64_t{0}) {
    const std::uint64_t per_shard = expected_entries / kShards + 1;
    for (std::uint32_t sid = 0; sid < kShards; ++sid) {
      if ((shard_mask >> sid & 1) == 0) continue;
      Shard& s = shards_[sid];
      std::size_t want = min_slots_;
      while (want < per_shard * 2) want <<= 1;
      if (want > s.slots.size()) rebuild_shard(s, want);
    }
  }

  /// Occupied slots across all shards. Exact at quiescence; a racy (but
  /// never negative) estimate while writers are live.
  std::size_t entries() const noexcept {
    std::size_t n = 0;
    for (const Shard& s : shards_) {
      n += s.used.load(std::memory_order_relaxed);
    }
    return n;
  }

  /// Shard rebuilds performed so far (growth + reserve), for stats/tests.
  std::uint64_t rebuilds() const noexcept {
    return rebuilds_.load(std::memory_order_relaxed);
  }

  /// Moves the storage of every shard in `shard_mask` into the same shard
  /// of `out` (adopt_shard) and resets those shards to empty; `out`'s other
  /// shards are left untouched. Quiescent only — the caller's batch
  /// barrier (e.g. run_host_batch's return) is the happens-before that
  /// makes the plain reads downstream of the move race-free. The tag
  /// arrays are dropped; the entry vectors transfer without visiting a
  /// single entry.
  void export_into(Table& out,
                   std::uint64_t shard_mask = ~std::uint64_t{0}) {
    for (std::uint32_t sid = 0; sid < kShards; ++sid) {
      if ((shard_mask >> sid & 1) == 0) continue;
      Shard& s = shards_[sid];
      out.adopt_shard(sid, std::move(s.slots),
                      s.used.load(std::memory_order_relaxed));
      s.slots.clear();
      s.tags.reset();
      s.used.store(0, std::memory_order_relaxed);
    }
  }

 private:
  static constexpr std::uint64_t kEmptyTag = 0;
  static constexpr std::uint64_t kBusyTag = 1;
  static constexpr std::uint64_t kPublishedBit = 2;

  struct alignas(64) Shard {
    std::vector<Entry> slots;  ///< power-of-two or empty
    /// Parallel to slots: kEmptyTag / kBusyTag / published hash|2.
    std::unique_ptr<std::atomic<std::uint64_t>[]> tags;
    std::atomic<std::size_t> used{0};       ///< retained claims (exact)
    std::atomic<std::uint8_t> rebuilding{0};  ///< rebuild ownership flag
  };

  void writer_enter() noexcept {
    for (;;) {
      writers_.fetch_add(1, std::memory_order_seq_cst);
      if (rebuilds_pending_.load(std::memory_order_seq_cst) == 0) return;
      writers_.fetch_sub(1, std::memory_order_release);
      core::SpinBackoff backoff;
      while (rebuilds_pending_.load(std::memory_order_acquire) != 0) {
        backoff.pause();
      }
    }
  }

  void writer_exit() noexcept {
    writers_.fetch_sub(1, std::memory_order_release);
  }

  /// Grows `s` on behalf of the (registered) calling writer: deregister,
  /// take or defer to the shard's rebuild ownership, drain all writers,
  /// rebuild exclusively, re-register. Callers re-probe afterwards.
  void grow(Shard& s) {
    writer_exit();
    if (s.rebuilding.exchange(1, std::memory_order_acq_rel) != 0) {
      // Another thread owns this shard's rebuild: defer to it.
      core::SpinBackoff backoff;
      while (s.rebuilding.load(std::memory_order_acquire) != 0) {
        backoff.pause();
      }
    } else {
      rebuilds_pending_.fetch_add(1, std::memory_order_seq_cst);
      core::SpinBackoff backoff;
      while (writers_.load(std::memory_order_seq_cst) != 0) {
        backoff.pause();
      }
      // Quiescent and exclusive. Re-check under certainty: a predecessor
      // (reserve, or a rebuild we deferred to in an earlier round) may
      // already have made room.
      const std::size_t cap = s.slots.size();
      const std::size_t used = s.used.load(std::memory_order_relaxed);
      if (cap == 0 || (used + 1) * 2 > cap) {
        std::size_t want = std::max(cap * 2, min_slots_);
        while ((used + 1) * 2 > want) want <<= 1;
        rebuild_shard(s, want);
      }
      s.rebuilding.store(0, std::memory_order_release);
      rebuilds_pending_.fetch_sub(1, std::memory_order_release);
    }
    writer_enter();
  }

  /// Re-places every published entry into fresh arrays of `n_slots`.
  /// Caller guarantees exclusivity (quiescent drain or construction).
  void rebuild_shard(Shard& s, std::size_t n_slots) {
    std::vector<Entry> old = std::move(s.slots);
    auto old_tags = std::move(s.tags);
    s.slots.assign(n_slots, Entry{});
    // make_unique<T[]> value-initializes: every tag starts kEmptyTag.
    s.tags = std::make_unique<std::atomic<std::uint64_t>[]>(n_slots);
    const std::size_t mask = n_slots - 1;
    for (std::size_t j = 0; j < old.size(); ++j) {
      if (old_tags[j].load(std::memory_order_relaxed) < kPublishedBit) {
        continue;  // empty; kBusy cannot survive a drain
      }
      Entry& e = old[j];
      const std::uint64_t h = e.key.hash64();
      std::size_t i = h & mask;
      while (s.tags[i].load(std::memory_order_relaxed) != kEmptyTag) {
        i = (i + 1) & mask;
      }
      s.tags[i].store(h | kPublishedBit, std::memory_order_relaxed);
      s.slots[i] = std::move(e);
    }
    rebuilds_.fetch_add(1, std::memory_order_relaxed);
  }

  std::array<Shard, kShards> shards_{};
  std::size_t min_slots_ = 64;
  std::atomic<std::uint64_t> writers_{0};
  std::atomic<std::uint32_t> rebuilds_pending_{0};
  std::atomic<std::uint64_t> rebuilds_{0};
};

}  // namespace lassm::pipeline
