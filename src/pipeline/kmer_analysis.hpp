#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "bio/kmer.hpp"
#include "bio/read.hpp"
#include "pipeline/kmer_table.hpp"

namespace lassm::core {
class WarpExecutionEngine;
}

/// K-mer analysis stage of the MetaHipMer pipeline (Fig. 2): count k-mers
/// across all reads and drop likely-erroneous ones (those seen only once).
namespace lassm::pipeline {

/// K-mer -> count map on the sharded flat table (see kmer_table.hpp).
/// Erasure is a value-level tombstone: a filtered k-mer keeps its slot with
/// count 0 and reads as absent (contains/at/size all skip it), so the
/// filter never disturbs probe chains and needs no compaction pass.
class KmerCountMap {
 public:
  using Table = FlatKmerTable<std::uint32_t>;

  std::size_t size() const noexcept { return live_; }
  bool empty() const noexcept { return live_ == 0; }

  bool contains(const bio::PackedKmer& km) const noexcept {
    const std::uint32_t* c = table_.find(km);
    return c != nullptr && *c != 0;
  }

  /// Count of a present k-mer; throws std::out_of_range (matching the
  /// std::unordered_map contract this map replaced) when absent.
  std::uint32_t at(const bio::PackedKmer& km) const {
    const std::uint32_t* c = table_.find(km);
    if (c == nullptr || *c == 0) {
      throw std::out_of_range("KmerCountMap::at: k-mer not present");
    }
    return *c;
  }

  void add(const bio::PackedKmer& km, std::uint32_t n = 1) {
    std::uint32_t& c = table_.get_or_insert(km);
    if (c == 0) ++live_;
    c += n;
  }

  /// add() with the hash precomputed; pairs with prefetch() in the
  /// counting loop so each key is hashed exactly once.
  void add_hashed(const bio::PackedKmer& km, std::uint64_t hash,
                  std::uint32_t n = 1) {
    std::uint32_t& c = table_.get_or_insert_hashed(km, hash);
    if (c == 0) ++live_;
    c += n;
  }

  void prefetch(std::uint64_t hash) const noexcept {
    table_.prefetch_hash(hash);
  }

  /// insert_read_kmers' per-read hook; a serial map never has to park.
  void checkpoint() noexcept {}

  /// Pre-sizes for an expected number of distinct k-mers.
  void reserve(std::uint64_t expected_distinct) {
    table_.reserve(expected_distinct);
  }

  /// Underlying sharded table, exposed for the front-end's per-shard
  /// parallel phases (concurrent-table export, filter, histogram, de
  /// Bruijn node extraction). Callers that mutate through it must restore
  /// the size bookkeeping via rebuild_size()/note_erased().
  Table& table() noexcept { return table_; }
  const Table& table() const noexcept { return table_; }

  /// Recomputes size() after direct shard-level insertion through table();
  /// valid only while every occupied entry has a non-zero count (true
  /// during counting — tombstones only appear when filtering).
  void rebuild_size() noexcept { live_ = table_.entries(); }

  /// Records `n` entries tombstoned (count set to 0) through table().
  void note_erased(std::size_t n) noexcept { live_ -= n; }

 private:
  Table table_;
  std::size_t live_ = 0;
};

using KmerCounts = KmerCountMap;

/// Distinct-k-mer estimate used to pre-size a count table for `windows`
/// k-mer windows. The window count bounds the distinct count from above;
/// real shotgun inputs repeat every genomic k-mer roughly coverage times,
/// so a quarter of the windows is a comfortable over-estimate at the >= 4x
/// coverage this repo's workloads use while staying ~100x below a
/// one-slot-per-base reservation. A low estimate only costs amortised
/// shard growth.
inline std::uint64_t distinct_estimate(std::uint64_t windows) noexcept {
  return windows / 4 + 1024;
}

/// Counting is memory-latency bound: every window lands on a random slot
/// of a table far larger than cache. Hiding that latency is worth more
/// than any instruction-level tuning, so each k-mer is hashed once, its
/// probe slot prefetched, and the insert deferred behind a small ring —
/// by insert time the line has usually arrived, and up to kPrefetchWindow
/// misses are in flight at once.
inline constexpr std::size_t kPrefetchWindow = 16;

/// The one k-mer insert loop behind every counter (count_kmers and
/// dist::count_kmers_dist). Feeds every window of reads [begin, end) —
/// canonical or as read — to `sink`, which provides
///   checkpoint()          called before each read,
///   prefetch(hash)        called as soon as a window is hashed,
///   add_hashed(km, hash)  called kPrefetchWindow windows later.
/// add_hashed sees the windows in read and window order, exactly as an
/// undeferred loop would. Sinks: KmerCountMap (serial counting),
/// ConcurrentKmerCountTable::WriterScope (shared-table counting) and the
/// distributed front-end's owner-routing sink.
template <class Sink>
void insert_read_kmers(Sink& sink, const bio::ReadSet& reads,
                       std::size_t begin, std::size_t end, std::uint32_t k,
                       bool canonical) {
  struct Pending {
    bio::PackedKmer km;
    std::uint64_t hash;
  };
  std::array<Pending, kPrefetchWindow> ring;
  std::size_t head = 0;
  const auto push = [&](const bio::PackedKmer& km, std::size_t) {
    const std::uint64_t h = km.hash64();
    sink.prefetch(h);
    Pending& slot = ring[head % kPrefetchWindow];
    if (head >= kPrefetchWindow) sink.add_hashed(slot.km, slot.hash);
    slot = {km, h};
    ++head;
  };
  for (std::size_t r = begin; r < end; ++r) {
    sink.checkpoint();
    head = 0;
    if (canonical) {
      bio::for_each_canonical_kmer(reads.seq(r), k, push);
    } else {
      bio::for_each_packed_kmer(reads.seq(r), k, push);
    }
    const std::size_t pending = std::min(head, kPrefetchWindow);
    for (std::size_t i = head - pending; i < head; ++i) {
      const Pending& p = ring[i % kPrefetchWindow];
      sink.add_hashed(p.km, p.hash);
    }
  }
}

/// Counts every k-mer of every read. The pipeline is strand-specific (the
/// synthetic workloads emit reads in contig orientation); set `canonical`
/// to count strand-insensitively instead.
///
/// Without pool workers this is plain serial counting into the result
/// map. With a parallel `pool`, every worker inserts directly into one
/// shared ConcurrentKmerCountTable — CAS-claimed slots, atomic count
/// increments, sharded growth — whose storage then moves into the result
/// with no merge pass (windows roll via PackedKmer::successor — no
/// per-window repack). Contents are bit-identical across pools and thread
/// counts; only slot layout (never observable downstream) may differ.
KmerCounts count_kmers(const bio::ReadSet& reads, std::uint32_t k,
                       bool canonical = false,
                       core::WarpExecutionEngine* pool = nullptr);

/// Removes k-mers with count < min_count (MetaHipMer's error filter;
/// singletons are overwhelmingly sequencing errors). Returns the number of
/// k-mers removed. Parallel over shards when `pool` is supplied.
std::size_t filter_low_count(KmerCounts& counts, std::uint32_t min_count = 2,
                             core::WarpExecutionEngine* pool = nullptr);

/// Histogram of counts (capped at the last bucket), for diagnostics.
/// Parallel over shards when `pool` is supplied.
std::vector<std::uint64_t> count_histogram(const KmerCounts& counts,
                                           std::uint32_t max_bucket = 16,
                                           core::WarpExecutionEngine* pool =
                                               nullptr);

}  // namespace lassm::pipeline
