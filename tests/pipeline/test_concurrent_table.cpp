// Differential suite for the lock-free concurrent k-mer table. Serial
// counting and the per-chunk + ordered-merge counter kept below as a
// test-only oracle are the oracles: random interleaved insert/increment
// workloads, growth storms and whole-stage counting must produce contents
// bit-identical to them at 1/2/4/8 threads. This file is also the TSan
// workload for the table (see scripts/check.sh).

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bio/kmer.hpp"
#include "bio/read.hpp"
#include "bio/rng.hpp"
#include "core/exec.hpp"
#include "pipeline/kmer_analysis.hpp"
#include "pipeline/kmer_table.hpp"
#include "pipeline/parallel.hpp"

namespace lassm::pipeline {
namespace {

// ---------------------------------------------------------------------------
// FNV-1a content fingerprint (same scheme as test_frontend_parallel.cpp):
// sorted (k-mer, count) pairs, so it is slot-layout independent by
// construction — exactly the property the concurrent table guarantees.

class Fnv {
 public:
  void mix(const void* p, std::size_t n) noexcept {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 1099511628211ULL;
    }
  }
  void mix_u64(std::uint64_t v) noexcept { mix(&v, sizeof v); }
  void mix_str(const std::string& s) noexcept { mix(s.data(), s.size()); }
  std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ULL;
};

std::uint64_t fingerprint_table(const FlatKmerTable<std::uint32_t>& table) {
  std::vector<std::pair<std::string, std::uint32_t>> v;
  for (std::uint32_t s = 0; s < FlatKmerTable<std::uint32_t>::kShards; ++s) {
    table.for_each_in_shard(s, [&](const auto& e) {
      if (e.value != 0) v.emplace_back(e.key.unpack(), e.value);
    });
  }
  std::sort(v.begin(), v.end());
  Fnv f;
  for (const auto& [km, c] : v) {
    f.mix_str(km);
    f.mix_u64(c);
  }
  return f.value();
}

std::uint64_t fingerprint_counts(const KmerCounts& counts) {
  return fingerprint_table(counts.table());
}

// Per-shard extract + sort: dense_offsets() sizing plus for_each_in_shard
// iteration, sorted within the shard. Layout-independent like the
// fingerprint, but additionally checks the shard assignment and the
// offsets bookkeeping of adopted storage.
std::vector<std::vector<std::pair<std::string, std::uint32_t>>>
extract_sorted_shards(const FlatKmerTable<std::uint32_t>& table) {
  const auto offsets = table.dense_offsets();
  std::vector<std::vector<std::pair<std::string, std::uint32_t>>> out(
      FlatKmerTable<std::uint32_t>::kShards);
  for (std::uint32_t s = 0; s < FlatKmerTable<std::uint32_t>::kShards; ++s) {
    EXPECT_GE(offsets[s + 1] - offsets[s], table.shard_entries(s));
    out[s].reserve(table.shard_entries(s));
    table.for_each_in_shard(s, [&](const auto& e) {
      out[s].emplace_back(e.key.unpack(), e.value);
    });
    std::sort(out[s].begin(), out[s].end());
  }
  return out;
}

// ---------------------------------------------------------------------------
// Workloads.

std::string random_seq(std::uint64_t seed, std::size_t len) {
  bio::Xoshiro256 rng(seed);
  std::string s(len, 'A');
  for (char& c : s) c = bio::code_to_base(static_cast<int>(rng.below(4)));
  return s;
}

// A multiset of k-mers with heavy duplication: windows sampled from a
// small genome, so the workload exercises both the insert (first
// occurrence) and the increment (every repeat) arm of the CAS protocol.
std::vector<bio::PackedKmer> sampled_kmers(std::uint64_t seed, std::size_t n,
                                           std::size_t genome_len,
                                           std::uint32_t k) {
  const std::string genome = random_seq(seed, genome_len);
  bio::Xoshiro256 rng(seed ^ 0x9E3779B97F4A7C15ULL);
  std::vector<bio::PackedKmer> v;
  v.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t start = rng.below(genome_len - k);
    v.push_back(bio::PackedKmer::pack(
        std::string_view(genome).substr(start, k)));
  }
  return v;
}

bio::ReadSet shotgun(const std::string& genome, double coverage,
                     std::uint32_t read_len, std::uint64_t seed) {
  bio::Xoshiro256 rng(seed);
  bio::ReadSet reads;
  const auto n = static_cast<std::uint64_t>(
      coverage * static_cast<double>(genome.size()) / read_len);
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t start = rng.below(genome.size() - read_len);
    reads.append(genome.substr(start, read_len), 35);
  }
  return reads;
}

std::unique_ptr<core::WarpExecutionEngine> make_pool(unsigned n_threads) {
  return std::make_unique<core::WarpExecutionEngine>(
      simt::DeviceSpec::a100(), simt::ProgrammingModel::kCuda,
      core::AssemblyOptions{}, n_threads);
}

// nullptr = serial; 2/4/8 workers cover fewer-chunks-than-workers and
// steal-heavy schedules. The issue's bit-identity matrix is 1/2/4/8.
std::vector<std::unique_ptr<core::WarpExecutionEngine>> test_pools() {
  std::vector<std::unique_ptr<core::WarpExecutionEngine>> pools;
  pools.push_back(nullptr);
  pools.push_back(make_pool(2));
  pools.push_back(make_pool(4));
  pools.push_back(make_pool(8));
  return pools;
}

// Serial oracle for raw k-mer multisets.
KmerCounts oracle_counts(const std::vector<bio::PackedKmer>& kmers) {
  KmerCounts counts;
  for (const bio::PackedKmer& km : kmers) counts.add(km);
  return counts;
}

// Inserts `kmers` into `table` from the pool's workers (interleaving-
// heavy: contiguous chunks, all touching the same hot duplicates).
void concurrent_insert(ConcurrentKmerCountTable& table,
                       const std::vector<bio::PackedKmer>& kmers,
                       core::WarpExecutionEngine* pool) {
  const std::size_t n_tasks =
      pool != nullptr ? std::max<std::size_t>(1, pool->n_threads() * 4) : 1;
  const auto run_task = [&](std::size_t t) {
    const std::size_t begin = kmers.size() * t / n_tasks;
    const std::size_t end = kmers.size() * (t + 1) / n_tasks;
    ConcurrentKmerCountTable::WriterScope scope(table);
    for (std::size_t i = begin; i < end; ++i) {
      table.insert(kmers[i], kmers[i].hash64());
      if ((i & 63) == 0) scope.checkpoint();
    }
  };
  if (pool != nullptr) {
    pool->run_host_batch(n_tasks,
                         [&](std::size_t t, unsigned) { run_task(t); });
  } else {
    run_task(0);
  }
}

// concurrent_insert into a fresh table, exported into a FlatKmerTable.
FlatKmerTable<std::uint32_t> concurrent_counts(
    const std::vector<bio::PackedKmer>& kmers,
    core::WarpExecutionEngine* pool, std::size_t min_slots = 64,
    std::uint64_t* rebuilds = nullptr) {
  ConcurrentKmerCountTable table(min_slots);
  concurrent_insert(table, kmers, pool);
  if (rebuilds != nullptr) *rebuilds = table.rebuilds();
  FlatKmerTable<std::uint32_t> out;
  table.export_into(out);
  return out;
}

// ---------------------------------------------------------------------------
// Raw-table differential tests.

TEST(ConcurrentKmerTable, SerialInsertsMatchCountMapOracle) {
  const auto kmers = sampled_kmers(101, 20000, 4000, 21);
  const KmerCounts oracle = oracle_counts(kmers);
  const auto table = concurrent_counts(kmers, nullptr);
  EXPECT_EQ(table.entries(), oracle.size());
  EXPECT_EQ(fingerprint_table(table), fingerprint_counts(oracle));
}

TEST(ConcurrentKmerTable, InterleavedInsertsMatchOracleAtEveryThreadCount) {
  const auto kmers = sampled_kmers(202, 60000, 6000, 21);
  const KmerCounts oracle = oracle_counts(kmers);
  const std::uint64_t want = fingerprint_counts(oracle);
  for (const auto& pool : test_pools()) {
    const auto table = concurrent_counts(kmers, pool.get());
    EXPECT_EQ(table.entries(), oracle.size())
        << "threads=" << (pool ? pool->n_threads() : 1);
    EXPECT_EQ(fingerprint_table(table), want)
        << "threads=" << (pool ? pool->n_threads() : 1);
  }
}

TEST(ConcurrentKmerTable, GrowthStormKeepsCountsExact) {
  // min_slots=4 forces every shard through many concurrent rebuilds: the
  // defer/drain handshake and rebuild re-placement are the code under test.
  const auto kmers = sampled_kmers(303, 50000, 20000, 21);
  const KmerCounts oracle = oracle_counts(kmers);
  const std::uint64_t want = fingerprint_counts(oracle);
  for (const auto& pool : test_pools()) {
    std::uint64_t rebuilds = 0;
    const auto table =
        concurrent_counts(kmers, pool.get(), /*min_slots=*/4, &rebuilds);
    EXPECT_GT(rebuilds, FlatKmerTable<std::uint32_t>::kShards)
        << "threads=" << (pool ? pool->n_threads() : 1);
    EXPECT_EQ(table.entries(), oracle.size());
    EXPECT_EQ(fingerprint_table(table), want)
        << "threads=" << (pool ? pool->n_threads() : 1);
  }
}

TEST(ConcurrentKmerTable, ReserveMakesStormFreeAndStaysExact) {
  const auto kmers = sampled_kmers(404, 30000, 8000, 21);
  const KmerCounts oracle = oracle_counts(kmers);
  ConcurrentKmerCountTable table;
  // 2x headroom: reserve() sizes shards for the *average* occupancy, so
  // hash skew across the 64 shards needs slack before growth disappears.
  table.reserve(oracle.size() * 2);
  const std::uint64_t reserved_rebuilds = table.rebuilds();
  const auto pool = make_pool(4);
  pool->run_host_batch(8, [&](std::size_t t, unsigned) {
    const std::size_t begin = kmers.size() * t / 8;
    const std::size_t end = kmers.size() * (t + 1) / 8;
    ConcurrentKmerCountTable::WriterScope scope(table);
    for (std::size_t i = begin; i < end; ++i) {
      table.insert(kmers[i], kmers[i].hash64());
      scope.checkpoint();
    }
  });
  // An accurate reservation means no growth at all during the batch.
  EXPECT_EQ(table.rebuilds(), reserved_rebuilds);
  FlatKmerTable<std::uint32_t> out;
  table.export_into(out);
  EXPECT_EQ(fingerprint_table(out), fingerprint_counts(oracle));
}

TEST(ConcurrentKmerTable, ExportedShardsIterateLikeTheOracle) {
  // dense_offsets + per-shard extract+sort must see the same per-shard
  // contents.
  const auto kmers = sampled_kmers(505, 40000, 5000, 21);
  const KmerCounts oracle = oracle_counts(kmers);
  const auto oracle_shards = extract_sorted_shards(oracle.table());
  for (const auto& pool : test_pools()) {
    const auto table = concurrent_counts(kmers, pool.get());
    EXPECT_EQ(extract_sorted_shards(table), oracle_shards)
        << "threads=" << (pool ? pool->n_threads() : 1);
  }

  // Masked reserve/export — the distributed recount case: only the masked
  // shards are sized and moved, the destination's other shards keep what
  // they held, and the source keeps its unmasked shards for a later export.
  constexpr std::uint64_t kMask = 0x5555555555555555ULL;
  const KmerCounts kept = oracle_counts(sampled_kmers(506, 5000, 3000, 21));
  const auto kept_shards = extract_sorted_shards(kept.table());
  for (const auto& pool : test_pools()) {
    const std::string where =
        "threads=" + std::to_string(pool ? pool->n_threads() : 1);
    ConcurrentKmerCountTable table;
    table.reserve(kmers.size(), kMask);
    EXPECT_EQ(table.rebuilds(),
              static_cast<std::uint64_t>(std::popcount(kMask)))
        << where;
    concurrent_insert(table, kmers, pool.get());
    FlatKmerTable<std::uint32_t> dest = kept.table();
    table.export_into(dest, kMask);
    FlatKmerTable<std::uint32_t> rest;
    table.export_into(rest, ~kMask);
    const auto dest_shards = extract_sorted_shards(dest);
    const auto rest_shards = extract_sorted_shards(rest);
    for (std::uint32_t s = 0; s < FlatKmerTable<std::uint32_t>::kShards;
         ++s) {
      if (kMask >> s & 1) {
        EXPECT_EQ(dest_shards[s], oracle_shards[s]) << where << " shard=" << s;
        EXPECT_TRUE(rest_shards[s].empty()) << where << " shard=" << s;
      } else {
        EXPECT_EQ(dest_shards[s], kept_shards[s]) << where << " shard=" << s;
        EXPECT_EQ(rest_shards[s], oracle_shards[s])
            << where << " shard=" << s;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// count_kmers vs the per-chunk + ordered-merge oracle.

// The counter the shared concurrent table replaced, kept as an oracle that
// does not share the table: per-chunk partial maps, then a deterministic
// merge one shard per task in ascending chunk order. Runs the two-phase
// structure even without a parallel pool (one chunk, then the merge pass).
KmerCounts count_kmers_merge(const bio::ReadSet& reads, std::uint32_t k,
                             bool canonical,
                             core::WarpExecutionEngine* pool) {
  const std::uint64_t windows = reads.total_kmers(k);
  KmerCounts counts;
  counts.reserve(distinct_estimate(windows));

  // Phase 1: per-chunk partial counts. The chunk decomposition is a pure
  // function of (read count, worker count) — whichever worker claims a
  // chunk produces the same partial map, so stealing cannot perturb the
  // merge below.
  const ChunkPlan plan(reads.size(), pool);
  std::vector<KmerCounts> partial(plan.n_chunks);
  stage_for(pool, plan.n_chunks, [&](std::size_t chunk, unsigned) {
    KmerCounts& local = partial[chunk];
    local.reserve(distinct_estimate(windows) / plan.n_chunks);
    insert_read_kmers(local, reads, plan.begin(chunk), plan.end(chunk), k,
                      canonical);
  });

  // Phase 2: deterministic ordered merge, one task per shard. A k-mer's
  // shard is a pure function of its hash, so tasks touch disjoint slots of
  // the destination; each task scans the partials in ascending chunk
  // order, making the merged layout — not just the contents — independent
  // of scheduling.
  stage_for(pool, KmerCounts::Table::kShards, [&](std::size_t shard,
                                                  unsigned) {
    const auto sid = static_cast<std::uint32_t>(shard);
    for (const KmerCounts& local : partial) {
      local.table().for_each_in_shard(
          sid, [&](const KmerCounts::Table::Entry& e) {
            counts.table().get_or_insert_in_shard(sid, e.key) += e.value;
          });
    }
  });
  counts.rebuild_size();
  return counts;
}

TEST(ConcurrentKmerTable, CountMatchesMergeOracleAtEveryThreadCount) {
  const bio::ReadSet reads = shotgun(random_seq(21, 6000), 12.0, 110, 77);
  for (const bool canonical : {false, true}) {
    const KmerCounts serial = count_kmers(reads, 21, canonical);
    const std::uint64_t want = fingerprint_counts(serial);
    for (const auto& pool : test_pools()) {
      const std::string where =
          "threads=" + std::to_string(pool ? pool->n_threads() : 1) +
          " canonical=" + std::to_string(canonical);
      const KmerCounts oracle =
          count_kmers_merge(reads, 21, canonical, pool.get());
      EXPECT_EQ(oracle.size(), serial.size()) << where;
      EXPECT_EQ(fingerprint_counts(oracle), want) << where;
      const KmerCounts counts = count_kmers(reads, 21, canonical, pool.get());
      EXPECT_EQ(counts.size(), serial.size()) << where;
      EXPECT_EQ(fingerprint_counts(counts), want) << where;
    }
  }
}

}  // namespace
}  // namespace lassm::pipeline
