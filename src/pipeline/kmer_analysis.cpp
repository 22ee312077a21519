#include "pipeline/kmer_analysis.hpp"

#include <algorithm>
#include <array>
#include <vector>

#include "pipeline/parallel.hpp"

namespace lassm::pipeline {

namespace {

/// Serial direct counting (no pool workers).
KmerCounts count_kmers_serial(const bio::ReadSet& reads, std::uint32_t k,
                              bool canonical) {
  KmerCounts counts;
  counts.reserve(distinct_estimate(reads.total_kmers(k)));
  insert_read_kmers(counts, reads, 0, reads.size(), k, canonical);
  return counts;
}

/// Concurrent counting: every chunk task inserts straight into one shared
/// lock-free table, whose shards then *move* into the result — there is no
/// merge pass. One WriterScope checkpoint per read (insert_read_kmers'
/// per-read hook) keeps shard rebuilds from waiting longer than ~a read's
/// worth of inserts for quiescence.
KmerCounts count_kmers_concurrent(const bio::ReadSet& reads, std::uint32_t k,
                                  bool canonical,
                                  core::WarpExecutionEngine* pool) {
  ConcurrentKmerCountTable table;
  table.reserve(distinct_estimate(reads.total_kmers(k)));
  const ChunkPlan plan(reads.size(), pool);
  stage_for(pool, plan.n_chunks, [&](std::size_t chunk, unsigned) {
    ConcurrentKmerCountTable::WriterScope writer(table);
    insert_read_kmers(writer, reads, plan.begin(chunk), plan.end(chunk), k,
                      canonical);
  });
  // The batch barrier above is the happens-before that makes the moved
  // storage plainly readable downstream.
  KmerCounts counts;
  table.export_into(counts.table());
  counts.rebuild_size();
  return counts;
}

}  // namespace

KmerCounts count_kmers(const bio::ReadSet& reads, std::uint32_t k,
                       bool canonical, core::WarpExecutionEngine* pool) {
  if (!pool_parallel(pool) || reads.size() < 2) {
    return count_kmers_serial(reads, k, canonical);
  }
  return count_kmers_concurrent(reads, k, canonical, pool);
}

std::size_t filter_low_count(KmerCounts& counts, std::uint32_t min_count,
                             core::WarpExecutionEngine* pool) {
  using Table = KmerCounts::Table;
  std::array<std::size_t, Table::kShards> removed{};
  stage_for(pool, Table::kShards, [&](std::size_t shard, unsigned) {
    std::size_t n = 0;
    counts.table().for_each_in_shard(
        static_cast<std::uint32_t>(shard), [&](Table::Entry& e) {
          if (e.value != 0 && e.value < min_count) {
            e.value = 0;  // tombstone: reads as absent, keeps probe chains
            ++n;
          }
        });
    removed[shard] = n;
  });
  std::size_t total = 0;
  for (const std::size_t n : removed) total += n;
  counts.note_erased(total);
  return total;
}

std::vector<std::uint64_t> count_histogram(const KmerCounts& counts,
                                           std::uint32_t max_bucket,
                                           core::WarpExecutionEngine* pool) {
  using Table = KmerCounts::Table;
  std::vector<std::vector<std::uint64_t>> partial(
      Table::kShards, std::vector<std::uint64_t>(max_bucket + 1, 0));
  stage_for(pool, Table::kShards, [&](std::size_t shard, unsigned) {
    std::vector<std::uint64_t>& hist = partial[shard];
    counts.table().for_each_in_shard(
        static_cast<std::uint32_t>(shard), [&](const Table::Entry& e) {
          if (e.value != 0) hist[std::min(e.value, max_bucket)] += 1;
        });
  });
  std::vector<std::uint64_t> hist(max_bucket + 1, 0);
  for (const auto& h : partial) {
    for (std::size_t b = 0; b < hist.size(); ++b) hist[b] += h[b];
  }
  return hist;
}

}  // namespace lassm::pipeline
