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

KmerCounts count_kmers_stream(bio::SequenceStreamReader& reader,
                              std::uint32_t k, bool canonical,
                              core::WarpExecutionEngine* pool,
                              StreamCountStats* stats) {
  ConcurrentKmerCountTable table;
  StreamCountStats st;
  bio::ReadSet cur, next;
  std::uint64_t windows_seen = 0;
  bool have = reader.next_block(cur);
  while (have) {
    const std::uint64_t block_windows = cur.total_kmers(k);
    // Reserve from observed block statistics: the first block uses the
    // same windows/4 density prior as the in-memory path (applied to one
    // block, not the whole file); later blocks extrapolate the *measured*
    // distinct-per-window ratio with 25% headroom. A miss only costs
    // amortised shard growth. Quiescent here — no writers yet/any more.
    std::uint64_t expect;
    if (windows_seen == 0) {
      expect = distinct_estimate(block_windows);
    } else {
      const double ratio = static_cast<double>(table.entries()) /
                           static_cast<double>(windows_seen);
      expect = table.entries() +
               static_cast<std::uint64_t>(
                   static_cast<double>(block_windows) * ratio * 1.25) +
               1024;
    }
    table.reserve(expect);
    st.reserved_entries = std::max(st.reserved_entries, expect);
    windows_seen += block_windows;

    // Overlap: one extra host-batch task parses the next block while the
    // others count the current one. The batch barrier orders the parse
    // result (and `have_next`) before the reads below.
    bool have_next = false;
    if (pool_parallel(pool) && cur.size() > 1) {
      const ChunkPlan plan(cur.size(), pool);
      pool->run_host_batch(
          plan.n_chunks + 1, [&](std::size_t i, unsigned) {
            if (i == plan.n_chunks) {
              have_next = reader.next_block(next);
              return;
            }
            ConcurrentKmerCountTable::WriterScope writer(table);
            insert_read_kmers(writer, cur, plan.begin(i), plan.end(i), k,
                              canonical);
          });
    } else {
      {
        ConcurrentKmerCountTable::WriterScope writer(table);
        insert_read_kmers(writer, cur, 0, cur.size(), k, canonical);
      }
      have_next = reader.next_block(next);
    }
    st.peak_resident_bases =
        std::max(st.peak_resident_bases,
                 cur.total_bases() + next.total_bases());
    std::swap(cur, next);
    have = have_next;
  }
  const bio::SequenceStreamReader::Stats& rs = reader.stats();
  st.blocks = rs.blocks;
  st.reads = rs.reads;
  st.bases = rs.bases;
  st.dropped_reads = rs.dropped_reads;
  st.windows = windows_seen;
  st.table_rebuilds = table.rebuilds();
  KmerCounts counts;
  table.export_into(counts.table());
  counts.rebuild_size();
  if (stats != nullptr) *stats = st;
  return counts;
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
