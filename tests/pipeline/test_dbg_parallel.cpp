// Differential test of de Bruijn contig generation against a sorted serial
// walker: sort every node, classify each with successor and predecessor
// probes, then walk from the heads in sorted order and break the leftover
// cycles at their smallest k-mer. generate_contigs walks all heads in
// parallel over per-slot edge arrays instead; contigs, depth bits and
// DbgStats must equal the oracle's at every thread count, on small graphs
// built to hit each stopping rule and on random read sets with errors.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bio/rng.hpp"
#include "core/exec.hpp"
#include "pipeline/dbg.hpp"
#include "pipeline/kmer_analysis.hpp"

namespace lassm::pipeline {
namespace {

using Table = KmerCounts::Table;

// ---------------------------------------------------------------------------
// Oracle: the serial sorted walker.

bool is_node(const std::uint32_t* count) noexcept {
  return count != nullptr && *count != 0;
}

int out_degree(const Table& nodes, const bio::PackedKmer& km,
               int* only_code = nullptr) {
  int degree = 0;
  for (int code = 0; code < bio::kNumBases; ++code) {
    if (is_node(nodes.find(km.successor(code)))) {
      ++degree;
      if (only_code != nullptr) *only_code = code;
    }
  }
  return degree;
}

int in_degree(const Table& nodes, const bio::PackedKmer& km,
              bio::PackedKmer* only_pred = nullptr) {
  int degree = 0;
  for (int code = 0; code < bio::kNumBases; ++code) {
    const bio::PackedKmer pred = km.predecessor(code);
    if (is_node(nodes.find(pred))) {
      ++degree;
      if (only_pred != nullptr) *only_pred = pred;
    }
  }
  return degree;
}

bio::ContigSet oracle_contigs(const KmerCounts& counts, std::uint32_t min_len,
                              DbgStats* stats) {
  const Table& table = counts.table();
  std::vector<bio::PackedKmer> order;
  for (std::uint32_t s = 0; s < Table::kShards; ++s) {
    table.for_each_in_shard(s, [&](const Table::Entry& e) {
      if (e.value != 0) order.push_back(e.key);
    });
  }
  std::sort(order.begin(), order.end());

  stats->nodes = counts.size();
  std::vector<std::uint8_t> is_head(order.size(), 0);
  for (std::size_t i = 0; i < order.size(); ++i) {
    bio::PackedKmer only_pred;
    const int in = in_degree(table, order[i], &only_pred);
    is_head[i] = (in != 1 || out_degree(table, only_pred) > 1) ? 1 : 0;
    const int out = out_degree(table, order[i]);
    if (out > 1) ++stats->forks;
    if (out == 0) ++stats->dead_ends;
  }

  const auto offsets = table.dense_offsets();
  std::vector<std::uint8_t> visited(offsets.back(), 0);
  bio::ContigSet contigs;
  const auto emit_path = [&](const bio::PackedKmer& start) {
    const Table::Found s = table.dense_find(start, offsets);
    if (visited[s.id] != 0) return;
    std::string seq = start.unpack();
    double depth_sum = static_cast<double>(*s.value);
    std::uint64_t path_nodes = 1;
    visited[s.id] = 1;
    bio::PackedKmer cur = start;
    while (true) {
      int only_code = -1;
      if (out_degree(table, cur, &only_code) != 1) break;
      const bio::PackedKmer next = cur.successor(only_code);
      const Table::Found f = table.dense_find(next, offsets);
      if (visited[f.id] != 0) break;
      if (in_degree(table, next) != 1) break;
      seq.push_back(bio::code_to_base(only_code));
      depth_sum += static_cast<double>(*f.value);
      visited[f.id] = 1;
      cur = next;
      ++path_nodes;
    }
    if (seq.size() >= min_len) {
      bio::Contig c;
      c.id = contigs.size();
      c.seq = std::move(seq);
      c.depth = depth_sum / static_cast<double>(path_nodes);
      contigs.push_back(std::move(c));
    }
  };
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (is_head[i] != 0) emit_path(order[i]);
  }
  for (const bio::PackedKmer& km : order) emit_path(km);

  stats->contigs = contigs.size();
  return contigs;
}

// ---------------------------------------------------------------------------
// Comparison across thread counts.

std::uint64_t bits_of(double d) {
  std::uint64_t b = 0;
  std::memcpy(&b, &d, sizeof b);
  return b;
}

std::unique_ptr<core::WarpExecutionEngine> make_pool(unsigned n_threads) {
  return std::make_unique<core::WarpExecutionEngine>(
      simt::DeviceSpec::a100(), simt::ProgrammingModel::kCuda,
      core::AssemblyOptions{}, n_threads);
}

/// Runs generate_contigs serially and on 2- and 4-worker pools and checks
/// each against the oracle. Returns the oracle's contigs for shape checks.
bio::ContigSet expect_matches_oracle(const KmerCounts& counts,
                                     std::uint32_t k,
                                     std::uint32_t min_len = 0) {
  DbgStats want_stats;
  bio::ContigSet want = oracle_contigs(counts, min_len, &want_stats);
  std::vector<std::unique_ptr<core::WarpExecutionEngine>> pools;
  pools.push_back(nullptr);
  pools.push_back(make_pool(2));
  pools.push_back(make_pool(4));
  for (const auto& pool : pools) {
    const unsigned threads = pool ? pool->n_threads() : 1;
    SCOPED_TRACE("threads=" + std::to_string(threads) +
                 " k=" + std::to_string(k) +
                 " min_len=" + std::to_string(min_len));
    DbgStats stats;
    const bio::ContigSet got =
        generate_contigs(counts, k, min_len, &stats, pool.get());
    EXPECT_EQ(stats.nodes, want_stats.nodes);
    EXPECT_EQ(stats.forks, want_stats.forks);
    EXPECT_EQ(stats.dead_ends, want_stats.dead_ends);
    EXPECT_EQ(stats.contigs, want_stats.contigs);
    EXPECT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
      EXPECT_EQ(got[i].id, want[i].id) << i;
      EXPECT_EQ(got[i].seq, want[i].seq) << i;
      EXPECT_EQ(bits_of(got[i].depth), bits_of(want[i].depth)) << i;
    }
  }
  return want;
}

// ---------------------------------------------------------------------------
// Graphs.

std::string random_seq(std::uint64_t seed, std::size_t len) {
  bio::Xoshiro256 rng(seed);
  std::string s(len, 'A');
  for (char& c : s) c = bio::code_to_base(static_cast<int>(rng.below(4)));
  return s;
}

KmerCounts counts_of(const std::vector<std::string>& seqs, std::uint32_t k) {
  bio::ReadSet rs;
  for (const std::string& s : seqs) rs.append(s, 35);
  return count_kmers(rs, k);
}

/// The k-mers of `unit` read as a circle.
std::string circular(const std::string& unit, std::uint32_t k) {
  return unit + unit.substr(0, k - 1);
}

TEST(FrontendParallel, DbgMatchesOracleOnPolyASelfLoop) {
  const auto want =
      expect_matches_oracle(counts_of({std::string(40, 'A')}, 21), 21);
  ASSERT_EQ(want.size(), 1U);
  EXPECT_EQ(want[0].seq, std::string(21, 'A'));
}

TEST(FrontendParallel, DbgMatchesOracleOnTwoDisjointCycles) {
  const auto want = expect_matches_oracle(
      counts_of({circular(random_seq(21, 60), 21),
                 circular(random_seq(22, 80), 21)},
                21),
      21);
  ASSERT_EQ(want.size(), 2U);
  EXPECT_EQ(want[0].seq.size() + want[1].seq.size(), 60U + 80U + 2 * 20U);
}

TEST(FrontendParallel, DbgMatchesOracleOnTailIntoCycle) {
  const std::string unit = random_seq(31, 70);
  const auto want = expect_matches_oracle(
      counts_of({random_seq(32, 30) + circular(unit, 21)}, 21), 21);
  EXPECT_EQ(want.size(), 2U);  // the tail, then the cycle from the join
}

TEST(FrontendParallel, DbgMatchesOracleOnForkIntoJoins) {
  // The branches differ in their first and last base, so they fork at one
  // node and join at one node.
  const std::string prefix = random_seq(41, 40);
  const std::string suffix = random_seq(42, 40);
  const auto want = expect_matches_oracle(
      counts_of({prefix + "A" + random_seq(43, 30) + "A" + suffix,
                 prefix + "C" + random_seq(44, 30) + "C" + suffix,
                 prefix + "G" + random_seq(45, 30) + "G" + suffix},
                21),
      21);
  EXPECT_EQ(want.size(), 5U);  // prefix, three branches, suffix
}

TEST(FrontendParallel, DbgMatchesOracleOnPathsBrokenByTombstones) {
  // Windows of s[0,70) and s[80,150) occur three times, the 30 windows in
  // between once; a substituted copy adds a once-seen branch at 30. The
  // filter tombstones the once-seen k-mers: the branch's fork disappears
  // and the path breaks at the gap.
  const std::string s = random_seq(51, 150);
  std::string mutated = s;
  mutated[30] = mutated[30] == 'A' ? 'C' : 'A';
  KmerCounts counts = counts_of({s.substr(0, 70), s.substr(0, 70),
                                 s.substr(80), s.substr(80), s, mutated},
                                21);
  EXPECT_GT(filter_low_count(counts, 3), 0U);
  const auto want = expect_matches_oracle(counts, 21);
  ASSERT_EQ(want.size(), 2U);
  EXPECT_EQ(want[0].seq.size() + want[1].seq.size(), 70U + 70U);
}

TEST(FrontendParallel, DbgMatchesOracleOnRandomReadSets) {
  // A genome with a repeat (forks and joins) sampled at 12x with 1%
  // substitutions, then filtered: tips, bubbles and tombstones throughout.
  // k = 55 and 77 span more than one key word.
  std::string genome = random_seq(61, 4000);
  genome.replace(2500, 200, genome.substr(600, 200));
  bio::Xoshiro256 rng(62);
  bio::ReadSet reads;
  constexpr std::size_t kReadLen = 120;
  for (std::size_t r = 0; r < 12 * genome.size() / kReadLen; ++r) {
    std::string read = genome.substr(rng.below(genome.size() - kReadLen),
                                     kReadLen);
    for (char& c : read) {
      if (rng.below(100) == 0) {
        c = bio::code_to_base(static_cast<int>(rng.below(4)));
      }
    }
    reads.append(read, 35);
  }
  for (const std::uint32_t k : {21U, 33U, 55U, 77U}) {
    KmerCounts counts = count_kmers(reads, k);
    filter_low_count(counts, 2);
    const auto want = expect_matches_oracle(counts, k);
    EXPECT_GT(want.size(), 1U);
    expect_matches_oracle(counts, k, 200);
  }
}

}  // namespace
}  // namespace lassm::pipeline
