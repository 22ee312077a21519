#pragma once

#include <cstdint>

#include "bio/contig.hpp"
#include "pipeline/kmer_analysis.hpp"

namespace lassm::core {
class WarpExecutionEngine;
}

/// Global de Bruijn graph construction and contig generation (Fig. 2): the
/// filtered k-mer set forms a graph whose maximal non-branching paths are
/// the contigs that local assembly later extends.
namespace lassm::pipeline {

struct DbgStats {
  std::uint64_t nodes = 0;
  std::uint64_t forks = 0;        ///< nodes with out-degree > 1
  std::uint64_t dead_ends = 0;    ///< nodes with out-degree 0
  std::uint64_t contigs = 0;
};

/// Emits one contig per maximal unambiguous path in the k-mer graph.
/// Paths stop at forks (out-degree > 1), joins (next node in-degree > 1),
/// dead ends, and when a cycle closes. Contigs shorter than min_len are
/// dropped. Paths from heads (nodes whose in-degree is not 1, or whose
/// unique predecessor forks) come first, in lexicographic order of their
/// start k-mer; then the perfect cycles, each broken at its smallest k-mer
/// and emitted in that k-mer's order.
///
/// The node set IS the count map: one classification pass over its dense
/// slots records each node's out-degree, edge code, successor slot and
/// depth, and weighs each successor's in-edges (a forking predecessor
/// counts twice), so walks never probe the table. The slot array and the
/// walk loop are shared with dist::generate_contigs_dist
/// (pipeline/unitig_walk.hpp), which fills the slots from batched remote
/// probes instead.
/// With a parallel `pool`, classification and the head walks run one task
/// per shard (walks from heads never share a node) and only the few cycle
/// walks stay serial; contigs, depths and stats are bit-identical at every
/// thread count.
bio::ContigSet generate_contigs(const KmerCounts& counts, std::uint32_t k,
                                std::uint32_t min_len = 0,
                                DbgStats* stats = nullptr,
                                core::WarpExecutionEngine* pool = nullptr);

}  // namespace lassm::pipeline
