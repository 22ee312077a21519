#pragma once

#include <cstdint>
#include <vector>

#include "bio/read.hpp"
#include "dist/dist_table.hpp"
#include "pipeline/dbg.hpp"

namespace lassm::core {
class WarpExecutionEngine;
}

/// Distributed pipeline front-end: k-mer counting, low-count filtering and
/// de Bruijn contig generation over a rank-sharded DistKmerTable, with all
/// remote operations batched through the MessageLayer. Every function here
/// is driver-thread orchestration; the worker pool only ever runs
/// rank-local work (chunk scans into the rank's shared concurrent count
/// table, per-shard passes), and every message is sent in a fixed
/// chunk and window order, so results are bit-identical to the 1-rank
/// oracle at every (ranks x threads) combination — the contract the
/// tests/dist suite pins.
namespace lassm::dist {

/// Per-run accounting of the distributed counting stage.
struct CountStats {
  std::uint64_t windows = 0;           ///< k-mer windows scanned
  std::uint64_t remote_msgs = 0;       ///< remote InsertMsgs actually sent
  /// Analytic prediction of remote_msgs: for each scanning rank, its
  /// windows land on a uniform hash, of which (64 - owned_shards) / 64
  /// are remote. The weak-scaling bench holds the measured value to this
  /// within 5%.
  double remote_msgs_model = 0.0;
};

/// Counts k-mers of `reads` into the rank-sharded table: reads are split
/// into contiguous blocks across the live ranks, and each block is
/// scanned in deterministic chunks through pipeline::insert_read_kmers.
/// Locally-owned k-mers go into one concurrent count table per rank, whose
/// storage then moves into the rank's masked owned shards (count_kmers'
/// shared-table path); remote k-mers are enqueued uncombined to their
/// owners in chunk and window order. One flush epoch then delivers, and
/// every rank drains its remote inserts in (src, send-order). `shard_mask`
/// restricts the scan to k-mers of the set shards (bit s = FlatKmerTable
/// shard s): ~0 for a full count, the orphaned shards for rank-loss
/// recounting. The masked shards must be empty on entry (the moved
/// storage replaces them); every other shard is left untouched. Every
/// live rank's size() is rebuilt before returning.
CountStats count_kmers_dist(DistKmerTable& table, const bio::ReadSet& reads,
                            std::uint32_t k, std::uint64_t shard_mask,
                            core::WarpExecutionEngine* pool);

/// Applies the low-count error filter on every live rank's local shards.
/// Returns the total k-mers tombstoned (== the oracle's filter count).
std::size_t filter_low_count_dist(DistKmerTable& table,
                                  std::uint32_t min_count,
                                  core::WarpExecutionEngine* pool);

/// Distributed de Bruijn contig generation, bit-identical to
/// pipeline::generate_contigs on the merged table. Each rank classifies
/// its owned nodes with batched remote degree probes (two find epochs:
/// successor/predecessor presence, then the unique predecessor's
/// out-degree for head detection), walks unitigs from its heads with
/// cross-rank handoff via batched walk messages, and a final serial pass
/// in global sorted order breaks the remaining pure cycles exactly where
/// the oracle breaks them.
bio::ContigSet generate_contigs_dist(DistKmerTable& table, std::uint32_t k,
                                     std::uint32_t min_len,
                                     pipeline::DbgStats* stats,
                                     core::WarpExecutionEngine* pool);

}  // namespace lassm::dist
