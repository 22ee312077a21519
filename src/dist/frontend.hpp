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
/// is driver-thread orchestration of pool work: chunk scans that split a
/// rank's windows into its shared concurrent count table and per-owner
/// send lists, per-rank insert drains, per-(rank, shard) find requests
/// and classification passes, and walks from each rank's heads. Pool
/// tasks only read delivered inboxes; the driver enqueues every message
/// (a whole per-link list at a time) in an order fixed by the data and
/// flushes, so results and traffic are bit-identical to the 1-rank
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
/// shared-table path); remote k-mers are listed per owner and enqueued
/// uncombined in chunk and window order. One flush epoch then delivers,
/// and every rank drains its remote inserts in (src, send-order), one
/// pool task per rank. `shard_mask`
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
/// pipeline::generate_contigs on the merged table and walked by the same
/// step loop (pipeline/unitig_walk.hpp). Each rank classifies its owned
/// nodes into a Slot array over its local table's dense ids from two
/// DistKmerTable::find_batch calls: every node's 4 successors and 4
/// predecessors, then the unique predecessor's 4 successors for each node
/// of in-degree 1. A successor owned by another rank points at the rank's
/// sentinel slot, where the step loop stops; the driver then sends the
/// walk's header to the successor's owner (its sequence billed as bulk
/// bytes, the record itself passed through a per-link FIFO), which checks
/// the arrival and continues the loop.
/// Pass 1 walks every rank's heads on the pool and drains the handoffs in
/// flush supersteps; pass 2 breaks the remaining pure cycles, serially in
/// global k-mer order, exactly where the oracle breaks them. The messages
/// sent depend only on the graph and the shard map: 2 per remote find
/// plus 1 per node of out-degree 1 whose successor lives elsewhere.
bio::ContigSet generate_contigs_dist(DistKmerTable& table, std::uint32_t k,
                                     std::uint32_t min_len,
                                     pipeline::DbgStats* stats,
                                     core::WarpExecutionEngine* pool);

}  // namespace lassm::dist
