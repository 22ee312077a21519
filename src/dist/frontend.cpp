#include "dist/frontend.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <deque>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>

#include "pipeline/parallel.hpp"
#include "pipeline/unitig_walk.hpp"

namespace lassm::dist {

namespace {

using Table = pipeline::KmerCounts::Table;
namespace unitig = pipeline::unitig;
using Channel = DistKmerTable::Channel;

/// Contiguous read block [begin, end) for the li-th of n_live ranks.
struct ReadBlock {
  std::size_t begin;
  std::size_t end;
};

ReadBlock block_of(std::size_t n_reads, std::size_t li, std::size_t n_live) {
  return {n_reads * li / n_live, n_reads * (li + 1) / n_live};
}

std::uint64_t owned_mask_of(const ShardMap& map, std::uint32_t rank) {
  std::uint64_t m = 0;
  for (const std::uint32_t s : map.shards_of(rank)) m |= std::uint64_t{1} << s;
  return m;
}

using InsertMsg = DistKmerTable::InsertMsg;

/// pipeline::insert_read_kmers sink for one chunk of a rank's read block:
/// windows of the rank's own masked shards go into its shared concurrent
/// table, windows of other ranks' masked shards onto the chunk's send
/// list for their owner in window order, and unmasked windows are only
/// counted. Shards outside `local_mask` stay empty in the table, so
/// prefetching their slots is a no-op.
struct RankChunkSink {
  pipeline::ConcurrentKmerCountTable::WriterScope writer;
  const ShardMap& map;
  std::uint64_t shard_mask;
  std::uint64_t local_mask;
  std::vector<std::vector<InsertMsg>>& remote;  ///< per owner rank
  std::uint64_t windows = 0;  ///< every window scanned
  std::uint64_t masked = 0;   ///< windows of masked shards

  void checkpoint() { writer.checkpoint(); }
  void prefetch(std::uint64_t h) const noexcept { writer.prefetch(h); }
  void add_hashed(const bio::PackedKmer& km, std::uint64_t h) {
    ++windows;
    const std::uint32_t shard = Table::shard_of_hash(h);
    if ((shard_mask >> shard & 1) == 0) return;
    ++masked;
    if (local_mask >> shard & 1) {
      writer.add_hashed(km, h);
    } else {
      remote[map.owner_of_shard(shard)].push_back(InsertMsg{km, 1});
    }
  }
};

}  // namespace

CountStats count_kmers_dist(DistKmerTable& table, const bio::ReadSet& reads,
                            std::uint32_t k, std::uint64_t shard_mask,
                            core::WarpExecutionEngine* pool) {
  const ShardMap& map = table.map();
  const std::vector<std::uint32_t> live = map.live_ranks();
  // Blocks split the reads evenly, so each rank scans about this many
  // windows; the estimate only sizes the ranks' count tables.
  const std::uint64_t rank_windows =
      reads.total_kmers(k) / std::max<std::size_t>(live.size(), 1);
  CountStats stats;

  for (std::size_t li = 0; li < live.size(); ++li) {
    const std::uint32_t rank = live[li];
    const ReadBlock block = block_of(reads.size(), li, live.size());
    const std::size_t n_block = block.end - block.begin;
    const std::uint64_t owned = owned_mask_of(map, rank);

    // Chunked block scan: the rank's own windows into one shared
    // concurrent table, reserved and exported for its masked shards only
    // (the rest of its local table — e.g. shards kept through a recount —
    // is left untouched); remote windows into per-chunk, per-owner send
    // lists.
    const std::uint64_t local_mask = shard_mask & owned;
    pipeline::ConcurrentKmerCountTable counts;
    counts.reserve(pipeline::distinct_estimate(rank_windows), local_mask);
    const pipeline::ChunkPlan plan(n_block, pool);
    std::vector<std::vector<std::vector<InsertMsg>>> remote(
        plan.n_chunks, std::vector<std::vector<InsertMsg>>(map.n_ranks()));
    std::vector<std::uint64_t> windows_all(plan.n_chunks, 0);
    std::vector<std::uint64_t> windows_masked(plan.n_chunks, 0);
    pipeline::stage_for(pool, plan.n_chunks, [&](std::size_t chunk, unsigned) {
      RankChunkSink sink{
          pipeline::ConcurrentKmerCountTable::WriterScope(counts), map,
          shard_mask, local_mask, remote[chunk]};
      pipeline::insert_read_kmers(sink, reads, block.begin + plan.begin(chunk),
                                  block.begin + plan.end(chunk), k,
                                  /*canonical=*/false);
      windows_all[chunk] = sink.windows;
      windows_masked[chunk] = sink.masked;
    });
    // The batch barrier above orders every insert before the move.
    counts.export_into(table.local(rank).table(), local_mask);

    // Remote sends in ascending chunk order = global window order per
    // destination. Uncombined (one InsertMsg per remote window) — the
    // traffic the analytic model predicts.
    std::uint64_t masked = 0;
    for (std::size_t chunk = 0; chunk < plan.n_chunks; ++chunk) {
      stats.windows += windows_all[chunk];
      masked += windows_masked[chunk];
      for (std::uint32_t owner = 0; owner < map.n_ranks(); ++owner) {
        table.send_inserts(rank, owner, remote[chunk][owner]);
        stats.remote_msgs += remote[chunk][owner].size();
      }
      remote[chunk] = {};
    }

    // Expected remote fraction of this rank's masked windows: uniform
    // hashes land uniformly on the masked shards, of which the non-owned
    // ones go remote.
    const int masked_shards = std::popcount(shard_mask);
    const int remote_shards = std::popcount(shard_mask & ~owned);
    if (masked_shards > 0) {
      stats.remote_msgs_model += static_cast<double>(masked) *
                                 remote_shards / masked_shards;
    }
  }

  // One flush epoch delivers every rank's remote inserts; each owner
  // drains its inbox (ascending src, send order) into its own table, one
  // pool task per rank.
  table.msg().flush();
  pipeline::stage_for(pool, live.size(), [&](std::size_t li, unsigned) {
    table.drain_inserts(live[li]);
    table.local(live[li]).rebuild_size();
  });
  return stats;
}

std::size_t filter_low_count_dist(DistKmerTable& table,
                                  std::uint32_t min_count,
                                  core::WarpExecutionEngine* pool) {
  std::size_t removed = 0;
  for (const std::uint32_t rank : table.map().live_ranks()) {
    removed += pipeline::filter_low_count(table.local(rank), min_count, pool);
  }
  return removed;
}

namespace {

using unitig::Slot;
using unitig::WalkRecord;
using FindRequests = DistKmerTable::RankShardLists<bio::PackedKmer>;

/// A rank's classified share of the graph: one Slot per dense id of its
/// local table, then the sentinel that every remote successor points to.
/// The sentinel's in_weight is 0, so the shared step loop stops there
/// exactly where the walk has to leave the rank.
struct RankSlots {
  unitig::Offsets offsets{};
  std::vector<Slot> slots;
  std::vector<std::uint8_t> visited;

  std::uint32_t sentinel() const noexcept {
    return static_cast<std::uint32_t>(offsets.back());
  }
};

/// Runs f(rank, shard) for every live rank and table shard, one pool task
/// each.
template <class F>
void for_each_rank_shard(core::WarpExecutionEngine* pool,
                         const std::vector<std::uint32_t>& live, F&& f) {
  pipeline::stage_for(pool, live.size() * Table::kShards,
                      [&](std::size_t t, unsigned) {
                        f(live[t / Table::kShards],
                          static_cast<std::uint32_t>(t % Table::kShards));
                      });
}

/// The frame of a walk crossing ranks on the walk channel. The walk's
/// sequence so far is billed alongside as seq_len bulk bytes, as if it
/// followed the header; the record itself waits in the router.
struct WalkHeader {
  bio::PackedKmer head;
  bio::PackedKmer next;        ///< candidate node on the receiving rank
  double depth_sum;
  std::uint64_t path_nodes;
  std::int32_t base_code;      ///< edge code into `next` (appended on accept)
  std::uint32_t seq_len;
};

/// Routes walks between ranks: a walk whose local run stopped at the
/// sentinel goes to the successor's owner, which checks the arrival and
/// continues the shared step loop; every other walk is finished. A
/// handed-off record moves into its link's FIFO, which delivers in send
/// order like the link's frames.
class WalkRouter {
 public:
  WalkRouter(DistKmerTable& table, std::vector<RankSlots>& ranks)
      : table_(table),
        ranks_(ranks),
        in_flight_(static_cast<std::size_t>(table.map().n_ranks()) *
                   table.map().n_ranks()) {}

  /// Finishes `r` into `out`, or hands it off when its last node's only
  /// successor lives on another rank.
  void settle(std::uint32_t rank, WalkRecord& r,
              std::vector<WalkRecord>& out) {
    const RankSlots& g = ranks_[rank];
    const Slot& s = g.slots[r.last];
    if (s.out_deg != 1 || s.next_id != g.sentinel()) {
      out.push_back(std::move(r));
      return;
    }
    // The last k bases of the walk spell its last node.
    const std::uint32_t k = r.head.k();
    WalkHeader hdr;
    hdr.head = r.head;
    hdr.next = bio::PackedKmer::pack(
                   std::string_view(r.seq).substr(r.seq.size() - k))
                   .successor(s.out_code);
    hdr.depth_sum = r.depth_sum;
    hdr.path_nodes = r.path_nodes;
    hdr.base_code = s.out_code;
    hdr.seq_len = static_cast<std::uint32_t>(r.seq.size());
    const std::uint32_t owner = table_.map().rank_of_hash(hdr.next.hash64());
    MessageLayer& msg = table_.msg();
    msg.send(rank, owner, Channel::kWalkChannel, hdr);
    msg.bill_bulk(rank, owner, 0, hdr.seq_len);
    in_flight_[link(rank, owner)].push_back(std::move(r));
  }

  /// Runs flush/receive supersteps until no walk message is in flight.
  void drain(const std::vector<std::uint32_t>& live,
             std::vector<WalkRecord>& out) {
    MessageLayer& msg = table_.msg();
    while (msg.pending() > 0) {
      msg.flush();
      for (const std::uint32_t rank : live) {
        msg.for_each<WalkHeader>(
            rank, Channel::kWalkChannel,
            [&](std::uint32_t src, const WalkHeader& hdr) {
              receive(src, rank, hdr, out);
            });
      }
    }
  }

 private:
  std::size_t link(std::uint32_t src, std::uint32_t dst) const noexcept {
    return static_cast<std::size_t>(src) * table_.map().n_ranks() + dst;
  }

  /// Receiving side of a handoff: the arrival is one step of the shared
  /// loop (the sender could not read the join and visited checks), then
  /// the loop continues locally.
  void receive(std::uint32_t src, std::uint32_t rank, const WalkHeader& hdr,
               std::vector<WalkRecord>& out) {
    std::deque<WalkRecord>& fifo = in_flight_[link(src, rank)];
    WalkRecord r = std::move(fifo.front());
    fifo.pop_front();
    RankSlots& g = ranks_[rank];
    const auto id = static_cast<std::uint32_t>(
        table_.local(rank).table().dense_find(hdr.next, g.offsets).id);
    if (!unitig::absorb(g.slots.data(), g.visited.data(), r, hdr.base_code,
                        id)) {
      out.push_back(std::move(r));
      return;
    }
    unitig::extend(g.slots.data(), g.visited.data(), r);
    settle(rank, r, out);
  }

  DistKmerTable& table_;
  std::vector<RankSlots>& ranks_;
  std::vector<std::deque<WalkRecord>> in_flight_;  ///< per (src, dst) link
};

}  // namespace

bio::ContigSet generate_contigs_dist(DistKmerTable& table, std::uint32_t k,
                                     std::uint32_t min_len,
                                     pipeline::DbgStats* stats,
                                     core::WarpExecutionEngine* pool) {
  (void)k;  // implied by the packed keys, as in generate_contigs
  const ShardMap& map = table.map();
  const std::vector<std::uint32_t> live = map.live_ranks();
  const auto local_table = [&](std::uint32_t rank) -> const Table& {
    return table.local(rank).table();
  };

  std::vector<RankSlots> ranks(map.n_ranks());
  for (const std::uint32_t rank : live) {
    RankSlots& g = ranks[rank];
    g.offsets =
        unitig::slot_offsets(local_table(rank), "generate_contigs_dist");
    g.slots.assign(g.offsets.back() + 1, Slot{});
    g.visited.assign(g.offsets.back() + 1, 0);
  }

  // Classification find A: every owned node's four successors, then its
  // four predecessors, listed per (rank, shard) in dense order.
  FindRequests probes(map.n_ranks());
  for_each_rank_shard(pool, live, [&](std::uint32_t rank,
                                      std::uint32_t shard) {
    std::vector<bio::PackedKmer>& req = probes[rank][shard];
    unitig::for_each_node_in_shard(
        local_table(rank), ranks[rank].offsets, shard,
        [&](std::uint32_t, const Table::Entry& e) {
          for (int code = 0; code < bio::kNumBases; ++code) {
            req.push_back(e.key.successor(code));
          }
          for (int code = 0; code < bio::kNumBases; ++code) {
            req.push_back(e.key.predecessor(code));
          }
        });
  });
  DistKmerTable::RankShardLists<std::uint32_t> found =
      table.find_batch(std::move(probes), pool);

  // Each node's own slot: depth, out-degree, the last present edge code
  // and, when the only successor is owned here, its dense id (else the
  // sentinel). in_weight holds the in-degree until find B, which lists
  // the unique predecessor's four successors for each node of in-degree 1.
  std::atomic<std::uint64_t> forks{0};
  std::atomic<std::uint64_t> dead_ends{0};
  FindRequests pred_probes(map.n_ranks());
  for_each_rank_shard(pool, live, [&](std::uint32_t rank,
                                      std::uint32_t shard) {
    RankSlots& g = ranks[rank];
    const std::uint32_t* v = found[rank][shard].data();
    std::vector<bio::PackedKmer>& req = pred_probes[rank][shard];
    unitig::for_each_node_in_shard(
        local_table(rank), g.offsets, shard,
        [&](std::uint32_t id, const Table::Entry& e) {
          int out = 0;
          int in = 0;
          int in_code = 0;
          Slot& s = g.slots[id];
          for (int code = 0; code < bio::kNumBases; ++code) {
            if (v[code] != 0) {
              ++out;
              s.out_code = static_cast<std::uint8_t>(code);
            }
            if (v[4 + code] != 0) {
              ++in;
              in_code = code;
            }
          }
          v += 8;
          s.count = e.value;
          s.out_deg = static_cast<std::uint8_t>(out);
          s.in_weight = static_cast<std::uint8_t>(in);
          s.next_id = g.sentinel();
          if (out == 1) {
            const bio::PackedKmer next = e.key.successor(s.out_code);
            if (map.rank_of_hash(next.hash64()) == rank) {
              s.next_id = static_cast<std::uint32_t>(
                  local_table(rank).dense_find(next, g.offsets).id);
            }
          }
          if (out == 0) dead_ends.fetch_add(1, std::memory_order_relaxed);
          if (out > 1) forks.fetch_add(1, std::memory_order_relaxed);
          if (in == 1) {
            const bio::PackedKmer pred = e.key.predecessor(in_code);
            for (int code = 0; code < bio::kNumBases; ++code) {
              req.push_back(pred.successor(code));
            }
          }
        });
    found[rank][shard] = {};
  });
  const DistKmerTable::RankShardLists<std::uint32_t> pred_found =
      table.find_batch(std::move(pred_probes), pool);

  // The unique predecessor weighs 1 when the path through it is forced,
  // 2 when it forks: the single-rank in_weight.
  for_each_rank_shard(pool, live, [&](std::uint32_t rank,
                                      std::uint32_t shard) {
    RankSlots& g = ranks[rank];
    const std::uint32_t* v = pred_found[rank][shard].data();
    unitig::for_each_node_in_shard(
        local_table(rank), g.offsets, shard,
        [&](std::uint32_t id, const Table::Entry&) {
          Slot& s = g.slots[id];
          if (s.in_weight != 1) return;
          const int pred_out =
              (v[0] != 0) + (v[1] != 0) + (v[2] != 0) + (v[3] != 0);
          v += 4;
          s.in_weight = pred_out > 1 ? 2 : 1;
        });
  });

  // Pass 1: every rank walks its heads on the pool, as generate_contigs
  // does; walks that reach the sentinel are handed off from the driver,
  // and the supersteps run until none is in flight. Walks never share a
  // node, so the records equal a serial head loop's.
  WalkRouter router(table, ranks);
  std::vector<WalkRecord> records;
  for (const std::uint32_t rank : live) {
    RankSlots& g = ranks[rank];
    for (WalkRecord& r : unitig::walk_heads(local_table(rank), g.offsets,
                                            g.slots.data(), g.visited.data(),
                                            pool)) {
      router.settle(rank, r, records);
    }
  }
  router.drain(live, records);
  unitig::sort_by_head(records);

  // Pass 2: whatever pass 1 left unvisited lies on a perfect cycle. As in
  // generate_contigs, the candidates of all ranks are sorted and each
  // cycle is broken at its smallest k-mer; a walk completes (drained)
  // before the next candidate's visited check.
  std::vector<std::tuple<bio::PackedKmer, std::uint32_t, std::uint32_t>>
      left;
  for (const std::uint32_t rank : live) {
    const RankSlots& g = ranks[rank];
    for (const auto& [km, id] : unitig::unvisited_nodes(
             local_table(rank), g.offsets, g.visited.data(), pool)) {
      left.emplace_back(km, rank, id);
    }
  }
  std::sort(left.begin(), left.end());
  for (const auto& [km, rank, id] : left) {
    RankSlots& g = ranks[rank];
    if (g.visited[id] != 0) continue;
    WalkRecord r = unitig::walk(g.slots.data(), g.visited.data(), km, id);
    router.settle(rank, r, records);
    router.drain(live, records);
  }

  bio::ContigSet contigs = unitig::emit_contigs(records, min_len);
  if (stats != nullptr) {
    pipeline::DbgStats s;
    s.nodes = table.total_size();
    s.forks = forks.load();
    s.dead_ends = dead_ends.load();
    s.contigs = contigs.size();
    *stats = s;
  }
  return contigs;
}

}  // namespace lassm::dist
