#include "dist/frontend.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <string>
#include <utility>

#include "pipeline/parallel.hpp"

namespace lassm::dist {

namespace {

using Table = pipeline::KmerCounts::Table;
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

/// pipeline::insert_read_kmers sink for one chunk of a rank's read block:
/// windows of the rank's own masked shards go into its shared concurrent
/// table, windows of other ranks' masked shards onto the chunk's send
/// list in window order, and unmasked windows are only counted. Shards
/// outside `local_mask` stay empty in the table, so prefetching their
/// slots is a no-op.
struct RankChunkSink {
  pipeline::ConcurrentKmerCountTable::WriterScope writer;
  std::uint64_t shard_mask;
  std::uint64_t local_mask;
  std::vector<bio::PackedKmer>& remote;
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
      remote.push_back(km);
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
    // is left untouched); remote windows into per-chunk send lists.
    const std::uint64_t local_mask = shard_mask & owned;
    pipeline::ConcurrentKmerCountTable counts;
    counts.reserve(pipeline::distinct_estimate(rank_windows), local_mask);
    const pipeline::ChunkPlan plan(n_block, pool);
    std::vector<std::vector<bio::PackedKmer>> remote(plan.n_chunks);
    std::vector<std::uint64_t> windows_all(plan.n_chunks, 0);
    std::vector<std::uint64_t> windows_masked(plan.n_chunks, 0);
    pipeline::stage_for(pool, plan.n_chunks, [&](std::size_t chunk, unsigned) {
      RankChunkSink sink{
          pipeline::ConcurrentKmerCountTable::WriterScope(counts), shard_mask,
          local_mask, remote[chunk]};
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
      for (const bio::PackedKmer& km : remote[chunk]) table.add(rank, km);
      stats.remote_msgs += remote[chunk].size();
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

  // One flush epoch delivers every rank's remote inserts; owners drain in
  // ascending rank order (each inbox is itself ascending-src, send order).
  table.msg().flush();
  for (const std::uint32_t rank : live) table.drain_inserts(rank);
  for (const std::uint32_t rank : live) table.local(rank).rebuild_size();
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

/// Per-rank view of the distributed graph: the rank's owned nodes in
/// sorted order plus classification results. Degree/code/visited arrays
/// are indexed by the local table's dense slot id (as in the single-rank
/// walker), so a walk arriving at any owned node finds its state with one
/// dense_find.
struct RankGraph {
  std::vector<bio::PackedKmer> nodes;      ///< owned nodes, sorted
  std::vector<std::uint64_t> node_id;      ///< dense id per node index
  std::array<std::uint64_t, Table::kShards + 1> offsets{};
  std::vector<std::uint8_t> out_deg;       ///< by dense id
  std::vector<std::int8_t> out_code;       ///< last present successor code
  std::vector<std::uint8_t> in_deg;        ///< by dense id
  std::vector<std::uint8_t> visited;       ///< by dense id
  std::vector<std::uint8_t> is_head;       ///< by node index
  std::uint64_t forks = 0;
  std::uint64_t dead_ends = 0;
};

/// One finished unitig walk; pass-1 records are sorted by head afterwards
/// to recover the single-rank emission order (by start k-mer).
struct WalkRecord {
  bio::PackedKmer head;
  std::string seq;
  double depth_sum;
  std::uint64_t path_nodes;
};

/// In-flight walk state. Crosses ranks as a WalkHeader + the sequence
/// bytes on the walk channel.
struct Walk {
  bio::PackedKmer head;
  bio::PackedKmer cur;    ///< current node
  std::uint64_t cur_id;   ///< dense id of the current node on its owner
  std::string seq;
  double depth_sum;
  std::uint64_t path_nodes;
};

struct WalkHeader {
  bio::PackedKmer head;
  bio::PackedKmer next;        ///< candidate node on the receiving rank
  double depth_sum;
  std::uint64_t path_nodes;
  std::int32_t base_code;      ///< edge code into `next` (appended on accept)
  std::uint32_t seq_len;
};

/// Distributed walk engine: advances walks through rank-local absorption
/// runs, handing off across shard boundaries via batched walk messages.
class WalkEngine {
 public:
  WalkEngine(DistKmerTable& table, std::vector<RankGraph>& graphs)
      : table_(table), graphs_(graphs) {}

  void set_sink(std::vector<WalkRecord>* sink) { sink_ = sink; }

  /// Starts a walk at an owned, unvisited node and advances it until it
  /// finishes locally or leaves the rank.
  void start(std::uint32_t rank, const bio::PackedKmer& km,
             std::uint64_t dense_id, std::uint32_t count) {
    Walk w;
    w.head = km;
    w.cur = km;
    w.cur_id = dense_id;
    w.seq = km.unpack();
    w.depth_sum = static_cast<double>(count);
    w.path_nodes = 1;
    graphs_[rank].visited[dense_id] = 1;
    advance(rank, w);
  }

  /// Runs flush/drain supersteps until no walk message is in flight.
  void drain(const std::vector<std::uint32_t>& live) {
    MessageLayer& msg = table_.msg();
    while (msg.pending() > 0) {
      msg.flush();
      for (const std::uint32_t rank : live) {
        msg.for_each_bytes(rank, Channel::kWalkChannel,
                           [&](std::uint32_t, const char* p, std::uint32_t n) {
                             receive(rank, p, n);
                           });
      }
    }
  }

 private:
  void finish(Walk& w) {
    sink_->push_back(WalkRecord{w.head, std::move(w.seq), w.depth_sum,
                               w.path_nodes});
  }

  /// Local absorption loop — the exact step logic of the single-rank
  /// walk in pipeline::generate_contigs, split at rank boundaries: stop at
  /// forks/dead ends, stop at visited or joined next nodes, otherwise
  /// absorb and keep walking.
  void advance(std::uint32_t rank, Walk& w) {
    RankGraph& g = graphs_[rank];
    const Table& local = table_.local(rank).table();
    while (true) {
      if (g.out_deg[w.cur_id] != 1) {  // dead end or fork: path stops here
        finish(w);
        return;
      }
      const int code = g.out_code[w.cur_id];
      const bio::PackedKmer next = w.cur.successor(code);
      const std::uint32_t owner = table_.map().rank_of_hash(next.hash64());
      if (owner != rank) {
        handoff(rank, owner, w, next, code);
        return;
      }
      const Table::Found f = local.dense_find(next, g.offsets);
      if (g.visited[f.id] != 0 || g.in_deg[f.id] != 1) {
        finish(w);  // cycle, already-used node, or join: next starts anew
        return;
      }
      absorb(g, w, next, f, code);
    }
  }

  void absorb(RankGraph& g, Walk& w, const bio::PackedKmer& next,
              const Table::Found& f, int code) {
    w.seq.push_back(bio::code_to_base(code));
    w.depth_sum += static_cast<double>(*f.value);
    g.visited[f.id] = 1;
    w.cur = next;
    w.cur_id = f.id;
    ++w.path_nodes;
  }

  void handoff(std::uint32_t src, std::uint32_t dst, const Walk& w,
               const bio::PackedKmer& next, int code) {
    WalkHeader hdr;
    hdr.head = w.head;
    hdr.next = next;
    hdr.depth_sum = w.depth_sum;
    hdr.path_nodes = w.path_nodes;
    hdr.base_code = code;
    hdr.seq_len = static_cast<std::uint32_t>(w.seq.size());
    scratch_.resize(sizeof(hdr) + w.seq.size());
    std::memcpy(scratch_.data(), &hdr, sizeof(hdr));
    std::memcpy(scratch_.data() + sizeof(hdr), w.seq.data(), w.seq.size());
    table_.msg().send_bytes(src, dst, Channel::kWalkChannel, scratch_.data(),
                            static_cast<std::uint32_t>(scratch_.size()));
  }

  /// Receiving side of a handoff: apply the visited/join checks *before*
  /// accepting the edge (the single-rank walk checks them before
  /// appending the base), then continue the absorption loop locally.
  void receive(std::uint32_t rank, const char* p, std::uint32_t n) {
    WalkHeader hdr;
    std::memcpy(&hdr, p, sizeof(hdr));
    Walk w;
    w.head = hdr.head;
    w.seq.assign(p + sizeof(hdr), n - sizeof(hdr));
    w.depth_sum = hdr.depth_sum;
    w.path_nodes = hdr.path_nodes;

    RankGraph& g = graphs_[rank];
    const Table::Found f =
        table_.local(rank).table().dense_find(hdr.next, g.offsets);
    if (g.visited[f.id] != 0 || g.in_deg[f.id] != 1) {
      finish(w);
      return;
    }
    absorb(g, w, hdr.next, f, hdr.base_code);
    advance(rank, w);
  }

  DistKmerTable& table_;
  std::vector<RankGraph>& graphs_;
  std::vector<WalkRecord>* sink_ = nullptr;
  std::vector<char> scratch_;
};

/// Extracts a rank's owned nodes in sorted order (per-shard extract +
/// sort + heap merge over the rank's shards).
void build_node_order(const pipeline::KmerCounts& counts, RankGraph& g,
                      core::WarpExecutionEngine* pool) {
  const Table& table = counts.table();
  std::array<std::vector<bio::PackedKmer>, Table::kShards> per_shard;
  pipeline::stage_for(pool, Table::kShards, [&](std::size_t shard, unsigned) {
    std::vector<bio::PackedKmer>& keys = per_shard[shard];
    keys.reserve(table.shard_entries(static_cast<std::uint32_t>(shard)));
    table.for_each_in_shard(static_cast<std::uint32_t>(shard),
                            [&](const Table::Entry& e) {
                              if (e.value != 0) keys.push_back(e.key);
                            });
    std::sort(keys.begin(), keys.end());
  });

  g.nodes.reserve(counts.size());
  struct Cursor {
    const bio::PackedKmer* cur;
    const bio::PackedKmer* end;
  };
  const auto later = [](const Cursor& a, const Cursor& b) {
    return *b.cur < *a.cur;
  };
  std::vector<Cursor> heap;
  for (const auto& keys : per_shard) {
    if (!keys.empty()) heap.push_back({keys.data(), keys.data() + keys.size()});
  }
  std::make_heap(heap.begin(), heap.end(), later);
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), later);
    Cursor& c = heap.back();
    g.nodes.push_back(*c.cur);
    if (++c.cur == c.end) {
      heap.pop_back();
    } else {
      std::push_heap(heap.begin(), heap.end(), later);
    }
  }
}

}  // namespace

bio::ContigSet generate_contigs_dist(DistKmerTable& table, std::uint32_t k,
                                     std::uint32_t min_len,
                                     pipeline::DbgStats* stats,
                                     core::WarpExecutionEngine* pool) {
  (void)k;
  const ShardMap& map = table.map();
  const std::vector<std::uint32_t> live = map.live_ranks();
  MessageLayer& msg = table.msg();

  std::vector<RankGraph> graphs(map.n_ranks());
  for (const std::uint32_t rank : live) {
    RankGraph& g = graphs[rank];
    build_node_order(table.local(rank), g, pool);
    g.offsets = table.local(rank).table().dense_offsets();
    g.node_id.resize(g.nodes.size());
    g.out_deg.assign(g.offsets.back(), 0);
    g.out_code.assign(g.offsets.back(), -1);
    g.in_deg.assign(g.offsets.back(), 0);
    g.visited.assign(g.offsets.back(), 0);
    g.is_head.assign(g.nodes.size(), 0);
  }

  // Classification epoch A: every rank probes, for each owned node, its
  // four successors then its four predecessors (one batched find round
  // trip for all nodes of all ranks at once). Degrees and the *last*
  // present edge code follow the single-rank classification's
  // convention exactly.
  for (const std::uint32_t rank : live) {
    for (const bio::PackedKmer& km : graphs[rank].nodes) {
      for (int code = 0; code < bio::kNumBases; ++code) {
        table.find_enqueue(rank, km.successor(code));
      }
      for (int code = 0; code < bio::kNumBases; ++code) {
        table.find_enqueue(rank, km.predecessor(code));
      }
    }
  }
  msg.flush();
  for (const std::uint32_t rank : live) table.serve_finds(rank);
  msg.flush();

  std::vector<std::vector<std::int8_t>> pred_code(map.n_ranks());
  for (const std::uint32_t rank : live) {
    RankGraph& g = graphs[rank];
    const Table& local = table.local(rank).table();
    const std::vector<std::uint32_t> vals = table.collect_finds(rank);
    pred_code[rank].assign(g.nodes.size(), -1);
    for (std::size_t i = 0; i < g.nodes.size(); ++i) {
      const Table::Found f = local.dense_find(g.nodes[i], g.offsets);
      g.node_id[i] = f.id;
      int out = 0;
      int out_code = -1;
      int in = 0;
      for (int code = 0; code < bio::kNumBases; ++code) {
        if (vals[i * 8 + code] != 0) {
          ++out;
          out_code = code;
        }
        if (vals[i * 8 + 4 + code] != 0) {
          ++in;
          pred_code[rank][i] = static_cast<std::int8_t>(code);
        }
      }
      g.out_deg[f.id] = static_cast<std::uint8_t>(out);
      g.out_code[f.id] = static_cast<std::int8_t>(out_code);
      g.in_deg[f.id] = static_cast<std::uint8_t>(in);
      if (out > 1) ++g.forks;
      if (out == 0) ++g.dead_ends;
    }
  }

  // Classification epoch B: nodes with in-degree exactly 1 probe their
  // unique predecessor's four successors; the node is a head unless that
  // predecessor has out-degree 1 (i.e. the path through it is forced).
  for (const std::uint32_t rank : live) {
    RankGraph& g = graphs[rank];
    for (std::size_t i = 0; i < g.nodes.size(); ++i) {
      if (g.in_deg[g.node_id[i]] != 1) continue;
      const bio::PackedKmer pred = g.nodes[i].predecessor(pred_code[rank][i]);
      for (int code = 0; code < bio::kNumBases; ++code) {
        table.find_enqueue(rank, pred.successor(code));
      }
    }
  }
  msg.flush();
  for (const std::uint32_t rank : live) table.serve_finds(rank);
  msg.flush();
  for (const std::uint32_t rank : live) {
    RankGraph& g = graphs[rank];
    const std::vector<std::uint32_t> vals = table.collect_finds(rank);
    std::size_t probed = 0;
    for (std::size_t i = 0; i < g.nodes.size(); ++i) {
      if (g.in_deg[g.node_id[i]] != 1) {
        g.is_head[i] = 1;
        continue;
      }
      int pred_out = 0;
      for (int code = 0; code < bio::kNumBases; ++code) {
        if (vals[probed * 4 + code] != 0) ++pred_out;
      }
      ++probed;
      g.is_head[i] = pred_out > 1 ? 1 : 0;
    }
  }

  // Pass 1: walk from every head. Walks are vertex-disjoint (a head is
  // never absorbed by another walk), so the concurrent superstep schedule
  // produces exactly the records of a serial head loop; sorting them by
  // head recovers the single-rank emission order.
  WalkEngine engine(table, graphs);
  std::vector<WalkRecord> pass1;
  engine.set_sink(&pass1);
  for (const std::uint32_t rank : live) {
    RankGraph& g = graphs[rank];
    const Table& local = table.local(rank).table();
    for (std::size_t i = 0; i < g.nodes.size(); ++i) {
      if (g.is_head[i] == 0) continue;
      const Table::Found f = local.dense_find(g.nodes[i], g.offsets);
      engine.start(rank, g.nodes[i], f.id, *f.value);
    }
  }
  engine.drain(live);
  std::sort(pass1.begin(), pass1.end(),
            [](const WalkRecord& a, const WalkRecord& b) {
              return a.head < b.head;
            });

  // Pass 2: whatever pass 1 left unvisited sits inside a perfect cycle.
  // The single-rank walker breaks each cycle at its smallest member; as
  // there, we gather the (few) unvisited candidates, sort them globally,
  // and walk them one at a time — each walk completes (drained) before the
  // next candidate's visited check.
  std::vector<std::pair<bio::PackedKmer, std::uint32_t>> candidates;
  for (const std::uint32_t rank : live) {
    const RankGraph& g = graphs[rank];
    for (std::size_t i = 0; i < g.nodes.size(); ++i) {
      if (g.visited[g.node_id[i]] == 0) candidates.emplace_back(g.nodes[i], rank);
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<WalkRecord> pass2;
  engine.set_sink(&pass2);
  for (const auto& [km, rank] : candidates) {
    RankGraph& g = graphs[rank];
    const Table::Found f = table.local(rank).table().dense_find(km, g.offsets);
    if (g.visited[f.id] != 0) continue;
    engine.start(rank, km, f.id, *f.value);
    engine.drain(live);
  }

  bio::ContigSet contigs;
  const auto emit = [&](WalkRecord& r) {
    if (r.seq.size() < min_len) return;
    bio::Contig c;
    c.id = contigs.size();
    c.seq = std::move(r.seq);
    c.depth = r.depth_sum / static_cast<double>(r.path_nodes);
    contigs.push_back(std::move(c));
  };
  for (WalkRecord& r : pass1) emit(r);
  for (WalkRecord& r : pass2) emit(r);

  if (stats != nullptr) {
    pipeline::DbgStats s;
    s.nodes = table.total_size();
    for (const std::uint32_t rank : live) {
      s.forks += graphs[rank].forks;
      s.dead_ends += graphs[rank].dead_ends;
    }
    s.contigs = contigs.size();
    *stats = s;
  }
  return contigs;
}

}  // namespace lassm::dist
