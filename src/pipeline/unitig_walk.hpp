#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bio/contig.hpp"
#include "pipeline/kmer_analysis.hpp"
#include "pipeline/parallel.hpp"

/// The unitig walk behind both pipeline::generate_contigs and
/// dist::generate_contigs_dist. A front end classifies its nodes into one
/// Slot per dense slot of a count table; walks then read slots instead of
/// probing the table, through the one step loop below. A distributed rank
/// classifies only the nodes it owns and points every remote successor at
/// a sentinel slot, where the loop stops so the rank can hand the walk to
/// the successor's owner.
namespace lassm::pipeline::unitig {

using Table = KmerCounts::Table;
using Offsets = std::array<std::uint64_t, Table::kShards + 1>;
using Node = std::pair<bio::PackedKmer, std::uint32_t>;  ///< k-mer, dense id

/// One dense slot of a count table, classified. Only live nodes' slots
/// (and a sentinel) are ever read. Visited flags live in an array of their
/// own: a walk reads a join's in_weight while the join's own walk marks it
/// visited, and a flag beside in_weight could be loaded with it.
struct Slot {
  std::uint32_t count;    ///< node depth
  std::uint32_t next_id;  ///< the successor when out_deg == 1
  std::uint8_t out_deg;
  std::uint8_t out_code;  ///< edge code into next_id
  /// Each predecessor adds 1, or 2 if it forks, so in_weight == 1 means
  /// exactly one predecessor with no other successor: the path into this
  /// node is forced. Every other node is a head, and a join for walks.
  std::uint8_t in_weight;
};

/// One unitig walk. Pass-1 records are sorted by head, then emitted (or
/// dropped by min_len) in record order once both passes are done.
struct WalkRecord {
  bio::PackedKmer head;
  std::string seq;
  double depth_sum;
  std::uint64_t path_nodes;
  std::uint32_t last;  ///< dense id of the walk's current last node
};

/// The table's dense offsets; throws when its slots, plus one spare id
/// for a sentinel, do not fit the slots' 32-bit ids.
inline Offsets slot_offsets(const Table& table, const char* caller) {
  const Offsets offsets = table.dense_offsets();
  if (offsets.back() >= std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error(std::string(caller) +
                            ": table exceeds 2^32 slots");
  }
  return offsets;
}

/// Runs f(dense_id, entry) for every live node of one shard, in dense
/// order.
template <class F>
void for_each_node_in_shard(const Table& table, const Offsets& offsets,
                            std::uint32_t shard, F&& f) {
  table.for_each_slot_in_shard(
      shard, [&](std::size_t slot, const Table::Entry& e) {
        if (e.value != 0) {
          f(static_cast<std::uint32_t>(offsets[shard] + slot), e);
        }
      });
}

/// Runs f(shard, dense_id, entry) for every live node, one task per shard
/// (in dense order on the calling thread when `pool` is null).
template <class F>
void for_each_node(const Table& table, const Offsets& offsets,
                   core::WarpExecutionEngine* pool, F&& f) {
  stage_for(pool, Table::kShards, [&](std::size_t shard, unsigned) {
    for_each_node_in_shard(table, offsets, static_cast<std::uint32_t>(shard),
                           [&](std::uint32_t id, const Table::Entry& e) {
                             f(shard, id, e);
                           });
  });
}

/// Concatenates per-shard results in shard order.
template <class T>
std::vector<T> concat(std::array<std::vector<T>, Table::kShards>& parts) {
  std::vector<T> out;
  for (std::vector<T>& part : parts) {
    std::move(part.begin(), part.end(), std::back_inserter(out));
  }
  return out;
}

/// One step: appends `next`, reached along edge `code`, unless it is a
/// join (in_weight != 1) or already visited. The join check comes first:
/// a next with in_weight 1 can be reached by no other walk, so concurrent
/// walks only read their own visited flags.
inline bool absorb(const Slot* slots, std::uint8_t* visited, WalkRecord& r,
                   int code, std::uint32_t next) {
  if (slots[next].in_weight != 1 || visited[next] != 0) return false;
  r.seq.push_back(bio::code_to_base(code));
  r.depth_sum += static_cast<double>(slots[next].count);
  visited[next] = 1;
  r.last = next;
  ++r.path_nodes;
  return true;
}

/// The unitig step loop: extends `r` from its last node along the maximal
/// unambiguous path. It stops at forks and dead ends (out-degree != 1),
/// at joins and when a cycle closes.
inline void extend(const Slot* slots, std::uint8_t* visited, WalkRecord& r) {
  while (slots[r.last].out_deg == 1) {
    const Slot& s = slots[r.last];
    if (!absorb(slots, visited, r, s.out_code, s.next_id)) break;
  }
}

/// Walks the path that starts at node `id`.
inline WalkRecord walk(const Slot* slots, std::uint8_t* visited,
                       const bio::PackedKmer& head, std::uint32_t id) {
  visited[id] = 1;
  WalkRecord r{head, head.unpack(), static_cast<double>(slots[id].count), 1,
               id};
  extend(slots, visited, r);
  return r;
}

/// Pass 1: walks from every head (in_weight != 1), one task per shard,
/// returned in shard order. Walks from heads never share a node (a
/// non-head has one predecessor, which does not fork), so the records
/// equal a serial head loop's.
inline std::vector<WalkRecord> walk_heads(const Table& table,
                                          const Offsets& offsets,
                                          const Slot* slots,
                                          std::uint8_t* visited,
                                          core::WarpExecutionEngine* pool) {
  std::array<std::vector<WalkRecord>, Table::kShards> walks;
  for_each_node(table, offsets, pool,
                [&](std::size_t shard, std::uint32_t id, const auto& e) {
    if (slots[id].in_weight != 1) {
      walks[shard].push_back(walk(slots, visited, e.key, id));
    }
  });
  return concat(walks);
}

/// Pass 2's candidates: every node no walk has visited (each lies on a
/// perfect cycle), in shard order.
inline std::vector<Node> unvisited_nodes(const Table& table,
                                         const Offsets& offsets,
                                         const std::uint8_t* visited,
                                         core::WarpExecutionEngine* pool) {
  std::array<std::vector<Node>, Table::kShards> left;
  for_each_node(table, offsets, pool,
                [&](std::size_t shard, std::uint32_t id, const auto& e) {
    if (visited[id] == 0) left[shard].emplace_back(e.key, id);
  });
  return concat(left);
}

/// Pass-1 walks finish in any order; their emission order is that of
/// their start k-mers.
inline void sort_by_head(std::vector<WalkRecord>& records) {
  std::sort(records.begin(), records.end(),
            [](const WalkRecord& a, const WalkRecord& b) {
              return a.head < b.head;
            });
}

/// One contig per record, in record order, dropping those shorter than
/// min_len.
inline bio::ContigSet emit_contigs(std::vector<WalkRecord>& records,
                                   std::uint32_t min_len) {
  bio::ContigSet contigs;
  for (WalkRecord& r : records) {
    if (r.seq.size() < min_len) continue;
    bio::Contig c;
    c.id = contigs.size();
    c.seq = std::move(r.seq);
    c.depth = r.depth_sum / static_cast<double>(r.path_nodes);
    contigs.push_back(std::move(c));
  }
  return contigs;
}

}  // namespace lassm::pipeline::unitig
