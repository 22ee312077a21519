#include "pipeline/dbg.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "pipeline/parallel.hpp"

namespace lassm::pipeline {

namespace {

using Table = KmerCounts::Table;
using Offsets = std::array<std::uint64_t, Table::kShards + 1>;

/// One dense slot of the count map's flat table, classified. Only live
/// nodes' slots are ever read, so a walk step reads slots instead of
/// probing the table. Visited flags live in an array of their own: a walk
/// reads a join's in_weight while the join's own walk marks it visited,
/// and a flag beside in_weight could be loaded with it.
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

/// One finished unitig walk, emitted (or dropped by min_len) in record
/// order once both passes are done.
struct WalkRecord {
  bio::PackedKmer head;
  std::string seq;
  double depth_sum;
  std::uint64_t path_nodes;
};

/// Runs f(shard, dense_id, entry) for every live node, one task per shard.
template <class F>
void for_each_node(const Table& table, const Offsets& offsets,
                   core::WarpExecutionEngine* pool, F&& f) {
  stage_for(pool, Table::kShards, [&](std::size_t shard, unsigned) {
    const auto sid = static_cast<std::uint32_t>(shard);
    table.for_each_slot_in_shard(
        sid, [&](std::size_t slot, const Table::Entry& e) {
          if (e.value != 0) {
            f(shard, static_cast<std::uint32_t>(offsets[sid] + slot), e);
          }
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

/// Walks the maximal unambiguous path from `head`: it stops at forks and
/// dead ends (out-degree != 1), at joins (next in_weight != 1) and when a
/// cycle closes (next already visited). The join check comes first: a
/// next with in_weight 1 can be reached by no other walk, so concurrent
/// pass-1 walks only read their own visited flags.
WalkRecord walk(const Slot* slots, std::uint8_t* visited,
                const bio::PackedKmer& head, std::uint32_t id) {
  WalkRecord r{head, head.unpack(), static_cast<double>(slots[id].count), 1};
  visited[id] = 1;
  while (slots[id].out_deg == 1) {
    const std::uint32_t next = slots[id].next_id;
    if (slots[next].in_weight != 1 || visited[next] != 0) break;
    r.seq.push_back(bio::code_to_base(slots[id].out_code));
    r.depth_sum += static_cast<double>(slots[next].count);
    visited[next] = 1;
    id = next;
    ++r.path_nodes;
  }
  return r;
}

}  // namespace

bio::ContigSet generate_contigs(const KmerCounts& counts, std::uint32_t k,
                                std::uint32_t min_len, DbgStats* stats,
                                core::WarpExecutionEngine* pool) {
  (void)k;  // implied by the packed keys; kept for call-site clarity
  const Table& table = counts.table();
  const Offsets offsets = table.dense_offsets();
  if (offsets.back() > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("generate_contigs: table exceeds 2^32 slots");
  }
  std::vector<Slot> slots(offsets.back());
  std::vector<std::uint8_t> visited(offsets.back());

  // Classify: four successor probes per node. Out-degree, edge code and
  // depth belong to the node's own slot; in_weight lands on the
  // successors' slots via relaxed atomic adds, which are order-independent
  // and read only after the batch barrier.
  std::atomic<std::uint64_t> forks{0};
  std::atomic<std::uint64_t> dead_ends{0};
  for_each_node(table, offsets, pool,
                [&](std::size_t, std::uint32_t id, const auto& e) {
    std::array<std::uint32_t, bio::kNumBases> succ{};
    int out = 0;
    for (int code = 0; code < bio::kNumBases; ++code) {
      const Table::Found f = table.dense_find(e.key.successor(code), offsets);
      if (f.value == nullptr || *f.value == 0) continue;
      succ[out++] = static_cast<std::uint32_t>(f.id);
      slots[id].out_code = static_cast<std::uint8_t>(code);
    }
    slots[id].count = e.value;
    slots[id].out_deg = static_cast<std::uint8_t>(out);
    slots[id].next_id = succ[0];
    if (out == 0) dead_ends.fetch_add(1, std::memory_order_relaxed);
    if (out > 1) forks.fetch_add(1, std::memory_order_relaxed);
    for (int i = 0; i < out; ++i) {
      std::atomic_ref<std::uint8_t>(slots[succ[i]].in_weight)
          .fetch_add(out > 1 ? 2 : 1, std::memory_order_relaxed);
    }
  });

  // Pass 1: every head walks concurrently. Walks from heads never share a
  // node (a non-head has one predecessor, which does not fork), so the
  // records equal a serial head loop's; sorting them by head restores the
  // emission order of start k-mers.
  std::array<std::vector<WalkRecord>, Table::kShards> walks;
  for_each_node(table, offsets, pool,
                [&](std::size_t shard, std::uint32_t id, const auto& e) {
    if (slots[id].in_weight != 1) {
      walks[shard].push_back(walk(slots.data(), visited.data(), e.key, id));
    }
  });
  std::vector<WalkRecord> records = concat(walks);
  std::sort(records.begin(), records.end(),
            [](const auto& a, const auto& b) { return a.head < b.head; });

  // Pass 2: anything left unvisited lies on a perfect cycle; break each
  // cycle at its smallest k-mer, serially in sorted order.
  std::array<std::vector<std::pair<bio::PackedKmer, std::uint32_t>>,
             Table::kShards>
      unvisited;
  for_each_node(table, offsets, pool,
                [&](std::size_t shard, std::uint32_t id, const auto& e) {
    if (visited[id] == 0) unvisited[shard].emplace_back(e.key, id);
  });
  auto left = concat(unvisited);
  std::sort(left.begin(), left.end());
  for (const auto& [km, id] : left) {
    if (visited[id] == 0) {
      records.push_back(walk(slots.data(), visited.data(), km, id));
    }
  }

  bio::ContigSet contigs;
  for (WalkRecord& r : records) {
    if (r.seq.size() < min_len) continue;
    bio::Contig c;
    c.id = contigs.size();
    c.seq = std::move(r.seq);
    c.depth = r.depth_sum / static_cast<double>(r.path_nodes);
    contigs.push_back(std::move(c));
  }

  if (stats != nullptr) {
    DbgStats s;
    s.nodes = counts.size();
    s.forks = forks.load();
    s.dead_ends = dead_ends.load();
    s.contigs = contigs.size();
    *stats = s;
  }
  return contigs;
}

}  // namespace lassm::pipeline
