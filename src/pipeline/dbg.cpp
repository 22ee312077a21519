#include "pipeline/dbg.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <vector>

#include "pipeline/unitig_walk.hpp"

namespace lassm::pipeline {

bio::ContigSet generate_contigs(const KmerCounts& counts, std::uint32_t k,
                                std::uint32_t min_len, DbgStats* stats,
                                core::WarpExecutionEngine* pool) {
  using unitig::Slot;
  using unitig::Table;
  using unitig::WalkRecord;
  (void)k;  // implied by the packed keys; kept for call-site clarity
  const Table& table = counts.table();
  const unitig::Offsets offsets =
      unitig::slot_offsets(table, "generate_contigs");
  std::vector<Slot> slots(offsets.back());
  std::vector<std::uint8_t> visited(offsets.back());

  // Classify: four successor probes per node. Out-degree, edge code and
  // depth belong to the node's own slot; in_weight lands on the
  // successors' slots via relaxed atomic adds, which are order-independent
  // and read only after the batch barrier.
  std::atomic<std::uint64_t> forks{0};
  std::atomic<std::uint64_t> dead_ends{0};
  unitig::for_each_node(table, offsets, pool,
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

  // Pass 1: every head walks concurrently; sorting the records by head
  // restores the emission order of start k-mers.
  std::vector<WalkRecord> records =
      unitig::walk_heads(table, offsets, slots.data(), visited.data(), pool);
  unitig::sort_by_head(records);

  // Pass 2: anything left unvisited lies on a perfect cycle; break each
  // cycle at its smallest k-mer, serially in sorted order.
  auto left = unitig::unvisited_nodes(table, offsets, visited.data(), pool);
  std::sort(left.begin(), left.end());
  for (const auto& [km, id] : left) {
    if (visited[id] == 0) {
      records.push_back(unitig::walk(slots.data(), visited.data(), km, id));
    }
  }

  bio::ContigSet contigs = unitig::emit_contigs(records, min_len);
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
