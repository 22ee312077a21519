// Micro-benchmark of the simulator hot paths behind every modelled number:
// the memsim line-probe loop (kernel-shaped access stream through a
// warp-effective TieredMemory) and whole warp tasks through the simulated
// kernel, printed to stdout. perfbench/ tracks the same hot path as
// memsim.mlines_per_s on its paper_grid workload.
//
// The access stream is deterministic (LCG-driven), so before/after runs
// replay the identical probe sequence; the stream mixes the two dominant
// kernel patterns: pseudo-random hash-table slot probes (12 B key read +
// 20 B value write per insertion) and sequential k-mer/quality byte reads
// that revisit one 64 B line many times in a row — the pattern the
// last-line memo short-circuits.

#include <chrono>
#include <cstdint>
#include <iostream>

#include "core/assembler.hpp"
#include "memsim/tiered.hpp"
#include "simt/device.hpp"
#include "workload/dataset.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Kernel-shaped probe stream: one iteration models one lockstep insertion
/// round (key read + value write into a pseudo-random slot) plus one lane's
/// k-mer + quality fetch advancing one base per iteration.
void run_probe_loop() {
  using namespace lassm;
  const simt::DeviceSpec dev = simt::DeviceSpec::a100();
  const std::uint64_t concurrency = 1024;  // typical study batch residency
  memsim::TieredMemory mem(dev.l1_slice_config(),
                           dev.l2_slice_config(concurrency));

  memsim::AddressSpace as;
  constexpr std::uint32_t kSlots = 1u << 14;
  constexpr std::uint32_t kEntryBytes = 32;
  constexpr std::uint32_t kMer = 21;
  const std::uint64_t table_base = as.allocate(kSlots * kEntryBytes);
  const std::uint64_t arena_bytes = 1u << 20;
  const std::uint64_t reads_base = as.allocate(arena_bytes);
  const std::uint64_t quals_base = as.allocate(arena_bytes);

  // Warm + measure in deterministic chunks until the clock has something
  // to say; the stream itself never depends on timing.
  std::uint64_t lcg = 0x2545F4914F6CDD1DULL;
  std::uint64_t pos = 0;
  const auto t0 = Clock::now();
  std::uint64_t iters = 0;
  do {
    for (std::uint32_t i = 0; i < 100000; ++i) {
      lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
      const std::uint64_t slot = (lcg >> 33) & (kSlots - 1);
      const std::uint64_t slot_addr = table_base + slot * kEntryBytes;
      mem.read(slot_addr, 12);
      mem.write(slot_addr + 12, 20);
      mem.read(reads_base + pos, kMer);
      mem.read(quals_base + pos, kMer);
      // Wrap with a compare, not %: a 64-bit divide costs ~10 ns — harness
      // overhead that would mask the simulator time being measured.
      if (++pos == arena_bytes - kMer) pos = 0;
    }
    iters += 100000;
  } while (seconds_since(t0) < 0.5);
  const double probe_s = seconds_since(t0);
  const double probe_lines_per_sec =
      static_cast<double>(mem.stats().lines_touched) / probe_s;
  std::cout << "probe loop:   " << iters << " iters, "
            << mem.stats().lines_touched << " lines in " << probe_s << " s ("
            << probe_lines_per_sec / 1e6 << " Mlines/s), L1 hit rate "
            << mem.l1().stats().hit_rate() << "\n";

  // Table (re-)initialisation: the construct() streaming-store slab wipe.
  mem.reset();
  const std::uint64_t slab_bytes = kSlots * kEntryBytes;
  std::uint64_t init_lines = 0;
  const auto t1 = Clock::now();
  do {
    mem.stream_write_range(table_base, slab_bytes);
    init_lines += slab_bytes / mem.line_bytes();
    if ((init_lines / (slab_bytes / mem.line_bytes())) % 64 == 0) {
      mem.reset();  // keep counters from growing unbounded
    }
  } while (seconds_since(t1) < 0.5);
  const double init_s = seconds_since(t1);
  const double init_lines_per_sec = static_cast<double>(init_lines) / init_s;
  std::cout << "init  loop:   " << init_lines << " lines in " << init_s
            << " s (" << init_lines_per_sec / 1e6 << " Mlines/s)\n";
}

/// Whole warp tasks through the simulated kernel (serial, so the number is
/// a per-core figure independent of host thread count).
void run_task_loop() {
  using namespace lassm;
  workload::DatasetParams p = workload::table2_params(21);
  const double ratio =
      static_cast<double>(p.num_reads) / static_cast<double>(p.num_contigs);
  p.num_contigs = 200;
  p.num_reads = static_cast<std::uint32_t>(200 * ratio);
  const core::AssemblyInput in = workload::generate_dataset(p, 20240731);

  core::AssemblyOptions opts;
  opts.n_threads = 1;
  const core::LocalAssembler assembler(simt::DeviceSpec::a100(), opts);

  std::uint64_t tasks = 0;
  double best_tps = 0.0;
  const auto t0 = Clock::now();
  do {
    const auto tr = Clock::now();
    const core::AssemblyResult r = assembler.run(in);
    const double run_s = seconds_since(tr);
    tasks += r.stats.num_warps;
    if (run_s > 0.0) {
      const double tps = static_cast<double>(r.stats.num_warps) / run_s;
      if (tps > best_tps) best_tps = tps;
    }
  } while (seconds_since(t0) < 1.0);
  std::cout << "kernel loop:  " << tasks << " warp tasks, best "
            << best_tps << " tasks/s\n";
}

}  // namespace

int main() {
  std::cout << "bench_memsim_throughput: simulator hot-path throughput\n";
  run_probe_loop();
  run_task_loop();
  return 0;
}
