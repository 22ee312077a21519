// Host-thread scaling of the simulated local-assembly kernel: the warps of
// a launch are embarrassingly independent (the premise of the paper's GPU
// offload), so the simulator's execution engine should scale with host
// threads while staying bit-identical to the serial oracle. This bench
// sweeps the pool size over the default seeded workload, verifies
// bit-identity at every point, and records speedup + throughput
// (MTasks/s, one task = one contig-end warp) in
// results/scaling_threads.csv. The exit code is the bit-identity check.
//
//   ./bench_scaling_threads [max_threads] [contigs]
//
// Environment: LASSM_STUDY_SCALE / LASSM_STUDY_SEED shape the workload as
// for bench_paper.

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <vector>

#include "bench/common.hpp"
#include "core/assembler.hpp"
#include "core/exec.hpp"
#include "model/ascii_plot.hpp"
#include "model/csv.hpp"
#include "model/study.hpp"
#include "workload/dataset.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double run_once(const lassm::core::AssemblyInput& in, unsigned n_threads,
                lassm::core::AssemblyResult& out) {
  lassm::core::AssemblyOptions opts;
  opts.n_threads = n_threads;
  lassm::core::LocalAssembler assembler(lassm::simt::DeviceSpec::a100(),
                                        opts);
  const auto t0 = Clock::now();
  out = assembler.run(in);
  const auto t1 = Clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

bool identical(const lassm::core::AssemblyResult& a,
               const lassm::core::AssemblyResult& b) {
  if (a.extensions.size() != b.extensions.size()) return false;
  for (std::size_t i = 0; i < a.extensions.size(); ++i) {
    if (a.extensions[i].left != b.extensions[i].left ||
        a.extensions[i].right != b.extensions[i].right) {
      return false;
    }
  }
  return a.stats.totals.cycles == b.stats.totals.cycles &&
         a.stats.totals.intops == b.stats.totals.intops &&
         a.stats.warp_cycles == b.stats.warp_cycles &&
         a.stats.traffic.hbm_bytes() == b.stats.traffic.hbm_bytes() &&
         a.total_time_s == b.total_time_s;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lassm;

  const unsigned hw = core::resolve_threads(0);
  const unsigned max_threads =
      argc > 1 ? static_cast<unsigned>(std::atoi(argv[1]))
               : std::max(8U, hw);
  const std::uint32_t n_contigs =
      argc > 2 ? static_cast<std::uint32_t>(std::atoi(argv[2])) : 0;

  const model::StudyConfig cfg = model::study_config_from_env();
  workload::DatasetParams p = workload::table2_params(21);
  if (n_contigs != 0) {
    const double ratio =
        static_cast<double>(p.num_reads) / static_cast<double>(p.num_contigs);
    p.num_contigs = n_contigs;
    p.num_reads = static_cast<std::uint32_t>(n_contigs * ratio);
  } else {
    p.num_contigs = std::max<std::uint32_t>(
        50, static_cast<std::uint32_t>(p.num_contigs * cfg.scale));
    p.num_reads = std::max<std::uint32_t>(
        100, static_cast<std::uint32_t>(p.num_reads * cfg.scale));
  }
  const core::AssemblyInput input = workload::generate_dataset(p, cfg.seed);

  std::cout << "== Host-thread scaling of the execution engine (k=21, "
            << input.contigs.size() << " contigs, A100 model) ==\n"
            << "   hardware threads: " << hw << "\n\n";

  // Serial oracle first: its wall time is the speedup baseline and its
  // result is the bit-identity reference for every pool size.
  core::AssemblyResult serial;
  // Warm-up run so first-touch allocation noise stays out of the baseline.
  run_once(input, 1, serial);
  const double t_serial = run_once(input, 1, serial);
  const double tasks =
      static_cast<double>(serial.stats.num_warps);

  std::vector<unsigned> sweep{1};
  for (unsigned n = 2; n <= max_threads; n *= 2) sweep.push_back(n);
  if (sweep.back() != max_threads) sweep.push_back(max_threads);

  model::TextTable table(
      {"threads", "wall (ms)", "speed-up", "efficiency", "MTasks/s",
       "identical"});
  model::CsvWriter csv = bench::bench_csv(
      "scaling_threads",
      {"threads", "wall_ms", "speedup", "efficiency", "mtasks_per_s",
       "identical"});

  bool all_identical = true;
  for (unsigned n : sweep) {
    core::AssemblyResult r;
    double wall = n == 1 ? t_serial : run_once(input, n, r);
    if (n != 1) {
      // Keep the better of two runs: pool spin-up and scheduler noise
      // should not be charged to the steady-state scaling record.
      core::AssemblyResult r2;
      wall = std::min(wall, run_once(input, n, r2));
    } else {
      r = serial;
    }
    const bool same = n == 1 ? true : identical(serial, r);
    all_identical = all_identical && same;
    const double speedup = t_serial / wall;
    const double mtasks = tasks / wall / 1e6;
    table.add_row({std::to_string(n), model::TextTable::fmt(wall * 1e3, 2),
                   model::TextTable::fmt(speedup, 2) + "x",
                   model::TextTable::pct(speedup / n),
                   model::TextTable::fmt(mtasks, 3), same ? "yes" : "NO"});
    csv.row(n, wall * 1e3, speedup, speedup / n, mtasks, same ? 1 : 0);
  }
  table.render(std::cout);
  std::cout << "\nexpected: near-linear until the pool outruns the physical "
               "cores; bit-identical extensions/counters at every point "
               "(the engine is a host-throughput knob only)\n";

  bench::write_artifacts(std::cout, csv);
  return all_identical ? 0 : 1;
}
