// Multi-GPU scaling of the local assembly phase: MetaHipMer keeps contigs
// and their reads node-local, so the phase scales with ranks up to load
// balance. This bench partitions the k=21 dataset (the largest) across
// 1..8 simulated A100s and reports makespan speed-up and balance.

#include <iostream>
#include <vector>

#include "bench/common.hpp"
#include "model/ascii_plot.hpp"
#include "model/csv.hpp"
#include "model/study.hpp"
#include "pipeline/multi_gpu.hpp"
#include "workload/dataset.hpp"

int main() {
  using namespace lassm;
  const model::StudyConfig cfg = model::study_config_from_env();

  std::cout << "== Multi-GPU scaling (k=21, A100 model, scale " << cfg.scale
            << ") ==\n\n";

  workload::DatasetParams p = workload::table2_params(21);
  p.num_contigs = std::max<std::uint32_t>(
      50, static_cast<std::uint32_t>(p.num_contigs * cfg.scale));
  p.num_reads = std::max<std::uint32_t>(
      100, static_cast<std::uint32_t>(p.num_reads * cfg.scale));
  const auto input = workload::generate_dataset(p, cfg.seed);

  model::TextTable t({"ranks", "makespan (ms)", "speed-up", "efficiency",
                      "balance"});
  model::CsvWriter csv = bench::bench_csv(
      "scaling_multigpu",
                       {"ranks", "makespan_ms", "speedup", "efficiency",
                        "balance"});

  double base = 0.0;
  for (std::uint32_t ranks : {1U, 2U, 4U, 8U}) {
    // With no plan, nothing is armed.
    const auto r = pipeline::run_multi_gpu_resilient(
        input, std::vector<simt::DeviceSpec>(ranks, simt::DeviceSpec::a100()),
        {}, nullptr);
    if (ranks == 1) base = r.makespan_s;
    const double speedup = base / r.makespan_s;
    t.add_row({std::to_string(ranks),
               model::TextTable::fmt(r.makespan_s * 1e3, 3),
               model::TextTable::fmt(speedup, 2) + "x",
               model::TextTable::pct(speedup / ranks),
               model::TextTable::fmt(r.balance(), 2)});
    csv.row(ranks, r.makespan_s * 1e3, speedup, speedup / ranks,
            r.balance());
  }
  t.render(std::cout);
  std::cout << "\nexpected: near-linear up to the point where per-rank "
               "contig counts stop filling the device (the same "
               "underutilisation that penalises the k=77 datasets)\n";
  bench::write_artifacts(std::cout, csv);
  return 0;
}
