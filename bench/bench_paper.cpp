// The paper's evaluation in one run: Tables I-VII and Figures 5-9, then
// every other modelled result: the protocol, sub-group, binning and L2
// ablations, the hardware projection, multi-GPU scaling and distributed
// weak scaling. Every study-backed table and figure reads the same
// 3-device x 4-dataset grid, so this binary runs that grid once
// (model::run_study, never cached) and renders each section in that
// order, to stdout and to results/<stem>.csv. The exit code is 1 when the
// distributed section's partition or traffic bar fails.
//
//   ./bench_paper
//
// Env: LASSM_STUDY_SCALE / LASSM_STUDY_SEED (grid size and seed),
// LASSM_RESULTS_DIR (CSV directory), LASSM_THREADS (host threads),
// LASSM_TRACE (Chrome trace path; also writes paper.metrics.json and
// paper.profile.{json,csv} next to the CSVs).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <ios>
#include <iostream>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "bio/rng.hpp"
#include "dist/pipeline.hpp"
#include "model/ascii_plot.hpp"
#include "model/csv.hpp"
#include "model/pennycook.hpp"
#include "model/profile_report.hpp"
#include "model/roofline.hpp"
#include "model/study.hpp"
#include "model/theoretical.hpp"
#include "pipeline/multi_gpu.hpp"
#include "simt/device.hpp"
#include "trace/export.hpp"
#include "trace/log.hpp"
#include "workload/dataset.hpp"

namespace {

using namespace lassm;

/// The banner of every study-backed table and figure (config provenance).
void print_banner(std::ostream& os, const char* experiment,
                  const model::StudyResults& study) {
  os << "================================================================\n";
  os << " " << experiment << "\n";
  os << " simulated local assembly study | dataset scale "
     << study.config.scale << " of Table II | seed " << study.config.seed
     << "\n";
  os << " (shape reproduction; absolute numbers are model estimates)\n";
  os << "================================================================\n";
}

// Table I: HPC architectures, compilers and languages — mapped onto the
// simulated reproduction (the "compiler" column becomes the programming-
// model port executed by the SIMT simulator).
void table1_platforms() {
  std::cout << "== Table I: HPC architectures, compilers and languages ==\n";
  std::cout << "(paper system -> this reproduction's substitute)\n\n";

  model::TextTable t({"HPC system (paper)", "Accelerator", "Programming model",
                      "Paper toolchain", "Reproduction substitute"});
  t.add_row({"Perlmutter (NERSC)", "NVIDIA A100", "CUDA", "CUDA 12.0",
             "simulated A100 model, CUDA insertion protocol"});
  t.add_row({"Frontier (OLCF)", "AMD MI250X", "HIP", "ROCm 5.3.0",
             "simulated MI250X (1 GCD), HIP done-flag protocol"});
  t.add_row({"Sunspot (ALCF)", "Intel Max 1550", "SYCL", "Intel DPC++ 2023",
             "simulated Max 1550 (1 tile), SYCL sub-group protocol"});
  t.render(std::cout);

  model::CsvWriter csv = bench::bench_csv(
      "table1_platforms",
                       {"system", "accelerator", "model", "substitute"});
  csv.row("Perlmutter", "NVIDIA A100", "CUDA", "simulated A100");
  csv.row("Frontier", "AMD MI250X", "HIP", "simulated MI250X 1 GCD");
  csv.row("Sunspot", "Intel Max 1550", "SYCL", "simulated Max 1550 1 tile");
  bench::write_artifacts(std::cout, csv);
}

// Table II: dataset characteristics — the four study datasets (the inputs
// every device ran, at the configured scale) with their measured
// characteristics alongside the paper's full-scale values.
void table2_datasets(const model::StudyResults& study) {
  std::cout << "== Table II: dataset characteristics (scale "
            << study.config.scale << ") ==\n\n";

  model::TextTable t({"k", "contigs", "reads", "avg read len",
                      "hash insertions", "avg extn len", "total extns",
                      "paper extn (full scale)"});
  model::CsvWriter csv = bench::bench_csv(
      "table2_datasets",
                       {"k", "contigs", "reads", "avg_read_len",
                        "insertions", "avg_extn", "total_extns",
                        "paper_avg_extn"});

  for (std::size_t i = 0; i < study.config.ks.size(); ++i) {
    const std::uint32_t k = study.config.ks[i];
    const double target = workload::table2_params(k).target_avg_extn;
    const core::AssemblyInput& in = study.datasets[i];
    workload::DatasetStats s = workload::dataset_stats(in);
    workload::fill_extension_stats(in, s);

    t.add_row({std::to_string(k), std::to_string(s.total_contigs),
               std::to_string(s.total_reads),
               model::TextTable::fmt(s.avg_read_length, 0),
               std::to_string(s.total_hash_insertions),
               model::TextTable::fmt(s.avg_extn_length, 1),
               std::to_string(s.total_extns),
               model::TextTable::fmt(target, 1)});
    csv.row(k, s.total_contigs, s.total_reads, s.avg_read_length,
            s.total_hash_insertions, s.avg_extn_length, s.total_extns,
            target);
  }
  t.render(std::cout);
  std::cout << "\npaper full-scale row check: insertions = reads x (len-k+1)"
               " (10,011,465 / 2,593,467 / 1,473,920 / 775,962)\n";
  std::cout << "expected shape: average extension length rises with k\n";
  bench::write_artifacts(std::cout, csv);
}

// Table III: comparison of architectural features, straight from the
// device models (which encode the paper's numbers).
void table3_architecture() {
  std::cout << "== Table III: architectural features ==\n\n";
  model::TextTable t({"Board", "Compute units", "L1 cache", "L2 cache",
                      "Memory", "warp/subgroup", "peak GINTOPS",
                      "HBM GB/s", "machine balance"});
  model::CsvWriter csv = bench::bench_csv(
      "table3_architecture",
      {"board", "cus", "l1_per_cu_bytes", "l2_bytes", "hbm_bytes",
       "warp_width", "peak_gintops", "hbm_bw_gbps", "machine_balance"});

  for (const auto& d : simt::DeviceSpec::study_devices()) {
    t.add_row({d.name, std::to_string(d.num_cus),
               std::to_string(d.l1_per_cu_bytes / 1024) + " KB/CU",
               std::to_string(d.l2_bytes / (1024 * 1024)) + " MB",
               std::to_string(d.hbm_bytes >> 30) + " GB",
               std::to_string(d.warp_width),
               model::TextTable::fmt(d.peak_gintops, 0),
               model::TextTable::fmt(d.hbm_bw_gbps, 0),
               model::TextTable::fmt(d.machine_balance(), 2)});
    csv.row(d.name, d.num_cus, d.l1_per_cu_bytes, d.l2_bytes, d.hbm_bytes,
            d.warp_width, d.peak_gintops, d.hbm_bw_gbps, d.machine_balance());
  }
  t.render(std::cout);
  std::cout << "\npaper reference: A100 108 SMs / 192KB / 40MB;"
               " MI250X 110 CUs per GCD / 16KB / 8MB per die;"
               " Max 1550 64 Xe-cores per tile / 204MB L2 per tile\n";
  std::cout << "machine balances annotated in Fig. 6: 0.23 / 0.23 / 0.09\n";
  bench::write_artifacts(std::cout, csv);
}

// Table IV: architectural efficiency and the Pennycook performance-
// portability metric over the INTOP roofline.
void table4_arch_efficiency(const model::StudyResults& study) {
  print_banner(std::cout, "Table IV: architectural efficiency", study);

  model::TextTable t({"dataset k", "NVIDIA A100 (CUDA)", "AMD MI250X (HIP)",
                      "Intel Max 1550 (SYCL)", "P_arch"});
  model::CsvWriter csv = bench::bench_csv(
      "table4_arch_efficiency",
                       {"k", "nvidia", "amd", "intel", "p_arch"});

  const auto matrix = study.arch_eff_matrix();
  const auto p = model::portability_table(matrix);
  for (std::size_t i = 0; i < study.config.ks.size(); ++i) {
    t.add_row({std::to_string(study.config.ks[i]),
               model::TextTable::pct(matrix[i][0]),
               model::TextTable::pct(matrix[i][1]),
               model::TextTable::pct(matrix[i][2]),
               model::TextTable::pct(p.per_dataset_p[i])});
    csv.row(study.config.ks[i], matrix[i][0], matrix[i][1], matrix[i][2],
            p.per_dataset_p[i]);
  }
  t.add_row({"Average P_arch", "", "", "", model::TextTable::pct(p.average_p)});
  t.render(std::cout);

  std::cout << "\npaper: per-cell 12.8%-18.8%; per-k P 14.4/15.9/16.3/15.6%; "
               "average 15.5%\n";
  std::cout << "expected shape: efficiencies of similar magnitude across "
               "devices (good portability)\n";
  bench::write_artifacts(std::cout, csv);
}

// Table V: integer operations in the hash function — closed form, checked
// against the paper's exact values.
void table5_hash_intops() {
  std::cout << "== Table V: integer operations in the hash function ==\n\n";
  model::TextTable t({"dataset (k-mer size)", "21", "33", "55", "77"});
  std::vector<std::string> init{"Initialization"}, mix{"Mix Loop"},
      clean{"Cleanup"}, feed{"Key feed (loads+folds)"}, total{"INTOP1"};
  model::CsvWriter csv = bench::bench_csv(
      "table5_hash_intops",
                       {"k", "initialization", "mix_loop", "cleanup",
                        "key_feed", "intop1"});

  for (std::uint32_t k : workload::kTable2Ks) {
    const model::HashOpBreakdown b = model::hash_op_breakdown(k);
    init.push_back(std::to_string(b.initialization));
    mix.push_back(std::to_string(b.mix_loop));
    clean.push_back(std::to_string(b.cleanup));
    feed.push_back(std::to_string(b.key_feed));
    total.push_back(std::to_string(b.intop1));
    csv.row(k, b.initialization, b.mix_loop, b.cleanup, b.key_feed, b.intop1);
  }
  t.add_row(init);
  t.add_row(mix);
  t.add_row(clean);
  t.add_row(feed);
  t.add_row(total);
  t.render(std::cout);
  std::cout << "\npaper INTOP1 row: 215 / 305 / 457 / 635 (exact match "
               "required; the paper's own component rows omit the key-feed "
               "ops included in its totals)\n";
  bench::write_artifacts(std::cout, csv);
}

// Table VI: theoretical INTOP Intensity calculations (closed form).
void table6_theoretical_ii() {
  std::cout << "== Table VI: theoretical II calculations ==\n\n";
  model::TextTable t({"k-mer size", "INTOPs per loop cycle",
                      "Bytes per loop cycle", "INTOP Intensity (II)"});
  model::CsvWriter csv = bench::bench_csv(
      "table6_theoretical_ii",
                       {"k", "intops_per_cycle", "bytes_per_cycle", "ii"});

  for (std::uint32_t k : workload::kTable2Ks) {
    const model::TheoreticalII x = model::theoretical_ii(k);
    t.add_row({std::to_string(k), std::to_string(x.intops_per_cycle),
               std::to_string(x.bytes_per_cycle),
               model::TextTable::fmt(x.ii, 3)});
    csv.row(k, x.intops_per_cycle, x.bytes_per_cycle, x.ii);
  }
  t.render(std::cout);
  std::cout << "\npaper rows: 430/89/4.831, 610/125/4.880, 914/191/4.785, "
               "1270/257/4.942 (exact match required)\n";
  bench::write_artifacts(std::cout, csv);
}

// Table VII: algorithm efficiency (fraction of the theoretical INTOP
// intensity achieved) and its Pennycook portability metric.
void table7_alg_efficiency(const model::StudyResults& study) {
  print_banner(std::cout, "Table VII: algorithm efficiency", study);

  model::TextTable t({"dataset k", "NVIDIA A100 (CUDA)", "AMD MI250X (HIP)",
                      "Intel Max 1550 (SYCL)", "P_alg"});
  model::CsvWriter csv = bench::bench_csv(
      "table7_alg_efficiency",
                       {"k", "nvidia", "amd", "intel", "p_alg"});

  const auto matrix = study.alg_eff_matrix();
  const auto p = model::portability_table(matrix);
  for (std::size_t i = 0; i < study.config.ks.size(); ++i) {
    t.add_row({std::to_string(study.config.ks[i]),
               model::TextTable::pct(matrix[i][0]),
               model::TextTable::pct(matrix[i][1]),
               model::TextTable::pct(matrix[i][2]),
               model::TextTable::pct(p.per_dataset_p[i])});
    csv.row(study.config.ks[i], matrix[i][0], matrix[i][1], matrix[i][2],
            p.per_dataset_p[i]);
  }
  t.add_row({"Average P_alg", "", "", "", model::TextTable::pct(p.average_p)});
  t.render(std::cout);

  std::cout << "\npaper: NVIDIA 17.1->27.2% rising with k, Intel 13.4->60.9% "
               "rising, AMD 55.4->28.9% falling; average P_alg 19.4%\n";
  std::cout << "expected shape: NVIDIA & Intel algorithm efficiency increases "
               "with k (larger caches exploited)\n";
  bench::write_artifacts(std::cout, csv);
}

// Figure 5: kernel execution time comparison across devices and k-mer
// sizes (grouped bars + CSV).
void fig5_kernel_time(const model::StudyResults& study) {
  print_banner(std::cout, "Figure 5: kernel execution time", study);

  model::GroupedBarChart chart("Kernel Time", "milliseconds (modelled)");
  std::vector<std::string> groups;
  for (std::uint32_t k : study.config.ks) {
    groups.push_back("kmer size " + std::to_string(k));
  }
  chart.set_groups(groups);

  model::CsvWriter csv = bench::bench_csv(
      "fig5_kernel_time",
      {"device", "model", "k", "time_ms"});
  for (const auto& dev : study.devices) {
    std::vector<double> times;
    for (std::uint32_t k : study.config.ks) {
      const auto& c = study.cell(dev.vendor, k);
      times.push_back(c.time_s * 1e3);
      csv.row(dev.name, simt::model_name(c.pm), k, c.time_s * 1e3);
    }
    chart.add_series(simt::vendor_name(dev.vendor), times);
  }
  chart.render(std::cout);

  // Shape checks the paper's discussion hinges on.
  const auto& amd21 = study.cell(simt::Vendor::kAmd, 21);
  const auto& amd77 = study.cell(simt::Vendor::kAmd, 77);
  const auto& nv21 = study.cell(simt::Vendor::kNvidia, 21);
  const auto& nv77 = study.cell(simt::Vendor::kNvidia, 77);
  std::cout << "\nshape checks vs paper:\n";
  std::cout << "  AMD grows k=21 -> k=77 by "
            << model::TextTable::fmt(amd77.time_s / amd21.time_s, 2)
            << "x (paper ~3.2x)  [expect > 1]\n";
  std::cout << "  AMD/NVIDIA at k=77: "
            << model::TextTable::fmt(amd77.time_s / nv77.time_s, 2)
            << "x (paper ~2.6x)  [expect > 1]\n";
  std::cout << "  NVIDIA k=77 / k=21: "
            << model::TextTable::fmt(nv77.time_s / nv21.time_s, 2)
            << "x (paper ~0.76x) [expect ~1]\n";
  bench::write_artifacts(std::cout, csv);
}

// Figure 6: the integer-operations roofline model for all three devices,
// with the kernel's achieved (II, GINTOP/s) markers per k-mer size.
void fig6_roofline(const model::StudyResults& study) {
  print_banner(std::cout, "Figure 6: INTOP roofline models", study);

  model::CsvWriter csv = bench::bench_csv(
      "fig6_roofline",
                       {"device", "k", "ii", "gintops", "ceiling", "bound",
                        "machine_balance"});

  for (const auto& dev : study.devices) {
    model::ScatterPlot plot(
        std::string("Roofline: ") + dev.name + "  (machine balance " +
            model::TextTable::fmt(dev.machine_balance(), 2) + ", peak " +
            model::TextTable::fmt(dev.peak_gintops, 0) + " GINTOPS)",
        "II [INTOPs/byte]", "GINTOP/s");
    plot.set_log_x(true);
    plot.set_log_y(true);
    plot.set_x_range(0.01, 10.0);
    plot.set_y_range(1.0, 2000.0);

    const model::RooflineCurve curve =
        model::sample_roofline(dev, 0.01, 10.0, 72);
    plot.add_series({"roofline", '-', curve.intensity, curve.gintops});

    const char markers[4] = {'1', '3', '5', '7'};  // k = 21/33/55/77
    int mi = 0;
    for (std::uint32_t k : study.config.ks) {
      const auto& c = study.cell(dev.vendor, k);
      plot.add_series({"k=" + std::to_string(k), markers[mi++ % 4],
                       {c.intensity},
                       {c.gintops}});
      csv.row(dev.name, k, c.intensity, c.gintops,
              model::roofline_ceiling(dev, c.intensity),
              model::classify(dev, c.intensity) ==
                      model::RooflineBound::kMemory
                  ? "memory"
                  : "compute",
              dev.machine_balance());
    }
    plot.render(std::cout);
    std::cout << "\n";
  }

  std::cout << "== hierarchical intensities (INTOPs per byte at each memory "
               "level) ==\n";
  model::TextTable hier({"device", "k", "II_L1", "II_L2", "II_HBM",
                         "L1 ceil", "L2 ceil", "HBM ceil"});
  for (const auto& dev : study.devices) {
    for (std::uint32_t k : study.config.ks) {
      const auto& c = study.cell(dev.vendor, k);
      hier.add_row({dev.name, std::to_string(k),
                    model::TextTable::fmt(c.ii_l1),
                    model::TextTable::fmt(c.ii_l2),
                    model::TextTable::fmt(c.intensity),
                    model::TextTable::fmt(
                        model::level_ceiling(dev, c.ii_l1, dev.l1_bw_gbps), 1),
                    model::TextTable::fmt(
                        model::level_ceiling(dev, c.ii_l2, dev.l2_bw_gbps), 1),
                    model::TextTable::fmt(
                        model::level_ceiling(dev, c.intensity, dev.hbm_bw_gbps), 1)});
    }
  }
  hier.render(std::cout);

  std::cout << "\npaper shape: A100 compute-bound at every k; MI250X memory-"
               "bound at small k with markers drifting with k; Max 1550's "
               "markers move upper-right with k\n";
  bench::write_artifacts(std::cout, csv);
}

// Figure 7: head-to-head correlation of the CUDA (A100) and HIP (MI250X)
// implementations — GINTOP/s (a) and HBM gigabytes moved (b).
void fig7_nvidia_vs_amd(const model::StudyResults& study) {
  print_banner(std::cout,
               "Figure 7: A100 vs MI250X (CUDA vs HIP)", study);

  model::CsvWriter csv = bench::bench_csv(
      "fig7_nvidia_vs_amd",
                       {"k", "amd_gintops", "nvidia_gintops", "amd_gbytes",
                        "nvidia_gbytes"});

  model::ScatterPlot perf("a) A100 vs MI250X GINTOP/s", "MI250X GINTOP/s",
                          "A100 GINTOP/s");
  perf.set_log_x(true);
  perf.set_log_y(true);
  perf.add_diagonal();
  model::ScatterPlot bytes("b) A100 vs MI250X GBytes", "MI250X GBytes",
                           "A100 GBytes");
  bytes.set_log_x(true);
  bytes.set_log_y(true);
  bytes.add_diagonal();

  const char markers[4] = {'1', '3', '5', '7'};
  int mi = 0;
  bool perf_above = true, bytes_below = true;
  for (std::uint32_t k : study.config.ks) {
    const auto& nv = study.cell(simt::Vendor::kNvidia, k);
    const auto& amd = study.cell(simt::Vendor::kAmd, k);
    const char m = markers[mi++ % 4];
    perf.add_series({"k=" + std::to_string(k), m, {amd.gintops},
                     {nv.gintops}});
    bytes.add_series({"k=" + std::to_string(k), m, {amd.hbm_gbytes},
                      {nv.hbm_gbytes}});
    csv.row(k, amd.gintops, nv.gintops, amd.hbm_gbytes, nv.hbm_gbytes);
    perf_above = perf_above && nv.gintops > amd.gintops;
    bytes_below = bytes_below && nv.hbm_gbytes < amd.hbm_gbytes;
  }
  perf.render(std::cout);
  std::cout << "\n";
  bytes.render(std::cout);

  std::cout << "\nshape checks vs paper:\n";
  std::cout << "  every point above diagonal in (a) — CUDA outperforms HIP: "
            << (perf_above ? "YES" : "NO") << "\n";
  std::cout << "  every point below diagonal in (b) — AMD moves more bytes: "
            << (bytes_below ? "YES" : "NO") << "\n";
  bench::write_artifacts(std::cout, csv);
}

// Figure 8: head-to-head correlation of the CUDA (A100) and SYCL
// (Max 1550) implementations — GINTOP/s (a) and HBM gigabytes moved (b).
void fig8_nvidia_vs_intel(const model::StudyResults& study) {
  print_banner(std::cout,
               "Figure 8: A100 vs Max 1550 (CUDA vs SYCL)", study);

  model::CsvWriter csv = bench::bench_csv(
      "fig8_nvidia_vs_intel",
                       {"k", "intel_gintops", "nvidia_gintops",
                        "intel_gbytes", "nvidia_gbytes"});

  model::ScatterPlot perf("a) A100 vs MAX 1550 GINTOP/s",
                          "MAX 1550 GINTOP/s", "A100 GINTOP/s");
  perf.set_log_x(true);
  perf.set_log_y(true);
  perf.add_diagonal();
  model::ScatterPlot bytes("b) A100 vs MAX 1550 GBytes", "MAX 1550 GBytes",
                           "A100 GBytes");
  bytes.set_log_x(true);
  bytes.set_log_y(true);
  bytes.add_diagonal();

  const char markers[4] = {'1', '3', '5', '7'};
  int mi = 0;
  bool perf_above_small_k = true;
  bool intel_competitive_large_k = true;
  for (std::uint32_t k : study.config.ks) {
    const auto& nv = study.cell(simt::Vendor::kNvidia, k);
    const auto& intel = study.cell(simt::Vendor::kIntel, k);
    const char m = markers[mi++ % 4];
    perf.add_series({"k=" + std::to_string(k), m, {intel.gintops},
                     {nv.gintops}});
    bytes.add_series({"k=" + std::to_string(k), m, {intel.hbm_gbytes},
                      {nv.hbm_gbytes}});
    csv.row(k, intel.gintops, nv.gintops, intel.hbm_gbytes, nv.hbm_gbytes);
    if (k == 21) {
      // Time-based: the GINTOP/s numerators use each device's own
      // instruction convention (narrow sub-groups issue more warp
      // instructions for the same work), so the raw rate comparison
      // overstates Intel. CUDA leads outright on the smallest k.
      perf_above_small_k = perf_above_small_k && nv.time_s < intel.time_s;
    }
    if (k >= 55) {
      // The paper: "As the k-mer size increases to 55 and 77, SYCL has a
      // shorter run time due to fewer data movement."
      intel_competitive_large_k =
          intel_competitive_large_k && intel.time_s <= nv.time_s * 1.15;
    }
  }
  perf.render(std::cout);
  std::cout << "\n";
  bytes.render(std::cout);

  std::cout << "\nshape checks vs paper:\n";
  std::cout << "  A100 ahead (time) at the smallest k: "
            << (perf_above_small_k ? "YES" : "NO") << "\n";
  std::cout << "  SYCL run time competitive or shorter at k >= 55: "
            << (intel_competitive_large_k ? "YES" : "NO") << "\n";
  bench::write_artifacts(std::cout, csv);
}

// Figure 9: the architecture-oblivious potential speed-up plot — each
// point's x is % of theoretical INTOP intensity achieved (algorithm
// efficiency), its y is % of the roofline achieved (architectural
// efficiency); iso-curves of 1/e give the potential speed-up from
// improving either axis.
void fig9_potential_speedup(const model::StudyResults& study) {
  print_banner(std::cout, "Figure 9: potential speed-up plot", study);

  model::ScatterPlot plot("Potential speed-up", "% theoretical AI",
                          "% roofline");
  plot.set_x_range(0, 100);
  plot.set_y_range(0, 100);

  model::CsvWriter csv = bench::bench_csv(
      "fig9_potential_speedup",
      {"device", "k", "pct_theoretical_ai", "pct_roofline",
       "speedup_by_improving_ai", "speedup_by_improving_perf"});

  const char device_marker[3] = {'N', 'A', 'I'};
  int di = 0;
  double max_x = 0, max_y = 0;
  for (const auto& dev : study.devices) {
    std::vector<double> xs, ys;
    for (std::uint32_t k : study.config.ks) {
      const auto& c = study.cell(dev.vendor, k);
      xs.push_back(c.alg_eff * 100.0);
      ys.push_back(c.arch_eff * 100.0);
      max_x = std::max(max_x, xs.back());
      max_y = std::max(max_y, ys.back());
      csv.row(dev.name, k, c.alg_eff * 100.0, c.arch_eff * 100.0,
              c.alg_eff > 0 ? 1.0 / c.alg_eff : 0.0,
              c.arch_eff > 0 ? 1.0 / c.arch_eff : 0.0);
    }
    plot.add_series({std::string(simt::vendor_name(dev.vendor)),
                     device_marker[di++ % 3], xs, ys});
  }
  plot.render(std::cout);

  std::cout << "\niso speed-up reference: a point at (x%, y%) can gain "
               "100/x by improving data locality and 100/y by improving "
               "kernel performance\n";
  std::cout << "paper shape: markers gather toward the lower-left corner "
               "(unlike stencils in the upper right); Intel reaches the "
               "furthest right at large k\n";
  std::cout << "observed envelope: max %AI "
            << model::TextTable::fmt(max_x, 1) << ", max %roofline "
            << model::TextTable::fmt(max_y, 1) << "\n";
  bench::write_artifacts(std::cout, csv);
}

/// The study's dataset at `k`: the input every device ran in Figs 5-9.
const core::AssemblyInput& study_input(const model::StudyResults& study,
                                       std::uint32_t k) {
  const auto& ks = study.config.ks;
  return study.datasets.at(static_cast<std::size_t>(
      std::find(ks.begin(), ks.end(), k) - ks.begin()));
}

// Ablation: run every atomic-insertion protocol (CUDA __match_any_sync,
// HIP done-flag, SYCL sub-group barrier) on every device model. The paper
// ports each protocol to its native device; this cross product shows how
// much of each device's behaviour is the protocol vs the hardware.
void ablation_protocols(const model::StudyResults& study) {
  constexpr std::uint32_t kK = 33;

  std::cout << "== Ablation: insertion protocol x device (k=" << kK
            << ", scale " << study.config.scale << ") ==\n\n";

  const core::AssemblyInput& input = study_input(study, kK);

  model::TextTable t({"device", "protocol", "time (ms)", "GINTOP/s",
                      "INTOPs", "native?"});
  model::CsvWriter csv = bench::bench_csv(
      "ablation_protocols",
                       {"device", "protocol", "time_ms", "gintops",
                        "intops", "native"});

  for (const auto& dev : simt::DeviceSpec::study_devices()) {
    for (auto pm : {simt::ProgrammingModel::kCuda,
                    simt::ProgrammingModel::kHip,
                    simt::ProgrammingModel::kSycl}) {
      const model::StudyCell c = model::run_cell(dev, pm, input, {});
      const bool native = pm == dev.native_model;
      t.add_row({dev.name, simt::model_name(pm),
                 model::TextTable::fmt(c.time_s * 1e3, 3),
                 model::TextTable::fmt(c.gintops, 1),
                 std::to_string(c.intops), native ? "yes" : ""});
      csv.row(dev.name, simt::model_name(pm), c.time_s * 1e3, c.gintops,
              c.intops, native);
    }
  }
  t.render(std::cout);
  std::cout << "\nexpected: protocol choice shifts instruction counts by a "
               "few percent; the device model dominates the time — the "
               "paper's conclusion that portability costs live in hardware "
               "traits, not the collective idiom\n";
  bench::write_artifacts(std::cout, csv);
}

// Ablation: SYCL sub-group width sweep on the Max 1550 model. The paper
// "experimented with several sub-group sizes and found that the sub-group
// size of 16 had the most consistent and optimal performance".
void ablation_subgroup(const model::StudyResults& study) {
  std::cout << "== Ablation: Intel sub-group width sweep (scale "
            << study.config.scale << ") ==\n\n";

  model::TextTable t({"k", "width 8 (ms)", "width 16 (ms)", "width 32 (ms)"});
  model::CsvWriter csv = bench::bench_csv(
      "ablation_subgroup",
                       {"k", "width", "time_ms", "gintops"});

  const simt::DeviceSpec dev = simt::DeviceSpec::max1550_tile();
  for (std::uint32_t k : workload::kTable2Ks) {
    const core::AssemblyInput& input = study_input(study, k);

    std::vector<std::string> row{std::to_string(k)};
    for (std::uint32_t width : {8U, 16U, 32U}) {
      core::AssemblyOptions opts;
      opts.subgroup_override = width;
      const model::StudyCell c =
          model::run_cell(dev, simt::ProgrammingModel::kSycl, input, opts);
      row.push_back(model::TextTable::fmt(c.time_s * 1e3, 3));
      csv.row(k, width, c.time_s * 1e3, c.gintops);
    }
    t.add_row(row);
  }
  t.render(std::cout);
  std::cout << "\nexpected: narrow sub-groups waste less issue on the "
               "single-lane walk but add construction rounds; 16 balances "
               "the two — the paper's chosen width\n";
  bench::write_artifacts(std::cout, csv);
}

// Ablation: contig binning on/off. Binning groups contigs with similar
// read counts into the same launch so co-resident walks finish together
// (Fig. 3); without it, stragglers serialise whole waves.
void ablation_binning(const model::StudyResults& study) {
  std::cout << "== Ablation: contig binning (A100 model, scale "
            << study.config.scale << ") ==\n\n";

  model::TextTable t({"k", "binned (ms)", "unbinned (ms)", "binning gain"});
  model::CsvWriter csv = bench::bench_csv(
      "ablation_binning",
                       {"k", "binned_ms", "unbinned_ms", "gain"});

  const simt::DeviceSpec dev = simt::DeviceSpec::a100();
  for (std::uint32_t k : workload::kTable2Ks) {
    const core::AssemblyInput& input = study_input(study, k);

    core::AssemblyOptions binned;
    core::AssemblyOptions unbinned;
    unbinned.bin_contigs = false;
    const auto cb = model::run_cell(dev, dev.native_model, input, binned);
    const auto cu = model::run_cell(dev, dev.native_model, input, unbinned);
    t.add_row({std::to_string(k), model::TextTable::fmt(cb.time_s * 1e3, 3),
               model::TextTable::fmt(cu.time_s * 1e3, 3),
               model::TextTable::fmt(cu.time_s / cb.time_s, 2) + "x"});
    csv.row(k, cb.time_s * 1e3, cu.time_s * 1e3, cu.time_s / cb.time_s);
  }
  t.render(std::cout);
  std::cout << "\nexpected: binning >= 1x at every k (identical results, "
               "less straggler-serialised wave time)\n";
  bench::write_artifacts(std::cout, csv);
}

// Ablation: L2 capacity sweep on the MI250X model — isolating the paper's
// central claim that the AMD large-k slowdown is a cache-capacity effect
// ("Intel's introduction of a larger L2 cache allows the local assembly
// kernel to scale better").
void ablation_cache(const model::StudyResults& study) {
  std::cout << "== Ablation: L2 capacity sweep on the MI250X model (scale "
            << study.config.scale << ") ==\n\n";

  model::TextTable t({"k", "8 MB (ms)", "40 MB (ms)", "204 MB (ms)",
                      "HBM GB @8MB", "HBM GB @204MB"});
  model::CsvWriter csv = bench::bench_csv(
      "ablation_cache",
                       {"k", "l2_mb", "time_ms", "hbm_gbytes", "intensity"});

  for (std::uint32_t k : workload::kTable2Ks) {
    const core::AssemblyInput& input = study_input(study, k);

    std::vector<std::string> row{std::to_string(k)};
    double gb_small = 0, gb_big = 0;
    for (std::uint64_t l2_mb : {8ULL, 40ULL, 204ULL}) {
      simt::DeviceSpec dev = simt::DeviceSpec::mi250x_gcd();
      dev.l2_bytes = l2_mb * 1024 * 1024;
      const auto c = model::run_cell(dev, dev.native_model, input, {});
      row.push_back(model::TextTable::fmt(c.time_s * 1e3, 3));
      csv.row(k, l2_mb, c.time_s * 1e3, c.hbm_gbytes, c.intensity);
      if (l2_mb == 8) gb_small = c.hbm_gbytes;
      if (l2_mb == 204) gb_big = c.hbm_gbytes;
    }
    row.push_back(model::TextTable::fmt(gb_small, 3));
    row.push_back(model::TextTable::fmt(gb_big, 3));
    t.add_row(row);
  }
  t.render(std::cout);
  std::cout << "\nexpected: growing L2 monotonically cuts HBM traffic and "
               "time, with the largest relative gain at large k — the "
               "Intel-vs-AMD story with everything else held equal\n";
  bench::write_artifacts(std::cout, csv);
}

// Hardware projection (paper §V.E): the potential-speedup analysis is
// "architecture oblivious", so sweep the two features the paper identifies
// as decisive for this workload — L2 capacity and warp width — on an
// otherwise-fixed device and project where local assembly would land.
void projection_hardware(const model::StudyResults& study) {
  constexpr std::uint32_t kK = 77;  // the cache-sensitive dataset

  std::cout << "== Hardware projection: L2 x warp width at k=" << kK
            << " (scale " << study.config.scale << ") ==\n";
  std::cout << "(base device: MI250X-like, the cache-sensitive model; each cell\n re-models the kernel)\n\n";

  const core::AssemblyInput& input = study_input(study, kK);

  model::TextTable t({"L2 MB", "width 16 (ms)", "width 32 (ms)",
                      "width 64 (ms)"});
  model::CsvWriter csv = bench::bench_csv(
      "projection_hardware",
                       {"l2_mb", "warp_width", "time_ms", "arch_eff",
                        "intensity"});

  double best_time = 1e30;
  std::string best_cfg;
  for (std::uint64_t l2_mb : {8ULL, 40ULL, 204ULL, 408ULL}) {
    std::vector<std::string> row{std::to_string(l2_mb)};
    for (std::uint32_t width : {16U, 32U, 64U}) {
      simt::DeviceSpec dev = simt::DeviceSpec::mi250x_gcd();
      dev.name = "projection";
      dev.l2_bytes = l2_mb * 1024 * 1024;
      dev.warp_width = width;
      const auto c = model::run_cell(dev, simt::ProgrammingModel::kHip,
                                     input, {});
      row.push_back(model::TextTable::fmt(c.time_s * 1e3, 3));
      csv.row(l2_mb, width, c.time_s * 1e3, c.arch_eff, c.intensity);
      if (c.time_s < best_time) {
        best_time = c.time_s;
        best_cfg = std::to_string(l2_mb) + " MB L2, width " +
                   std::to_string(width);
      }
    }
    t.add_row(row);
  }
  t.render(std::cout);
  std::cout << "\nbest projected configuration: " << best_cfg << " ("
            << model::TextTable::fmt(best_time * 1e3, 3) << " ms)\n";
  std::cout << "paper's conclusion: \"larger GPU memory along with a memory "
               "subsystem with large cache sizes is more suitable for "
               "workloads like local assembly\"; narrow sub-groups reduce "
               "the predication cost of the serial walk\n";
  bench::write_artifacts(std::cout, csv);
}

// Multi-GPU scaling of the local assembly phase: MetaHipMer keeps contigs
// and their reads node-local, so the phase scales with ranks up to load
// balance. This section partitions the k=21 dataset (the largest) across
// 1..8 simulated A100s and reports makespan speed-up and balance.
void scaling_multigpu(const model::StudyResults& study) {
  std::cout << "== Multi-GPU scaling (k=21, A100 model, scale " << study.config.scale
            << ") ==\n\n";

  const core::AssemblyInput& input = study_input(study, 21);

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
}

std::string random_seq(std::uint64_t seed, std::size_t len) {
  bio::Xoshiro256 rng(seed);
  std::string s(len, 'A');
  for (char& c : s) {
    c = bio::code_to_base(static_cast<int>(rng.below(4)));
  }
  return s;
}

bio::ReadSet shotgun(const std::string& genome, double coverage,
                     std::uint32_t read_len, std::uint64_t seed) {
  bio::Xoshiro256 rng(seed);
  bio::ReadSet reads;
  const auto n = static_cast<std::uint64_t>(
      coverage * static_cast<double>(genome.size()) / read_len);
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t start = rng.below(genome.size() - read_len);
    reads.append(genome.substr(start, read_len), 35);
  }
  return reads;
}

// Distributed weak scaling: run the sharded multi-rank pipeline
// (dist::run_distributed) at 1/2/4/8 simulated ranks with the genome —
// and so the k-mer load — growing proportionally, and record the
// partition quality and message-layer accounting the design promises:
// per-rank k-mer spread within 10% (the two-level hash partition is
// near-uniform), measured remote insert traffic within 5% of the
// analytic (R-1)/R prediction, and the modelled network seconds billed
// by the MessageLayer. Everything here is modelled/seeded and therefore
// deterministic. Returns whether the spread and traffic bars held (also
// asserted by the ctest DistPipeline.WeakScalingKeepsPartitionAndTrafficBars).
bool distributed() {
  std::cout << "== Distributed weak scaling (k=21, A100 network model) ==\n\n";

  const auto device = simt::DeviceSpec::a100();
  model::TextTable t({"ranks", "reads", "kmers", "spread", "remote msgs",
                      "model err", "msgs/kmer", "net (ms)"});
  model::CsvWriter csv = bench::bench_csv(
      "distributed", {"ranks", "reads", "kmers", "kmer_spread_pct",
                      "remote_msgs", "remote_msgs_model", "model_err_pct",
                      "msgs_per_kmer", "network_ms", "batches"});

  bool spread_ok = true, model_ok = true;

  for (const std::uint32_t ranks : {1u, 2u, 4u, 8u}) {
    // Weak scaling: genome (and with it the distinct-k-mer load) grows
    // with the fleet, so per-rank work stays roughly constant.
    const bio::ReadSet reads =
        shotgun(random_seq(31, 1500 * ranks), 8.0, 100, 32 + ranks);

    dist::DistOptions opts;
    opts.ranks = ranks;
    opts.pipeline.k_iterations = {21};
    const dist::DistResult r = dist::run_distributed(reads, device, opts);

    std::uint64_t kmers = 0, kmin = UINT64_MAX, kmax = 0;
    for (const auto& rr : r.ranks) {
      kmers += rr.kmers;
      kmin = std::min(kmin, rr.kmers);
      kmax = std::max(kmax, rr.kmers);
    }
    const double mean =
        static_cast<double>(kmers) / static_cast<double>(r.ranks.size());
    const double spread_pct =
        mean > 0.0 ? 100.0 * static_cast<double>(kmax - kmin) / mean : 0.0;
    const double err_pct =
        r.count_remote_msgs_model > 0.0
            ? 100.0 *
                  std::abs(static_cast<double>(r.count_remote_msgs) -
                           r.count_remote_msgs_model) /
                  r.count_remote_msgs_model
            : 0.0;
    const double msgs_per_kmer =
        kmers > 0 ? static_cast<double>(r.traffic.msgs) /
                        static_cast<double>(kmers)
                  : 0.0;

    t.add_row({std::to_string(ranks), std::to_string(reads.size()),
               std::to_string(kmers),
               model::TextTable::fmt(spread_pct, 2) + "%",
               std::to_string(r.traffic.msgs),
               model::TextTable::fmt(err_pct, 2) + "%",
               model::TextTable::fmt(msgs_per_kmer, 3),
               model::TextTable::fmt(r.network_s * 1e3, 3)});
    csv.row(ranks, reads.size(), kmers, spread_pct, r.count_remote_msgs,
            r.count_remote_msgs_model, err_pct, msgs_per_kmer,
            r.network_s * 1e3, r.traffic.batches);

    if (ranks > 1) {
      // The design's acceptance bars, enforced on every fleet size.
      if (spread_pct > 10.0) {
        std::cerr << "FAIL: per-rank k-mer spread " << spread_pct
                  << "% > 10% at " << ranks << " ranks\n";
        spread_ok = false;
      }
      if (err_pct > 5.0) {
        std::cerr << "FAIL: remote-insert traffic off the analytic model "
                  << "by " << err_pct << "% > 5% at " << ranks
                  << " ranks\n";
        model_ok = false;
      }
    }
  }
  t.render(std::cout);
  std::cout << "\nexpected: spread and msgs/kmer flat across fleet sizes "
               "(weak scaling), remote traffic tracking the (R-1)/R "
               "analytic model\n";

  bench::write_artifacts(std::cout, csv);
  return spread_ok && model_ok;
}

/// When the study was traced (LASSM_TRACE): writes the aggregate metrics
/// snapshot as paper.metrics.json and the counter-attribution profile as
/// paper.profile.{json,csv} (placed on the first study device's roofline)
/// in the results directory, printing each path.
void write_trace_artifacts(std::ostream& os,
                           const model::StudyResults& study) {
  if (!study.traced) return;
  const std::string stem = model::results_dir() + "/paper";
  const std::string metrics_path = stem + ".metrics.json";
  if (trace::write_metrics_json_file(metrics_path, study.metrics)) {
    os << "metrics: " << metrics_path << "\n";
  }
  if (!study.attribution.empty() && !study.devices.empty()) {
    const model::AttributedProfile profile = model::build_attributed_profile(
        study.attribution, study.devices.front());
    const std::string profile_stem = stem + ".profile";
    if (model::write_profile_report(profile_stem, profile).ok()) {
      os << "profile: " << profile_stem << ".json (+.csv)\n";
      model::print_attributed_profile(os, profile);
    }
  }
}

}  // namespace

int main() {
  // Honour LASSM_LOG / LASSM_FLIGHT_DIR like the example CLIs do (default
  // stays kWarn, so a quiet run stays quiet).
  log::Logger::instance().configure_from_env();
  const model::StudyConfig cfg = model::study_config_from_env();
  std::cerr << "[bench] running study grid (scale " << cfg.scale << ")...\n";
  const model::StudyResults study = model::run_study(cfg, &std::cerr);

  bool bars_ok = true;
  const std::function<void()> sections[] = {
      table1_platforms,
      [&] { table2_datasets(study); },
      table3_architecture,
      [&] { table4_arch_efficiency(study); },
      table5_hash_intops,
      table6_theoretical_ii,
      [&] { table7_alg_efficiency(study); },
      [&] { fig5_kernel_time(study); },
      [&] { fig6_roofline(study); },
      [&] { fig7_nvidia_vs_amd(study); },
      [&] { fig8_nvidia_vs_intel(study); },
      [&] { fig9_potential_speedup(study); },
      [&] { ablation_protocols(study); },
      [&] { ablation_subgroup(study); },
      [&] { ablation_binning(study); },
      [&] { ablation_cache(study); },
      [&] { projection_hardware(study); },
      [&] { scaling_multigpu(study); },
      [&] { bars_ok = distributed(); },
  };
  for (const auto& render : sections) {
    // Every section starts from the stream's default number format: the
    // plots leave fixed-point precision set on std::cout.
    const std::ios::fmtflags flags = std::cout.flags();
    const std::streamsize precision = std::cout.precision();
    render();
    std::cout.flags(flags);
    std::cout.precision(precision);
    std::cout << "\n";
  }
  write_trace_artifacts(std::cout, study);
  return bars_ok ? 0 : 1;
}
