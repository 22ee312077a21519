#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/assembler.hpp"
#include "model/roofline.hpp"
#include "simt/device.hpp"
#include "trace/attribution.hpp"
#include "trace/metrics.hpp"
#include "workload/dataset.hpp"

/// The cross-vendor study harness: runs the local assembly kernel on every
/// (device, dataset-k) pair exactly as the paper's evaluation does, and
/// derives every metric the tables and figures report. All benches build on
/// this so they agree on one set of measurements.
namespace lassm::model {

struct StudyConfig {
  /// Dataset scale relative to Table II (1.0 = full size). Benches default
  /// to a reduced scale for turnaround; override with LASSM_STUDY_SCALE.
  double scale = 0.2;
  std::uint64_t seed = 20240731;
  std::vector<std::uint32_t> ks{21, 33, 55, 77};
  core::AssemblyOptions opts;
  /// When non-empty, run_study traces every run into one tracer and writes
  /// the Chrome trace JSON here (set from LASSM_TRACE by
  /// study_config_from_env). Tracing never changes modelled numbers.
  std::string trace_path;
};

/// Reads LASSM_STUDY_SCALE / LASSM_STUDY_SEED / LASSM_THREADS /
/// LASSM_TRACE from the environment (LASSM_THREADS sets opts.n_threads:
/// host threads driving the simulated warps; results are bit-identical for
/// every value. LASSM_TRACE names a Chrome trace JSON output path).
StudyConfig study_config_from_env();

/// The Table II dataset for `k` at `scale` of its full size (contig and
/// read counts rounded to nearest, at least 50 contigs and 100 reads),
/// generated from `seed`. The one dataset rule of every modelled result:
/// run_study's grid, the ablations and the baselines all read it.
core::AssemblyInput study_dataset(std::uint32_t k, double scale,
                                  std::uint64_t seed);

/// One (device, k) measurement with every derived metric.
struct StudyCell {
  std::string device_name;
  simt::Vendor vendor = simt::Vendor::kNvidia;
  simt::ProgrammingModel pm = simt::ProgrammingModel::kCuda;
  std::uint32_t k = 0;

  double time_s = 0.0;        ///< Fig. 5
  double gintops = 0.0;       ///< Figs. 6-8
  double intensity = 0.0;     ///< Figs. 6, 9 (HBM level)
  double ii_l1 = 0.0;         ///< hierarchical roofline: L1-level intensity
  double ii_l2 = 0.0;         ///< hierarchical roofline: L2-level intensity
  double hbm_gbytes = 0.0;    ///< Figs. 7b, 8b
  double arch_eff = 0.0;      ///< Table IV
  double alg_eff = 0.0;       ///< Table VII
  double theoretical_ii = 0.0;

  std::uint64_t intops = 0;
  std::uint64_t insertions = 0;
  std::uint64_t walk_steps = 0;
  std::uint64_t mer_retries = 0;
  std::uint64_t extension_bases = 0;
};

struct StudyResults {
  StudyConfig config;
  /// study_dataset(config.ks[i], config.scale, config.seed), indexed like
  /// config.ks: the inputs every device ran.
  std::vector<core::AssemblyInput> datasets;
  std::vector<simt::DeviceSpec> devices;  ///< paper order: NVIDIA, AMD, Intel
  std::vector<StudyCell> cells;           ///< device-major, then k

  /// Aggregate metrics snapshot of the whole grid (canonical trace::names);
  /// populated only when config.trace_path was set (traced == true).
  trace::MetricsSnapshot metrics;
  /// Counter-attribution tree of the whole grid (arena of nodes, indices
  /// internal to the vector); populated only when traced.
  std::vector<trace::AttributionNode> attribution;
  bool traced = false;

  const StudyCell& cell(simt::Vendor vendor, std::uint32_t k) const;

  /// efficiencies[dataset][device] matrices for the Pennycook tables.
  std::vector<std::vector<double>> arch_eff_matrix() const;
  std::vector<std::vector<double>> alg_eff_matrix() const;
};

/// Generates the datasets and runs the full grid. Deterministic given the
/// config. `progress` (optional) receives one line per completed run.
StudyResults run_study(const StudyConfig& config,
                       std::ostream* progress = nullptr);

/// Runs a single (device, programming model, k) cell on a caller-provided
/// dataset — the building block for ablations.
StudyCell run_cell(const simt::DeviceSpec& dev, simt::ProgrammingModel pm,
                   const core::AssemblyInput& input,
                   const core::AssemblyOptions& opts);

}  // namespace lassm::model
