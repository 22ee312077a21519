#include "model/study.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <ostream>
#include <stdexcept>

#include "model/roofline.hpp"
#include "model/theoretical.hpp"
#include "trace/export.hpp"
#include "trace/trace.hpp"

namespace lassm::model {

StudyConfig study_config_from_env() {
  StudyConfig cfg;
  if (const char* s = std::getenv("LASSM_STUDY_SCALE"); s != nullptr) {
    const double v = std::atof(s);
    if (v > 0.0 && v <= 1.0) cfg.scale = v;
  }
  if (const char* s = std::getenv("LASSM_STUDY_SEED"); s != nullptr) {
    cfg.seed = static_cast<std::uint64_t>(std::atoll(s));
  }
  if (const char* s = std::getenv("LASSM_THREADS"); s != nullptr) {
    const long v = std::atol(s);
    if (v >= 0) cfg.opts.n_threads = static_cast<unsigned>(v);
  }
  if (const char* s = std::getenv("LASSM_TRACE"); s != nullptr && *s != 0) {
    cfg.trace_path = s;
  }
  return cfg;
}

core::AssemblyInput study_dataset(std::uint32_t k, double scale,
                                  std::uint64_t seed) {
  workload::DatasetParams p = workload::table2_params(k);
  p.num_contigs = std::max<std::uint32_t>(
      50, static_cast<std::uint32_t>(std::llround(p.num_contigs * scale)));
  p.num_reads = std::max<std::uint32_t>(
      100, static_cast<std::uint32_t>(std::llround(p.num_reads * scale)));
  return workload::generate_dataset(p, seed);
}

StudyCell run_cell(const simt::DeviceSpec& dev, simt::ProgrammingModel pm,
                   const core::AssemblyInput& input,
                   const core::AssemblyOptions& opts) {
  core::LocalAssembler assembler(dev, pm, opts);
  const core::AssemblyResult r = assembler.run(input);

  StudyCell cell;
  cell.device_name = dev.name;
  cell.vendor = dev.vendor;
  cell.pm = pm;
  cell.k = input.kmer_len;
  cell.time_s = r.total_time_s;
  cell.gintops = r.gintops();
  cell.intensity = r.intop_intensity();
  const HierarchicalPoint hp = hierarchical_point(r.stats, r.total_time_s);
  cell.ii_l1 = hp.ii_l1;
  cell.ii_l2 = hp.ii_l2;
  cell.hbm_gbytes = r.hbm_gbytes();
  cell.theoretical_ii = theoretical_ii(input.kmer_len).ii;
  cell.arch_eff = architectural_efficiency(
      dev, RooflinePoint{cell.gintops, cell.intensity});
  cell.alg_eff = algorithm_efficiency(cell.intensity, cell.theoretical_ii);
  cell.intops = r.stats.totals.intops;
  cell.insertions = r.stats.totals.insertions;
  cell.walk_steps = r.stats.totals.walk_steps;
  cell.mer_retries = r.stats.totals.mer_retries;
  cell.extension_bases = r.total_extension_bases();
  return cell;
}

StudyResults run_study(const StudyConfig& config, std::ostream* progress) {
  StudyResults results;
  results.config = config;
  const auto& devices = simt::DeviceSpec::study_devices();
  results.devices.assign(devices.begin(), devices.end());

  // Datasets are shared across devices (the paper profiles the same four
  // inputs everywhere), so generate each k once.
  std::vector<core::AssemblyInput>& datasets = results.datasets;
  datasets.reserve(config.ks.size());
  for (std::uint32_t k : config.ks) {
    datasets.push_back(study_dataset(k, config.scale, config.seed));
    if (progress != nullptr) {
      *progress << "generated dataset k=" << k << ": "
                << datasets.back().contigs.size() << " contigs, "
                << datasets.back().reads.size() << " reads, "
                << datasets.back().total_insertions() << " insertions\n";
    }
  }

  // One tracer spans the whole grid: every (device, k) run lands on the
  // same timeline (sim launches concatenate via the tracer's cursor) and
  // one aggregate metrics registry. Tracing reads counters the runs
  // produce anyway, so traced and untraced studies are bit-identical.
  std::unique_ptr<trace::Tracer> tracer;
  core::AssemblyOptions opts = config.opts;
  if (!config.trace_path.empty()) {
    tracer = std::make_unique<trace::Tracer>();
    opts.trace = tracer.get();
  }

  for (const simt::DeviceSpec& dev : results.devices) {
    const simt::ProgrammingModel pm = dev.native_model;
    for (std::size_t i = 0; i < config.ks.size(); ++i) {
      StudyCell cell = run_cell(dev, pm, datasets[i], opts);
      if (progress != nullptr) {
        *progress << dev.name << " (" << simt::model_name(pm) << ") k="
                  << cell.k << ": time=" << cell.time_s * 1e3
                  << " ms, GINTOP/s=" << cell.gintops
                  << ", II=" << cell.intensity
                  << ", GB=" << cell.hbm_gbytes << "\n";
      }
      results.cells.push_back(std::move(cell));
    }
  }

  if (tracer != nullptr) {
    results.metrics = tracer->metrics().snapshot();
    results.attribution = tracer->attribution().nodes();
    results.traced = true;
    if (trace::write_chrome_trace_file(config.trace_path, *tracer) &&
        progress != nullptr) {
      *progress << "trace written to " << config.trace_path << "\n";
    }
  }
  return results;
}

const StudyCell& StudyResults::cell(simt::Vendor vendor,
                                    std::uint32_t k) const {
  for (const StudyCell& c : cells) {
    if (c.vendor == vendor && c.k == k) return c;
  }
  throw std::out_of_range("StudyResults::cell: no such (vendor, k)");
}

std::vector<std::vector<double>> StudyResults::arch_eff_matrix() const {
  std::vector<std::vector<double>> m;
  for (std::uint32_t k : config.ks) {
    std::vector<double> row;
    for (const auto& dev : devices) row.push_back(cell(dev.vendor, k).arch_eff);
    m.push_back(std::move(row));
  }
  return m;
}

std::vector<std::vector<double>> StudyResults::alg_eff_matrix() const {
  std::vector<std::vector<double>> m;
  for (std::uint32_t k : config.ks) {
    std::vector<double> row;
    for (const auto& dev : devices) row.push_back(cell(dev.vendor, k).alg_eff);
    m.push_back(std::move(row));
  }
  return m;
}

}  // namespace lassm::model
