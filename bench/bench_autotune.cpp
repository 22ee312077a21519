// Per-device autotuner + performance-portability scorecard. Searches the
// launch/config space (protocol variant, sub-group width, binning, table
// load factor, batch budget, ladder depth) on every DeviceSpec::zoo()
// entry with the roofline-pruned AutoTuner, then emits:
//   results/portability_scorecard.csv  - Pennycook arch/alg-efficiency
//                                        table, default vs tuned
//   results/BENCH_autotune.json        - winners, speedups, recorded
//                                        expected-speedup floors, and the
//                                        seed-vs-tuned study-grid series
// Everything in both artifacts is modelled (no wall-clock), so two runs —
// at any host thread count — are byte-identical; check.sh relies on that.
//
// Env: LASSM_TUNE_SCALE (probe dataset scale, default 0.02),
// LASSM_STUDY_SEED (shared with bench_paper).

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "model/ascii_plot.hpp"
#include "model/csv.hpp"
#include "model/study.hpp"
#include "model/tuner.hpp"

namespace {

using namespace lassm;

/// Expected tuned-vs-default modelled speedups, recorded at the default
/// probe (scale 0.02, seed 20240731) when the tuner landed. check.sh
/// gates the JSON against these floors, so a model or tuner change that
/// silently erases a win fails the Release leg. Floors are set slightly
/// below the recorded speedups to absorb future benign model tweaks.
constexpr struct {
  const char* slug;
  double floor;
} kRecordedSpeedupFloor[] = {
    {"a100", 1.08},     // recorded 1.18x (HIP protocol + lf=0.70, no binning)
    {"max1550", 1.10},  // recorded 1.31x (HIP protocol + SIMD32 + lf=0.90)
};

double tune_scale_from_env() {
  if (const char* s = std::getenv("LASSM_TUNE_SCALE"); s != nullptr) {
    const double v = std::atof(s);
    if (v > 0.0 && v <= 1.0) return v;
  }
  return 0.02;
}

std::string json_escape_ms(double seconds) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", seconds * 1e3);
  return buf;
}

}  // namespace

int main() {
  const double tune_scale = tune_scale_from_env();
  const model::StudyConfig cfg = model::study_config_from_env();
  constexpr std::uint32_t kProbeK = 33;

  std::cout << "================================================================\n"
            << " bench_autotune: roofline-pruned per-device autotuner\n"
            << " probe: k=" << kProbeK << " Table II workload at scale "
            << tune_scale << " | seed " << cfg.seed << "\n"
            << " (modelled sim-time objective; numbers are model estimates)\n"
            << "================================================================\n";

  const core::AssemblyInput probe =
      model::study_dataset(kProbeK, tune_scale, cfg.seed);
  std::cout << "probe dataset: " << probe.contigs.size() << " contigs, "
            << probe.reads.size() << " reads, "
            << probe.total_insertions() << " insertions\n\n";

  const model::AutoTuner tuner;
  std::cerr << "[bench] tuning the device zoo (probe scale " << tune_scale
            << ")...\n";
  const std::vector<model::DeviceTuneReport> reports =
      tuner.tune_zoo(simt::DeviceSpec::zoo(), probe, &std::cerr);

  // Winner table.
  model::TextTable table({"device", "winner config", "default ms",
                          "tuned ms", "speedup", "evaluated", "pruned"});
  for (const auto& r : reports) {
    table.add_row({r.dev.slug, r.winner.cand.describe(),
                   model::TextTable::fmt(r.def.time_s * 1e3),
                   model::TextTable::fmt(r.winner.time_s * 1e3),
                   model::TextTable::fmt(r.speedup()),
                   std::to_string(r.evaluated), std::to_string(r.pruned)});
  }
  table.render(std::cout);

  // Pennycook scorecard (Table IV / Table VII efficiencies, default vs
  // tuned, plus the harmonic-mean performance portability).
  const model::Scorecard sc = model::portability_scorecard(reports);
  std::cout << "\nPennycook performance portability (harmonic mean over the zoo)\n";
  model::TextTable pp({"efficiency", "default", "tuned"});
  pp.add_row({"architectural", model::TextTable::pct(sc.arch_pp_default),
              model::TextTable::pct(sc.arch_pp_tuned)});
  pp.add_row({"algorithmic", model::TextTable::pct(sc.alg_pp_default),
              model::TextTable::pct(sc.alg_pp_tuned)});
  pp.render(std::cout);

  const std::string csv_path =
      model::results_dir() + "/portability_scorecard.csv";
  if (!model::write_scorecard_csv(csv_path, sc)) {
    std::cerr << "error: cannot write " << csv_path << "\n";
    return 1;
  }

  // Potential-speedup figure (the tuned analogue of Fig. 9): one bar per
  // zoo device.
  {
    model::GroupedBarChart chart("tuned vs default modelled speedup",
                                 "speedup (x)");
    std::vector<std::string> groups;
    std::vector<double> speedups;
    for (const auto& r : reports) {
      groups.push_back(r.dev.slug);
      speedups.push_back(r.speedup());
    }
    chart.set_groups(std::move(groups));
    chart.add_series("tuned", std::move(speedups));
    std::cout << '\n';
    chart.render(std::cout);
  }

  // Seed-vs-tuned study grid: the paper's k grid on the three study
  // devices, default configuration vs this bench's winner, at the probe
  // scale (so the section is cheap and deterministic for check.sh).
  struct GridCell {
    std::string slug;
    std::uint32_t k;
    double default_s;
    double tuned_s;
  };
  std::vector<GridCell> grid;
  for (std::uint32_t k : cfg.ks) {
    const core::AssemblyInput in =
        model::study_dataset(k, tune_scale, cfg.seed);
    for (const auto& dev : simt::DeviceSpec::study_devices()) {
      const model::DeviceTuneReport* rep = nullptr;
      for (const auto& r : reports) {
        if (r.dev.slug == dev.slug) rep = &r;
      }
      if (rep == nullptr) continue;
      const core::AssemblyOptions base = tuner.options().base;
      const model::StudyCell def =
          model::run_cell(dev, dev.native_model, in, base);
      const model::StudyCell tuned = model::run_cell(
          dev, rep->winner.cand.pm, in, rep->winner.cand.apply(base));
      grid.push_back({dev.slug, k, def.time_s, tuned.time_s});
    }
  }
  std::cout << "\nseed-vs-tuned study grid (scale " << tune_scale << ")\n";
  model::TextTable gt({"device", "k", "default ms", "tuned ms", "speedup"});
  for (const GridCell& g : grid) {
    gt.add_row({g.slug, std::to_string(g.k),
                model::TextTable::fmt(g.default_s * 1e3),
                model::TextTable::fmt(g.tuned_s * 1e3),
                model::TextTable::fmt(g.default_s / g.tuned_s)});
  }
  gt.render(std::cout);

  // JSON artifact. Deliberately wall-clock-free: byte-identical across
  // runs and host thread counts.
  const std::string json_path =
      model::results_dir() + "/BENCH_autotune.json";
  std::ofstream js(json_path);
  js.precision(17);
  js << "{\n"
     << "  \"bench\": \"autotune\",\n"
     << "  \"probe\": {\"k\": " << kProbeK << ", \"scale\": " << tune_scale
     << ", \"seed\": " << cfg.seed
     << ", \"contigs\": " << probe.contigs.size()
     << ", \"reads\": " << probe.reads.size() << "},\n"
     << "  \"devices\": [\n";
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const auto& r = reports[i];
    js << "    {\"slug\": \"" << r.dev.slug << "\", \"name\": \""
       << r.dev.name << "\",\n"
       << "     \"default\": {\"config\": \"" << r.def.cand.describe()
       << "\", \"time_ms\": " << json_escape_ms(r.def.time_s)
       << ", \"arch_eff\": " << r.def.arch_eff
       << ", \"alg_eff\": " << r.def.alg_eff
       << ", \"extension_bases\": " << r.def.extension_bases << "},\n"
       << "     \"tuned\": {\"config\": \"" << r.winner.cand.describe()
       << "\", \"time_ms\": " << json_escape_ms(r.winner.time_s)
       << ", \"arch_eff\": " << r.winner.arch_eff
       << ", \"alg_eff\": " << r.winner.alg_eff
       << ", \"extension_bases\": " << r.winner.extension_bases << "},\n"
       << "     \"speedup\": " << r.speedup()
       << ", \"evaluated\": " << r.evaluated
       << ", \"pruned\": " << r.pruned << "}"
       << (i + 1 < reports.size() ? "," : "") << "\n";
  }
  js << "  ],\n"
     << "  \"portability\": {\"arch_pp_default\": " << sc.arch_pp_default
     << ", \"arch_pp_tuned\": " << sc.arch_pp_tuned
     << ", \"alg_pp_default\": " << sc.alg_pp_default
     << ", \"alg_pp_tuned\": " << sc.alg_pp_tuned << "},\n"
     << "  \"expected_speedup_floor\": {";
  for (std::size_t i = 0; i < std::size(kRecordedSpeedupFloor); ++i) {
    js << (i != 0 ? ", " : "") << "\"" << kRecordedSpeedupFloor[i].slug
       << "\": " << kRecordedSpeedupFloor[i].floor;
  }
  js << "},\n"
     << "  \"study_grid\": [\n";
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const GridCell& g = grid[i];
    js << "    {\"slug\": \"" << g.slug << "\", \"k\": " << g.k
       << ", \"default_ms\": " << json_escape_ms(g.default_s)
       << ", \"tuned_ms\": " << json_escape_ms(g.tuned_s)
       << ", \"speedup\": " << g.default_s / g.tuned_s << "}"
       << (i + 1 < grid.size() ? "," : "") << "\n";
  }
  js << "  ]\n}\n";
  if (!js.flush()) {
    std::cerr << "error: cannot write " << json_path << "\n";
    return 1;
  }

  std::cout << "\nCSV:  " << csv_path << "\nJSON: " << json_path << "\n";

  // Self-check: the recorded floors must hold on this run's numbers (the
  // same invariant check.sh re-verifies from the JSON).
  for (const auto& floor : kRecordedSpeedupFloor) {
    for (const auto& r : reports) {
      if (r.dev.slug == floor.slug && r.speedup() < floor.floor) {
        std::cerr << "error: " << floor.slug << " speedup " << r.speedup()
                  << " below recorded floor " << floor.floor << "\n";
        return 1;
      }
    }
  }
  return 0;
}
