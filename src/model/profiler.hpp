#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/assembler.hpp"
#include "simt/device.hpp"
#include "trace/metrics.hpp"

/// Vendor-profiler emulation: renders the simulator's counters in the
/// nomenclature of the tools the artifact appendix drives (Nsight Compute
/// on NVIDIA, rocprof on AMD, Intel Advisor on Intel), including the exact
/// derivation formulas the paper lists for INTOPs and HBM bytes. This is
/// what replaces `ncu`, `rocprof -i rocprof.txt` and `advisor
/// --collect=roofline` in the reproduction.
namespace lassm::model {

struct CounterRow {
  std::string name;   ///< vendor counter name
  double value = 0;   ///< raw value
  std::string note;   ///< derivation/meaning
};

struct ProfileReport {
  std::string tool;                ///< "ncu" / "rocprof" / "advisor"
  std::string kernel_name;         ///< iterative_walks_kernel
  std::vector<CounterRow> counters;
  double derived_intops = 0;       ///< per the paper's formulas
  double derived_hbm_bytes = 0;
  double derived_time_s = 0;
};

/// Builds the per-vendor counter report from a metrics snapshot recorded
/// under the canonical trace::names dictionary (the registry the tracer
/// carries, or one populated ad hoc from a finished run by
/// core::record_run_metrics): the emulated vendor tools read the same
/// registry the observability layer exports.
ProfileReport profile(const simt::DeviceSpec& dev,
                      const trace::MetricsSnapshot& metrics, double time_s);

/// Pretty-prints a report (one row per counter plus the derivations).
void print_profile(std::ostream& os, const ProfileReport& report);

/// Per-launch breakdown table: what a profiler timeline would show for the
/// workflow's sequence of binned kernel launches.
void print_launch_timeline(std::ostream& os, const simt::DeviceSpec& dev,
                           const core::AssemblyResult& result);

}  // namespace lassm::model
