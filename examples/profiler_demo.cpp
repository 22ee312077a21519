// Emulated vendor-profiler session: runs the local assembly kernel on each
// device model and prints the counters exactly as the artifact appendix
// extracts them from Nsight Compute / rocprof / Intel Advisor, plus the
// per-launch timeline a profiler would show for the binned workflow.
//
//   ./profiler_demo [k] [scale]

#include <cstdlib>
#include <iostream>

#include "core/assembler.hpp"
#include "model/profiler.hpp"
#include "model/study.hpp"
#include "trace/metrics.hpp"

int main(int argc, char** argv) {
  using namespace lassm;
  const std::uint32_t k =
      argc > 1 ? static_cast<std::uint32_t>(std::atoi(argv[1])) : 33;
  const double scale = argc > 2 ? std::atof(argv[2]) : 0.05;

  const core::AssemblyInput input = model::study_dataset(k, scale, 7);

  std::cout << "profiling the local assembly kernel: k=" << k << ", "
            << input.contigs.size() << " contigs, " << input.reads.size()
            << " reads\n\n";

  for (const auto& dev : simt::DeviceSpec::study_devices()) {
    core::LocalAssembler assembler(dev);
    const core::AssemblyResult result = assembler.run(input);
    trace::MetricsRegistry registry;
    core::record_run_metrics(result, registry);
    const model::ProfileReport report =
        model::profile(dev, registry.snapshot(), result.total_time_s);
    model::print_profile(std::cout, report);
    if (dev.vendor == simt::Vendor::kNvidia) {
      model::print_launch_timeline(std::cout, dev, result);
    }
    std::cout << "\n";
  }
  std::cout << "these counters feed Tables IV & VII and Figures 5-9 (see "
               "the bench binaries)\n";
  return 0;
}
