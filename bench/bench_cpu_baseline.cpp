// CPU baseline: wall-clock of the serial reference implementation against
// the modelled GPU kernel time (the paper cites a ~7x speed-up from moving
// local assembly to the GPU [4]). The reference runs inside a trace::Span,
// whose attribution node's host_s is the CPU time reported; cpu_ms and
// speedup are therefore host time and differ from run to run.

#include <iostream>

#include "bench/common.hpp"
#include "core/assembler.hpp"
#include "core/reference.hpp"
#include "model/ascii_plot.hpp"
#include "model/csv.hpp"
#include "model/study.hpp"
#include "trace/trace.hpp"
#include "workload/dataset.hpp"

int main() {
  using namespace lassm;
  const model::StudyConfig cfg = model::study_config_from_env();

  std::cout << "== CPU baseline vs simulated GPU kernel ==\n";
  std::cout << "(CPU = this host's single-core wall clock; GPU = modelled "
               "device time; the paper reports ~7x end-to-end)\n\n";

  model::TextTable t({"k", "CPU reference (ms)", "A100 model (ms)",
                      "speed-up"});
  model::CsvWriter csv = bench::bench_csv(
      "cpu_baseline",
                       {"k", "cpu_ms", "gpu_ms", "speedup"});

  for (std::uint32_t k : workload::kTable2Ks) {
    const auto in = model::study_dataset(k, cfg.scale, cfg.seed);

    trace::Tracer tracer;
    {
      const trace::Span span(&tracer, tracer.track("host", "cpu"),
                             "reference_extend");
      (void)core::reference_extend(in);
    }
    const double cpu_ms = tracer.attribution().nodes().front().host_s * 1e3;

    core::LocalAssembler assembler(simt::DeviceSpec::a100());
    const double gpu_ms = assembler.run(in).total_time_s * 1e3;

    t.add_row({std::to_string(k), model::TextTable::fmt(cpu_ms, 2),
               model::TextTable::fmt(gpu_ms, 3),
               model::TextTable::fmt(cpu_ms / gpu_ms, 1) + "x"});
    csv.row(k, cpu_ms, gpu_ms, cpu_ms / gpu_ms);
  }
  t.render(std::cout);
  bench::write_artifacts(std::cout, csv);
  return 0;
}
