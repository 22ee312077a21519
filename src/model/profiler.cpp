#include "model/profiler.hpp"

#include <iomanip>
#include <sstream>
#include <ostream>

#include "model/ascii_plot.hpp"

namespace lassm::model {

namespace {

/// The three quantities every emulated tool derives, pulled once from the
/// canonical metric names so the profiler can never drift from what the
/// observability layer records.
struct ProfiledRun {
  double intops = 0;
  double hbm_read_bytes = 0;
  double hbm_write_bytes = 0;
  double time_s = 0;

  double hbm_bytes() const noexcept {
    return hbm_read_bytes + hbm_write_bytes;
  }
};

ProfiledRun read_run(const trace::MetricsSnapshot& m, double time_s) {
  ProfiledRun run;
  run.intops = static_cast<double>(m.value(trace::names::kIntops));
  run.hbm_read_bytes =
      static_cast<double>(m.value(trace::names::kMemHbmReadBytes));
  run.hbm_write_bytes =
      static_cast<double>(m.value(trace::names::kMemHbmWriteBytes));
  run.time_s = time_s;
  return run;
}

ProfileReport ncu_report(const simt::DeviceSpec& dev,
                         const ProfiledRun& r) {
  // Artifact recipe:
  //   ncu --metrics "smsp__inst_executed.sum, dram__bytes.sum,
  //                  sm__cycles_elapsed.avg, ...avg.per_second"
  //   INTOPs = smsp__inst_executed.sum
  //   HBM Bytes = dram__bytes.sum
  //   Time = cycles_elapsed.avg / cycles_elapsed.avg.per_second
  ProfileReport rep;
  rep.tool = "ncu (emulated)";
  rep.kernel_name = "iterative_walks_kernel";
  const double cycles = r.time_s * dev.perf.clock_ghz * 1e9;
  rep.counters = {
      {"smsp__inst_executed.sum", r.intops,
       "warp-level instruction issues"},
      {"dram__bytes.sum", r.hbm_bytes(), "HBM read+write bytes"},
      {"sm__cycles_elapsed.avg", cycles, "elapsed SM cycles"},
      {"sm__cycles_elapsed.avg.per_second", dev.perf.clock_ghz * 1e9,
       "SM clock"},
  };
  rep.derived_intops = r.intops;
  rep.derived_hbm_bytes = r.hbm_bytes();
  rep.derived_time_s = r.time_s;
  return rep;
}

ProfileReport rocprof_report(const simt::DeviceSpec& dev,
                             const ProfiledRun& r) {
  // Artifact recipe:
  //   pmc: SQ_INSTS_VALU_INT32 SQ_INSTS_VALU_INT64
  //   pmc: TCC_EA_RDREQ_sum TCC_EA_RDREQ_32B_sum
  //        TCC_EA_WRREQ_sum TCC_EA_WRREQ_64B_sum
  //   INTOPs = 64 * (INT32 + INT64)
  //   HBM Bytes = 32*RD32 + 64*(RD - RD32) + 32*(WR - WR64) + 64*WR64
  // The simulator transacts at dev.line_bytes granularity, so requests are
  // reported in the wide (64B+) buckets.
  ProfileReport rep;
  rep.tool = "rocprof (emulated)";
  rep.kernel_name = "iterative_walks_kernel";
  const double wavefront_instr = r.intops;
  const double rd_req = r.hbm_read_bytes / dev.line_bytes;
  const double wr_req = r.hbm_write_bytes / dev.line_bytes;
  rep.counters = {
      {"SQ_INSTS_VALU_INT32", wavefront_instr,
       "wavefront VALU integer instructions (all INT32 here)"},
      {"SQ_INSTS_VALU_INT64", 0.0, "no 64-bit integer maths in the kernel"},
      {"TCC_EA_RDREQ_sum", rd_req, "L2->EA read requests"},
      {"TCC_EA_RDREQ_32B_sum", 0.0, "all requests are full-line"},
      {"TCC_EA_WRREQ_sum", wr_req, "L2->EA write requests"},
      {"TCC_EA_WRREQ_64B_sum", wr_req, "full-line writes"},
  };
  // INTOPs per the paper's AMD formula (x64 lanes per wavefront).
  rep.derived_intops = 64.0 * wavefront_instr;
  rep.derived_hbm_bytes =
      static_cast<double>(dev.line_bytes) * (rd_req + wr_req);
  rep.derived_time_s = r.time_s;
  return rep;
}

ProfileReport advisor_report(const simt::DeviceSpec& dev,
                             const ProfiledRun& r) {
  // Artifact recipe: advisor --collect=roofline --profile-gpu; kernel
  // time, INTOPs and HBM bytes come from the HTML report.
  ProfileReport rep;
  rep.tool = "advisor (emulated)";
  rep.kernel_name = "iterative_walks_kernel";
  rep.counters = {
      {"GPU INT Operations", r.intops,
       "integer op count (roofline numerator)"},
      {"GTI/Memory Bytes", r.hbm_bytes(), "bytes to device memory"},
      {"Elapsed Time (s)", r.time_s, "kernel wall clock"},
      {"Peak INT GOPS", dev.peak_gintops, "roofline ceiling"},
  };
  rep.derived_intops = r.intops;
  rep.derived_hbm_bytes = r.hbm_bytes();
  rep.derived_time_s = r.time_s;
  return rep;
}

}  // namespace

ProfileReport profile(const simt::DeviceSpec& dev,
                      const trace::MetricsSnapshot& metrics, double time_s) {
  const ProfiledRun run = read_run(metrics, time_s);
  switch (dev.vendor) {
    case simt::Vendor::kNvidia: return ncu_report(dev, run);
    case simt::Vendor::kAmd: return rocprof_report(dev, run);
    case simt::Vendor::kIntel: return advisor_report(dev, run);
  }
  return ncu_report(dev, run);
}

void print_profile(std::ostream& os, const ProfileReport& report) {
  os << "-- " << report.tool << " :: " << report.kernel_name << " --\n";
  TextTable t({"counter", "value", "note"});
  for (const auto& row : report.counters) {
    std::ostringstream val;
    val << std::setprecision(12) << row.value;
    t.add_row({row.name, val.str(), row.note});
  }
  t.render(os);
  os << "  derived INTOPs    : " << report.derived_intops << "\n";
  os << "  derived HBM bytes : " << report.derived_hbm_bytes << "\n";
  os << "  derived time      : " << report.derived_time_s * 1e3 << " ms\n";
}

void print_launch_timeline(std::ostream& os, const simt::DeviceSpec& dev,
                           const core::AssemblyResult& result) {
  os << "-- launch timeline on " << dev.name << " --\n";
  TextTable t({"launch", "direction", "bin", "warps", "instructions",
               "HBM bytes", "bound", "time (us)"});
  for (std::size_t i = 0; i < result.launches.size(); ++i) {
    const auto& l = result.launches[i];
    const char* bound =
        l.time.bound == simt::TimeBreakdown::Bound::kIssue    ? "issue"
        : l.time.bound == simt::TimeBreakdown::Bound::kMemory ? "memory"
                                                              : "latency";
    t.add_row({std::to_string(i),
               l.side == core::Side::kRight ? "right" : "left",
               std::to_string(l.batch), std::to_string(l.stats.num_warps),
               std::to_string(l.stats.intop_count()),
               std::to_string(l.stats.traffic.hbm_bytes()), bound,
               TextTable::fmt(l.time.total_s * 1e6, 1)});
  }
  t.render(os);
  os << "  (launches overlap asynchronously; the run total is modelled on "
        "the merged stream)\n";
}

}  // namespace lassm::model
