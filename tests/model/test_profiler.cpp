#include "model/profiler.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "trace/metrics.hpp"
#include "workload/dataset.hpp"

namespace lassm::model {
namespace {

core::AssemblyResult run_small(const simt::DeviceSpec& dev) {
  workload::DatasetParams p = workload::table2_params(21);
  p.num_contigs = 30;
  p.num_reads = 150;
  const auto in = workload::generate_dataset(p, 5);
  return core::LocalAssembler(dev).run(in);
}

/// The run's counters as the tracer would record them: what the emulated
/// tools read.
trace::MetricsSnapshot metrics_of(const core::AssemblyResult& r) {
  trace::MetricsRegistry registry;
  core::record_run_metrics(r, registry);
  return registry.snapshot();
}

TEST(Profiler, NcuCountersMatchRunStats) {
  const auto dev = simt::DeviceSpec::a100();
  const auto r = run_small(dev);
  const ProfileReport rep = profile(dev, metrics_of(r), r.total_time_s);
  EXPECT_EQ(rep.tool, "ncu (emulated)");
  EXPECT_EQ(rep.kernel_name, "iterative_walks_kernel");
  EXPECT_DOUBLE_EQ(rep.derived_intops,
                   static_cast<double>(r.stats.intop_count()));
  EXPECT_DOUBLE_EQ(rep.derived_hbm_bytes,
                   static_cast<double>(r.stats.traffic.hbm_bytes()));
  EXPECT_DOUBLE_EQ(rep.derived_time_s, r.total_time_s);
  ASSERT_GE(rep.counters.size(), 4U);
  EXPECT_EQ(rep.counters[0].name, "smsp__inst_executed.sum");
}

TEST(Profiler, RocprofFormulaReconstructsBytes) {
  const auto dev = simt::DeviceSpec::mi250x_gcd();
  const auto r = run_small(dev);
  const ProfileReport rep = profile(dev, metrics_of(r), r.total_time_s);
  EXPECT_EQ(rep.tool, "rocprof (emulated)");
  // The paper's byte formula applied to the request counters must give
  // back the run's HBM bytes.
  EXPECT_NEAR(rep.derived_hbm_bytes,
              static_cast<double>(r.stats.traffic.hbm_bytes()),
              static_cast<double>(dev.line_bytes));
  // AMD INTOPs are x64 wavefront instructions.
  EXPECT_DOUBLE_EQ(rep.derived_intops,
                   64.0 * static_cast<double>(r.stats.intop_count()));
}

TEST(Profiler, AdvisorReport) {
  const auto dev = simt::DeviceSpec::max1550_tile();
  const auto r = run_small(dev);
  const ProfileReport rep = profile(dev, metrics_of(r), r.total_time_s);
  EXPECT_EQ(rep.tool, "advisor (emulated)");
  EXPECT_DOUBLE_EQ(rep.derived_time_s, r.total_time_s);
}

TEST(Profiler, PrintedReportContainsCounters) {
  const auto dev = simt::DeviceSpec::a100();
  const auto r = run_small(dev);
  std::ostringstream os;
  print_profile(os, profile(dev, metrics_of(r), r.total_time_s));
  EXPECT_NE(os.str().find("smsp__inst_executed.sum"), std::string::npos);
  EXPECT_NE(os.str().find("derived INTOPs"), std::string::npos);
}

TEST(Profiler, TimelineListsEveryLaunch) {
  const auto dev = simt::DeviceSpec::a100();
  const auto r = run_small(dev);
  std::ostringstream os;
  print_launch_timeline(os, dev, r);
  const std::string out = os.str();
  EXPECT_NE(out.find("launch timeline"), std::string::npos);
  EXPECT_NE(out.find("right"), std::string::npos);
  EXPECT_NE(out.find("left"), std::string::npos);
  // One row per launch.
  std::size_t rows = 0, pos = 0;
  while ((pos = out.find("| right", pos)) != std::string::npos) {
    ++rows;
    pos += 1;
  }
  pos = 0;
  while ((pos = out.find("| left", pos)) != std::string::npos) {
    ++rows;
    pos += 1;
  }
  EXPECT_EQ(rows, r.launches.size());
}

}  // namespace
}  // namespace lassm::model
