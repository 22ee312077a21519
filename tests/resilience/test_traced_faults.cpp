// Tracing crossed with fault injection — the seams where observability
// must not bend the resilience contract (or vice versa):
//
//   1. a traced armed run is bit-identical to an untraced armed run, per
//      seam, at 1 and 4 threads (tracing reads what the run produces
//      anyway; the fault decisions are thread- and tracing-invariant);
//   2. a task exception escaping a traced chunk cannot leak an unbalanced
//      chunk span or corrupt the worker-id-ordered buffer absorption — the
//      failing chunk closes with an error tag and the engine stays usable;
//   3. quarantine and device loss produce flight-recorder dumps naming the
//      seam, the work-item identity, and the ring-only debug events that
//      led up to the incident.

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/assembler.hpp"
#include "core/exec.hpp"
#include "resilience/fault_plan.hpp"
#include "trace/log.hpp"
#include "trace/trace.hpp"
#include "workload/dataset.hpp"

namespace lassm::resilience {
namespace {

core::AssemblyInput dataset(std::uint32_t k = 21, std::uint32_t contigs = 50,
                            std::uint64_t seed = 42) {
  workload::DatasetParams p = workload::table2_params(k);
  p.num_contigs = contigs;
  p.num_reads = contigs * 6;
  return workload::generate_dataset(p, seed);
}

core::AssemblyResult run(const core::AssemblyInput& in, unsigned n_threads,
                         const FaultPlan* plan = nullptr,
                         trace::Tracer* tracer = nullptr) {
  core::AssemblyOptions opts;
  opts.n_threads = n_threads;
  opts.fault_plan = plan;
  opts.trace = tracer;
  return core::LocalAssembler(simt::DeviceSpec::a100(), opts).run(in);
}

void expect_identical(const core::AssemblyResult& a,
                      const core::AssemblyResult& b) {
  ASSERT_EQ(a.extensions.size(), b.extensions.size());
  for (std::size_t i = 0; i < a.extensions.size(); ++i) {
    EXPECT_EQ(a.extensions[i].left, b.extensions[i].left) << i;
    EXPECT_EQ(a.extensions[i].right, b.extensions[i].right) << i;
  }
  EXPECT_EQ(a.stats.totals.cycles, b.stats.totals.cycles);
  EXPECT_EQ(a.stats.totals.intops, b.stats.totals.intops);
  EXPECT_EQ(a.stats.totals.mem_rounds, b.stats.totals.mem_rounds);
  EXPECT_EQ(a.stats.traffic.hbm_read_bytes, b.stats.traffic.hbm_read_bytes);
  EXPECT_EQ(a.stats.traffic.hbm_write_bytes, b.stats.traffic.hbm_write_bytes);
  EXPECT_EQ(a.stats.traffic.l1_evictions, b.stats.traffic.l1_evictions);
  EXPECT_EQ(a.stats.traffic.l2_evictions, b.stats.traffic.l2_evictions);
  EXPECT_EQ(a.total_time_s, b.total_time_s);
}

void expect_same_failures(const FailureReport& a, const FailureReport& b) {
  EXPECT_EQ(a.faults.size(), b.faults.size());
  EXPECT_EQ(a.tasks_retried, b.tasks_retried);
  EXPECT_EQ(a.tasks_quarantined, b.tasks_quarantined);
  EXPECT_EQ(a.walks_aborted, b.walks_aborted);
  EXPECT_EQ(a.mem_faults, b.mem_faults);
}

/// Quiet, dump-to-tempdir logger for the duration of one test.
class TracedFaultsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    log::Logger::instance().reset_for_test();
    log::Logger::instance().set_sink(nullptr);
    flight_dir_ = std::filesystem::path(::testing::TempDir()) /
                  ("lassm_flight_" +
                   std::string(::testing::UnitTest::GetInstance()
                                   ->current_test_info()
                                   ->name()));
    std::filesystem::remove_all(flight_dir_);
  }
  void TearDown() override {
    std::filesystem::remove_all(flight_dir_);
    log::Logger::instance().reset_for_test();
  }

  /// Flight dumps in the test's directory whose name contains `kind`.
  std::vector<std::filesystem::path> dumps(const std::string& kind) const {
    std::vector<std::filesystem::path> out;
    if (!std::filesystem::exists(flight_dir_)) return out;
    for (const auto& e : std::filesystem::directory_iterator(flight_dir_)) {
      const std::string name = e.path().filename().string();
      if (name.rfind("flight_", 0) == 0 &&
          name.find(kind) != std::string::npos) {
        out.push_back(e.path());
      }
    }
    return out;
  }

  static std::string slurp(const std::filesystem::path& p) {
    std::ifstream in(p);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
  }

  std::filesystem::path flight_dir_;
};

/// ctest names each case after this struct's bytes, so the seven bytes
/// after `seam` are a zeroed member rather than padding, whose value is
/// indeterminate and would make the test IDs differ between builds.
struct SeamCase {
  SeamCase(Seam s, double r) : seam(s), rate(r) {}
  Seam seam;
  std::uint8_t zeros[7] = {};
  double rate;
};
static_assert(sizeof(SeamCase) == 16, "SeamCase must have no padding");

class TracedFaultSeams : public TracedFaultsTest,
                         public ::testing::WithParamInterface<SeamCase> {};

TEST_P(TracedFaultSeams, TracedArmedMatchesUntracedArmed) {
  const auto in = dataset();
  FaultPlan plan(1234);
  plan.arm(GetParam().seam, GetParam().rate);

  const auto untraced = run(in, 1, &plan);
  EXPECT_FALSE(untraced.failures.clean()) << "vacuous: nothing fired";
  for (unsigned n : {1U, 4U}) {
    SCOPED_TRACE("n_threads=" + std::to_string(n));
    trace::Tracer tracer;
    const auto traced = run(in, n, &plan, &tracer);
    expect_identical(untraced, traced);
    expect_same_failures(untraced.failures, traced.failures);
    EXPECT_FALSE(tracer.attribution().has_open()) << "leaked span";
    EXPECT_GT(tracer.event_count(), 0U);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSeams, TracedFaultSeams,
    ::testing::Values(SeamCase{Seam::kTaskException, 0.15},
                      SeamCase{Seam::kMemStall, 0.2},
                      SeamCase{Seam::kBadInput, 0.15},
                      SeamCase{Seam::kWalkHang, 0.05}),
    [](const ::testing::TestParamInfo<SeamCase>& info) {
      return std::string(seam_name(info.param.seam));
    });

TEST_F(TracedFaultsTest, ThrowingChunkClosesSpanAndEngineSurvives) {
  trace::Tracer tracer;
  core::AssemblyOptions opts;
  opts.trace = &tracer;
  core::WarpExecutionEngine engine(simt::DeviceSpec::a100(),
                                   simt::ProgrammingModel::kCuda, opts,
                                   /*n_threads=*/2);

  EXPECT_THROW(engine.run_host_batch(
                   64,
                   [](std::size_t i, unsigned) {
                     if (i == 17) throw std::runtime_error("boom");
                   }),
               std::runtime_error);

  // The throwing chunk's span was still recorded — closed, error-tagged —
  // and absorbed despite the failed launch.
  bool saw_error_chunk = false;
  for (const trace::Event& e : tracer.events()) {
    if (e.name != "chunk") continue;
    for (const trace::Arg& a : e.args) {
      if (a.key == "error" && a.str == "thrown") saw_error_chunk = true;
    }
  }
  EXPECT_TRUE(saw_error_chunk);

  // Absorption did not corrupt the engine or the tracer: the next batch on
  // the same pool runs to completion and keeps recording.
  const std::size_t events_before = tracer.event_count();
  std::atomic<std::size_t> done{0};
  engine.run_host_batch(64, [&](std::size_t, unsigned) { ++done; });
  EXPECT_EQ(done.load(), 64U);
  EXPECT_GT(tracer.event_count(), events_before);
}

TEST_F(TracedFaultsTest, QuarantineDumpsFlightRecorder) {
  log::Logger::instance().set_flight_dir(flight_dir_.string());
  const auto in = dataset();
  FaultPlan plan(4242);
  plan.arm(Seam::kBadInput, 0.2);
  trace::Tracer tracer;
  const auto result = run(in, 2, &plan, &tracer);
  ASSERT_GT(result.failures.tasks_quarantined, 0U) << "vacuous";

  const auto files = dumps("task_quarantined");
  ASSERT_EQ(files.size(), result.failures.tasks_quarantined);
  const std::string dump = slurp(files.front());
  // The incident names the work item...
  EXPECT_NE(dump.find("\"incident\""), std::string::npos);
  EXPECT_NE(dump.find("task_quarantined"), std::string::npos);
  EXPECT_NE(dump.find("\"fault_key\":"), std::string::npos);
  EXPECT_NE(dump.find("\"index\":"), std::string::npos);
  EXPECT_NE(dump.find("\"attempts\":"), std::string::npos);
  // ...and carries the ring: retry decisions logged at debug level (below
  // the sink threshold) must still be in the dump.
  EXPECT_NE(dump.find("task_retry"), std::string::npos);
}

TEST_F(TracedFaultsTest, TransientFaultsLogRecoveryButDumpNothing) {
  log::Logger::instance().set_flight_dir(flight_dir_.string());
  const auto in = dataset();
  FaultPlan plan(77);
  plan.arm(Seam::kTaskException, 0.3);
  const auto result = run(in, 1, &plan);
  ASSERT_GT(result.failures.tasks_retried, 0U);
  ASSERT_EQ(result.failures.tasks_quarantined, 0U);

  // No incident, no dump — but the seam fires and recoveries are in the
  // ring for a later incident to pick up.
  EXPECT_TRUE(dumps("").empty());
  bool saw_seam = false, saw_recovery = false;
  for (const log::Record& r : log::Logger::instance().flight()) {
    if (r.event == "seam_fired") saw_seam = true;
    if (r.event == "task_recovered") saw_recovery = true;
  }
  EXPECT_TRUE(saw_seam);
  EXPECT_TRUE(saw_recovery);
}

TEST_F(TracedFaultsTest, DeviceLossDumpsFlightRecorder) {
  log::Logger::instance().set_flight_dir(flight_dir_.string());
  const auto in = dataset();
  FaultPlan plan(6);
  plan.add_device_loss(/*rank=*/0, /*after_batch=*/1);
  core::AssemblyOptions opts;
  opts.n_threads = 1;
  opts.fault_plan = &plan;
  opts.fault_rank = 0;
  const auto lost =
      core::LocalAssembler(simt::DeviceSpec::a100(), opts).run(in);
  ASSERT_TRUE(lost.device_lost);

  const auto files = dumps("device_lost");
  ASSERT_EQ(files.size(), 1U);
  const std::string dump = slurp(files.front());
  EXPECT_NE(dump.find("device_lost"), std::string::npos);
  EXPECT_NE(dump.find("\"seam\":\"device_loss\""), std::string::npos);
  EXPECT_NE(dump.find("\"rank\":0"), std::string::npos);
  EXPECT_NE(dump.find("\"after_batch\":1"), std::string::npos);
}

}  // namespace
}  // namespace lassm::resilience
