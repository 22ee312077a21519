// Counter attribution, structured logging and metrics edge cases — the
// observability additions' contract:
//
//   1. CounterVector's field table covers the struct and its arithmetic is
//      exact;
//   2. AttributionProfile nests spans and attributes every launch's delta
//      to exactly one leaf (parents include children);
//   3. a traced kernel run's attribution tree reconciles EXACTLY with the
//      run-level simt/memsim totals — per field, no estimates;
//   4. attribution on/off and host thread count never change a modelled
//      number (bit-identity), and the tree itself is thread-invariant;
//   5. the profile_report views (top-down paths, bottom-up hottest-first,
//      roofline placement) are deterministic;
//   6. the logger's level gate, flight ring and incident dumps behave;
//   7. histogram/registry snapshot-delta survives reset without underflow.

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/assembler.hpp"
#include "model/profile_report.hpp"
#include "trace/attribution.hpp"
#include "trace/log.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"
#include "workload/dataset.hpp"

namespace lassm::trace {
namespace {

// ---------------------------------------------------------------------------
// CounterVector

TEST(CounterVector, FieldTableCoversEveryIntegerField) {
  const auto& fields = CounterVector::fields();
  ASSERT_EQ(fields.size(), CounterVector::kNumFields);
  std::set<std::string> names;
  for (const auto& f : fields) names.insert(f.name);
  EXPECT_EQ(names.size(), CounterVector::kNumFields) << "duplicate names";

  // Setting every field through the table must leave nothing untouched:
  // add() of a fully-set vector onto a zero vector reproduces it.
  CounterVector a;
  std::uint64_t v = 1;
  for (const auto& f : fields) a.*f.member = v++;
  a.sim_time_s = 0.5;
  CounterVector b;
  b.add(a);
  for (const auto& f : fields) EXPECT_EQ(b.*f.member, a.*f.member) << f.name;
  EXPECT_EQ(b.sim_time_s, a.sim_time_s);
  EXPECT_TRUE(b.minus(a).is_zero());
  EXPECT_FALSE(b.is_zero());
  EXPECT_TRUE(CounterVector{}.is_zero());
}

TEST(CounterVector, DerivedTrafficMatchesTrafficStatsDefinitions) {
  CounterVector cv;
  cv.lines_touched = 100;
  cv.l1_hits = 70;
  cv.l2_hits = 20;
  cv.hbm_read_bytes = 640;
  cv.hbm_write_bytes = 128;
  EXPECT_EQ(cv.l1_misses(), 30U);
  EXPECT_EQ(cv.l2_misses(), 10U);
  EXPECT_EQ(cv.hbm_bytes(), 768U);
}

// ---------------------------------------------------------------------------
// AttributionProfile

CounterVector make_cv(std::uint64_t cycles, std::uint64_t instructions,
                      double sim_s = 0.0) {
  CounterVector cv;
  cv.cycles = cycles;
  cv.instructions = instructions;
  cv.sim_time_s = sim_s;
  return cv;
}

TEST(AttributionProfile, NestedSpansAttributeDeltas) {
  AttributionProfile p;
  const std::uint32_t outer = p.open("outer");
  p.add(make_cv(10, 5));
  const std::uint32_t inner = p.open("inner");
  p.add(make_cv(3, 2));
  const CounterVector inner_total = p.close();
  p.add(make_cv(1, 1));
  const CounterVector outer_total = p.close();
  EXPECT_FALSE(p.has_open());

  EXPECT_EQ(inner_total.cycles, 3U);
  EXPECT_EQ(outer_total.cycles, 14U);  // children included
  const auto& nodes = p.nodes();
  ASSERT_EQ(nodes.size(), 2U);
  EXPECT_EQ(nodes[outer].name, "outer");
  EXPECT_EQ(nodes[outer].parent, -1);
  EXPECT_EQ(nodes[outer].depth, 0U);
  ASSERT_EQ(nodes[outer].children.size(), 1U);
  EXPECT_EQ(nodes[outer].children[0], inner);
  EXPECT_EQ(nodes[inner].parent, static_cast<std::int32_t>(outer));
  EXPECT_EQ(nodes[inner].depth, 1U);

  // Exclusive cost: outer minus inner.
  const CounterVector outer_self = self_cost(nodes, outer);
  EXPECT_EQ(outer_self.cycles, 11U);
  EXPECT_EQ(outer_self.instructions, 6U);
  EXPECT_EQ(self_cost(nodes, inner).cycles, 3U);
}

TEST(Span, NullTracerIsNoOpAndCloseIsIdempotent) {
  {
    Span s(nullptr, 0, "nothing");
    EXPECT_TRUE(s.close().is_zero());
    EXPECT_TRUE(s.close().is_zero());
  }
  Tracer tracer;
  const std::uint32_t track = tracer.track("host", "driver");
  {
    Span s(&tracer, track, "span");
    tracer.attribution().add(make_cv(2, 1));
    EXPECT_EQ(s.close().cycles, 2U);
    // A second close returns the same total; neither it nor the destructor
    // closes another node or records another event.
    EXPECT_EQ(s.close().cycles, 2U);
  }
  const auto& nodes = tracer.attribution().nodes();
  ASSERT_EQ(nodes.size(), 1U);
  EXPECT_FALSE(tracer.attribution().has_open());
  EXPECT_GE(nodes[0].host_s, 0.0);

  // The span's one event: a complete host event on its track, as long as
  // the node's host_s, carrying the node's counters.
  const std::vector<Event> events = tracer.events();
  ASSERT_EQ(events.size(), 1U);
  EXPECT_EQ(events[0].kind, Event::Kind::kComplete);
  EXPECT_EQ(events[0].track, track);
  EXPECT_EQ(events[0].name, "span");
  EXPECT_STREQ(events[0].cat, "host");
  EXPECT_DOUBLE_EQ(events[0].dur_us * 1e-6, nodes[0].host_s);
  const std::vector<Arg> args = counter_args(nodes[0].total);
  ASSERT_EQ(events[0].args.size(), args.size());
  for (std::size_t i = 0; i < args.size(); ++i) {
    EXPECT_EQ(events[0].args[i].key, args[i].key);
    EXPECT_EQ(events[0].args[i].num, args[i].num) << args[i].key;
  }

  // Unbalanced close on an empty stack is harmless.
  EXPECT_TRUE(tracer.attribution().close().is_zero());
}

TEST(Span, ParentHostTimeCoversItsChildren) {
  Tracer tracer;
  const std::uint32_t track = tracer.track("host", "driver");
  {
    const Span outer(&tracer, track, "outer");
    { const Span a(&tracer, track, "a"); }
    { const Span b(&tracer, track, "b"); }
  }
  const auto& nodes = tracer.attribution().nodes();
  ASSERT_EQ(nodes.size(), 3U);
  EXPECT_EQ(nodes[0].children.size(), 2U);
  // Nested clock reads bracket each other; the slack only absorbs the
  // rounding of the double-valued differences.
  EXPECT_GE(self_host_s(nodes, 0), -1e-9);
  EXPECT_DOUBLE_EQ(self_host_s(nodes, 0),
                   nodes[0].host_s - nodes[1].host_s - nodes[2].host_s);
  // Children close first, so their events precede the parent's.
  const std::vector<Event> events = tracer.events();
  ASSERT_EQ(events.size(), 3U);
  EXPECT_EQ(events[0].name, "a");
  EXPECT_EQ(events[1].name, "b");
  EXPECT_EQ(events[2].name, "outer");
}

// ---------------------------------------------------------------------------
// Reconciliation with a real traced run

core::AssemblyInput dataset(std::uint32_t k = 21, std::uint32_t contigs = 60) {
  workload::DatasetParams p = workload::table2_params(k);
  p.num_contigs = contigs;
  p.num_reads = contigs * 6;
  return workload::generate_dataset(p, 42);
}

core::AssemblyResult run(const core::AssemblyInput& in, unsigned n_threads,
                         Tracer* tracer = nullptr) {
  core::AssemblyOptions opts;
  opts.n_threads = n_threads;
  opts.trace = tracer;
  return core::LocalAssembler(simt::DeviceSpec::a100(), opts).run(in);
}

void expect_cv_eq(const CounterVector& a, const CounterVector& b) {
  for (const auto& f : CounterVector::fields()) {
    EXPECT_EQ(a.*f.member, b.*f.member) << f.name;
  }
  EXPECT_DOUBLE_EQ(a.sim_time_s, b.sim_time_s);
}

TEST(AttributionReconciliation, TreeSumsMatchRunTotalsExactly) {
  const auto in = dataset();
  Tracer tracer;
  const auto result = run(in, 2, &tracer);

  const auto& nodes = tracer.attribution().nodes();
  ASSERT_FALSE(nodes.empty());
  EXPECT_FALSE(tracer.attribution().has_open()) << "leaked span";

  // Exactly one root for a bare kernel run: "assembly".
  std::vector<std::size_t> roots;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i].parent < 0) roots.push_back(i);
  }
  ASSERT_EQ(roots.size(), 1U);
  EXPECT_EQ(nodes[roots[0]].name, "assembly");

  // The root's total IS the run's merged counters — field for field. The
  // span's sim time is the SUM of per-launch modelled times (what each
  // launch charged), not the overlap-merged result.total_time_s, which is
  // smaller whenever launches overlap on the modelled device.
  double launch_time_sum = 0.0;
  for (const auto& l : result.launches) launch_time_sum += l.time.total_s;
  const CounterVector expected =
      core::counter_vector(result.stats, launch_time_sum);
  expect_cv_eq(nodes[roots[0]].total, expected);
  EXPECT_EQ(nodes[roots[0]].total.warps, result.stats.num_warps);
  EXPECT_GE(nodes[roots[0]].total.sim_time_s, result.total_time_s)
      << "overlapped merge can only shrink the summed launch time";

  // Leaf launch spans partition the root: their sum reconciles too.
  CounterVector launch_sum;
  std::size_t launch_count = 0;
  for (const auto& n : nodes) {
    if (n.name.rfind("launch ", 0) == 0) {
      EXPECT_TRUE(n.children.empty());
      launch_sum.add(n.total);
      ++launch_count;
    }
  }
  EXPECT_EQ(launch_count, result.launches.size());
  expect_cv_eq(launch_sum, expected);

  // The memsim writeback invariant surfaces in the attributed counters.
  EXPECT_EQ(expected.l2_evictions * result.stats.traffic.line_bytes,
            expected.hbm_write_bytes);
}

TEST(AttributionReconciliation, BitIdenticalAcrossTracingAndThreads) {
  const auto in = dataset();
  const auto baseline = run(in, 1);

  std::vector<AttributionNode> reference_tree;
  for (unsigned n : {1U, 2U, 4U}) {
    SCOPED_TRACE("n_threads=" + std::to_string(n));
    Tracer tracer;
    const auto traced = run(in, n, &tracer);

    ASSERT_EQ(baseline.extensions.size(), traced.extensions.size());
    for (std::size_t i = 0; i < baseline.extensions.size(); ++i) {
      EXPECT_EQ(baseline.extensions[i].left, traced.extensions[i].left);
      EXPECT_EQ(baseline.extensions[i].right, traced.extensions[i].right);
    }
    EXPECT_EQ(baseline.stats.totals.cycles, traced.stats.totals.cycles);
    EXPECT_EQ(baseline.stats.totals.intops, traced.stats.totals.intops);
    EXPECT_EQ(baseline.stats.totals.mem_rounds,
              traced.stats.totals.mem_rounds);
    EXPECT_EQ(baseline.stats.traffic.hbm_read_bytes,
              traced.stats.traffic.hbm_read_bytes);
    EXPECT_EQ(baseline.stats.traffic.l1_evictions,
              traced.stats.traffic.l1_evictions);
    EXPECT_EQ(baseline.stats.traffic.l2_evictions,
              traced.stats.traffic.l2_evictions);
    EXPECT_EQ(baseline.total_time_s, traced.total_time_s);

    // The attribution tree itself is launch-order derived, so it cannot
    // depend on the host thread count either.
    const auto& nodes = tracer.attribution().nodes();
    if (reference_tree.empty()) {
      reference_tree = nodes;
    } else {
      ASSERT_EQ(reference_tree.size(), nodes.size());
      for (std::size_t i = 0; i < nodes.size(); ++i) {
        EXPECT_EQ(reference_tree[i].name, nodes[i].name);
        EXPECT_EQ(reference_tree[i].parent, nodes[i].parent);
        expect_cv_eq(reference_tree[i].total, nodes[i].total);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// profile_report views

TEST(AttributedProfileReport, ViewsAndRooflinePlacement) {
  AttributionProfile p;
  p.open("pipeline");
  p.open("host_stage");  // no counters at all: host-only span
  p.close(0.25);
  p.open("kernel");
  CounterVector cv = make_cv(1000, 400, 1e-3);
  cv.hbm_read_bytes = 4096;
  p.add(cv);
  p.close(0.5);
  p.open("kernel");  // same name again: bottom-up must aggregate
  p.add(cv);
  p.close(0.5);
  p.close(2.0);

  const model::AttributedProfile report =
      model::build_attributed_profile(p.nodes(), simt::DeviceSpec::a100());
  ASSERT_EQ(report.top_down.size(), 4U);
  EXPECT_EQ(report.top_down[0].path, "pipeline");
  EXPECT_EQ(report.top_down[1].path, "pipeline/host_stage");
  EXPECT_EQ(report.top_down[2].path, "pipeline/kernel");
  EXPECT_EQ(report.top_down[3].path, "pipeline/kernel");

  // Host seconds: inclusive, and net of children.
  EXPECT_EQ(report.top_down[0].host_s, 2.0);
  EXPECT_EQ(report.top_down[0].self_host_s, 0.75);
  EXPECT_EQ(report.top_down[1].host_s, 0.25);
  EXPECT_EQ(report.top_down[1].self_host_s, 0.25);

  // Host-only span: no roofline placement.
  EXPECT_STREQ(report.top_down[1].bound, "n/a");
  EXPECT_EQ(report.top_down[1].gintops, 0.0);
  // Kernel span: placed, with a classified bound.
  EXPECT_GT(report.top_down[2].gintops, 0.0);
  EXPECT_TRUE(std::string(report.top_down[2].bound) == "memory" ||
              std::string(report.top_down[2].bound) == "compute");

  // Bottom-up: "kernel" aggregates both spans and leads (pipeline's self
  // cost is zero here).
  ASSERT_FALSE(report.bottom_up.empty());
  EXPECT_EQ(report.bottom_up[0].name, "kernel");
  EXPECT_EQ(report.bottom_up[0].self.cycles, 2000U);
  EXPECT_EQ(report.bottom_up[0].self_host_s, 1.0);
  for (std::size_t i = 1; i < report.bottom_up.size(); ++i) {
    EXPECT_LE(report.bottom_up[i].self.cycles,
              report.bottom_up[i - 1].self.cycles);
  }

  // The writers must at least produce parseable non-empty output.
  std::ostringstream js, csv, flame;
  model::write_profile_json(js, report);
  model::write_profile_csv(csv, report);
  model::print_attributed_profile(flame, report);
  EXPECT_NE(js.str().find("\"top_down\""), std::string::npos);
  EXPECT_NE(js.str().find("\"schema_version\": 1"), std::string::npos);
  EXPECT_NE(js.str().find("\"host_s\": 2, \"self_host_s\": 0.75"),
            std::string::npos);
  EXPECT_NE(csv.str().find("view,path,name,depth"), std::string::npos);
  const std::string csv_header = csv.str().substr(0, csv.str().find('\n'));
  EXPECT_EQ(csv_header.find("host_s"), std::string::npos)
      << "the CSV stays modelled-only";
  EXPECT_NE(flame.str().find("hottest by self cycles"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Structured logging + flight recorder

class LogTest : public ::testing::Test {
 protected:
  void SetUp() override { log::Logger::instance().reset_for_test(); }
  void TearDown() override { log::Logger::instance().reset_for_test(); }
};

TEST_F(LogTest, ParseLevelRoundTrips) {
  using log::Level;
  EXPECT_EQ(log::parse_level("debug", Level::kOff), Level::kDebug);
  EXPECT_EQ(log::parse_level("info", Level::kOff), Level::kInfo);
  EXPECT_EQ(log::parse_level("warn", Level::kOff), Level::kWarn);
  EXPECT_EQ(log::parse_level("error", Level::kOff), Level::kError);
  EXPECT_EQ(log::parse_level("off", Level::kDebug), Level::kOff);
  EXPECT_EQ(log::parse_level("bogus", Level::kWarn), Level::kWarn);
  EXPECT_STREQ(log::level_name(Level::kDebug), "debug");
  EXPECT_STREQ(log::level_name(Level::kError), "error");
}

TEST_F(LogTest, SinkHonoursLevelButRingCapturesEverything) {
  log::Logger& logger = log::Logger::instance();
  std::ostringstream sink;
  logger.set_sink(&sink);
  ASSERT_EQ(logger.level(), log::Level::kWarn) << "default must be warn";

  log::debug("test", "below_threshold", {Arg::n("x", 1)});
  log::error("test", "above_threshold", {Arg::s("why", "because")});

  const std::string out = sink.str();
  EXPECT_EQ(out.find("below_threshold"), std::string::npos);
  EXPECT_NE(out.find("above_threshold"), std::string::npos);
  EXPECT_NE(out.find("\"level\":\"error\""), std::string::npos);
  EXPECT_NE(out.find("\"why\":\"because\""), std::string::npos);

  // The flight ring saw both, in order, with monotone sequence numbers.
  const auto ring = logger.flight();
  ASSERT_EQ(ring.size(), 2U);
  EXPECT_EQ(ring[0].event, "below_threshold");
  EXPECT_EQ(ring[0].level, log::Level::kDebug);
  EXPECT_EQ(ring[1].event, "above_threshold");
  EXPECT_LT(ring[0].seq, ring[1].seq);
}

TEST_F(LogTest, FlightRingIsBounded) {
  log::Logger& logger = log::Logger::instance();
  logger.set_sink(nullptr);
  // Appends rather than `"e" + std::to_string(i)`: GCC 12 inlines that
  // operator+ into a false -Wrestrict at -O3.
  const auto event = [](std::size_t i) {
    return std::string("e").append(std::to_string(i));
  };
  const std::size_t n = log::Logger::kFlightCapacity + 10;
  for (std::size_t i = 0; i < n; ++i) {
    log::debug("test", event(i));
  }
  const auto ring = logger.flight();
  ASSERT_EQ(ring.size(), log::Logger::kFlightCapacity);
  // Oldest events fell off; the newest survives at the back.
  EXPECT_EQ(ring.back().event, event(n - 1));
  EXPECT_EQ(ring.front().event, event(n - ring.size()));
}

TEST_F(LogTest, IncidentDumpsFlightRecorder) {
  log::Logger& logger = log::Logger::instance();
  logger.set_sink(nullptr);
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "lassm_flight_test";
  std::filesystem::remove_all(dir);
  logger.set_flight_dir(dir.string());

  log::debug("exec", "seam_fired", {Arg::s("seam", "task_exception")});
  lassm::Result<std::string> dumped = logger.incident(
      "unit_test_incident", {Arg::n("fault_key", 99), Arg::s("kind", "t")});
  ASSERT_TRUE(dumped.is_ok()) << dumped.error().to_string();
  const std::string path = dumped.value();
  ASSERT_FALSE(path.empty());
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_NE(path.find("unit_test_incident"), std::string::npos);

  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string dump = ss.str();
  EXPECT_NE(dump.find("\"incident\""), std::string::npos);
  EXPECT_NE(dump.find("\"events\""), std::string::npos);
  EXPECT_NE(dump.find("unit_test_incident"), std::string::npos);
  EXPECT_NE(dump.find("\"fault_key\":99"), std::string::npos);
  // The ring-only debug event made it into the dump.
  EXPECT_NE(dump.find("seam_fired"), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST_F(LogTest, IncidentWithoutFlightDirReturnsEmpty) {
  log::Logger& logger = log::Logger::instance();
  logger.set_sink(nullptr);
  lassm::Result<std::string> dumped = logger.incident("nowhere_to_go");
  ASSERT_TRUE(dumped.is_ok());
  EXPECT_EQ(dumped.value(), "");
}

TEST_F(LogTest, IncidentCreatesMissingNestedFlightDir) {
  log::Logger& logger = log::Logger::instance();
  logger.set_sink(nullptr);
  const std::filesystem::path dir = std::filesystem::path(::testing::TempDir())
      / "lassm_flight_nested" / "a" / "b";
  std::filesystem::remove_all(dir.parent_path().parent_path());
  logger.set_flight_dir(dir.string());
  lassm::Result<std::string> dumped = logger.incident("nested_dir");
  ASSERT_TRUE(dumped.is_ok()) << dumped.error().to_string();
  EXPECT_TRUE(std::filesystem::exists(dumped.value()));
  std::filesystem::remove_all(dir.parent_path().parent_path());
}

TEST_F(LogTest, IncidentDumpFailureIsTypedAndSelfLogged) {
  log::Logger& logger = log::Logger::instance();
  logger.set_sink(nullptr);
  // A regular file where the flight dir should be: create_directories
  // fails, and incident() must report it instead of silently returning.
  const std::filesystem::path file =
      std::filesystem::path(::testing::TempDir()) / "lassm_flight_blocker";
  std::filesystem::remove_all(file);
  { std::ofstream block(file); block << "x"; }
  logger.set_flight_dir(file.string());
  lassm::Result<std::string> dumped = logger.incident("blocked");
  ASSERT_FALSE(dumped.is_ok());
  EXPECT_EQ(dumped.error().code(), lassm::ErrorCode::kIoError);
  EXPECT_NE(dumped.error().message().find("blocked"), std::string::npos);
  // The failure was self-logged into the flight ring, not lost.
  const std::vector<log::Record> ring = logger.flight();
  ASSERT_FALSE(ring.empty());
  EXPECT_EQ(ring.back().event, "flight_dump_failed");
  std::filesystem::remove_all(file);
}

// ---------------------------------------------------------------------------
// Metrics histogram / registry edge cases

TEST(MetricsEdgeCases, EmptyHistogramPercentilesAreZero) {
  Histogram h({10, 100});
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 0U);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.quantile_bound(0.5), 0U);
  EXPECT_EQ(s.quantile_bound(0.99), 0U);
}

TEST(MetricsEdgeCases, SingleBucketRankPercentiles) {
  Histogram h({10});
  for (int i = 0; i < 4; ++i) h.observe(5);  // all in the only finite bucket
  HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.quantile_bound(0.01), 10U);
  EXPECT_EQ(s.quantile_bound(1.0), 10U);

  h.observe(1000);  // overflow bucket: open bound reports back() + 1
  s = h.snapshot();
  EXPECT_EQ(s.quantile_bound(0.5), 10U);
  EXPECT_EQ(s.quantile_bound(1.0), 11U);
}

TEST(MetricsEdgeCases, SnapshotDeltaClampsAfterReset) {
  MetricsRegistry reg;
  Counter& c = reg.counter("c");
  Histogram& h = reg.histogram("h", {8});
  c.add(5);
  h.observe(3);
  h.observe(20);
  const MetricsSnapshot before = reg.snapshot();

  reg.reset();
  EXPECT_EQ(c.value(), 0U);
  EXPECT_EQ(h.snapshot().count, 0U);
  EXPECT_EQ(reg.gauge("g").value(), 0.0);

  // Post-reset recordings are smaller than the earlier snapshot: the delta
  // counts from the reset instead of underflowing.
  c.add(2);
  h.observe(4);
  const MetricsSnapshot after = reg.snapshot();
  const MetricsSnapshot d = after.delta(before);
  EXPECT_EQ(d.value("c"), 2U);
  const auto it = d.histograms.find("h");
  ASSERT_NE(it, d.histograms.end());
  EXPECT_EQ(it->second.count, 1U);
  EXPECT_EQ(it->second.sum, 4U);
}

TEST(MetricsEdgeCases, HistogramResetKeepsBoundsAndHandle) {
  Histogram h(Histogram::pow2_bounds(0, 4));
  const auto bounds_before = h.bounds();
  h.observe(3);
  h.reset();
  EXPECT_EQ(h.bounds(), bounds_before);
  EXPECT_EQ(h.snapshot().count, 0U);
  h.observe(7);  // handle still records
  EXPECT_EQ(h.snapshot().count, 1U);
}

}  // namespace
}  // namespace lassm::trace
