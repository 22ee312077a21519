// The observability subsystem's contract: metrics/histogram arithmetic is
// exact, span merging is deterministic at every thread count, the exported
// Chrome trace / metrics JSON is well-formed, and — the load-bearing
// invariant — tracing never changes a modelled number: assembly output is
// bit-identical with tracing on or off, serial or parallel.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "core/assembler.hpp"
#include "core/exec.hpp"
#include "trace/export.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"
#include "workload/dataset.hpp"

namespace lassm::trace {
namespace {

// ---------------------------------------------------------------------------
// Minimal recursive-descent JSON parser, just enough to round-trip what the
// exporters emit (objects, arrays, strings with escapes, numbers, bools).

struct Json {
  enum class Type { kNull, kBool, kNum, kStr, kArr, kObj };
  Type type = Type::kNull;
  bool b = false;
  double num = 0.0;
  std::string str;
  std::vector<Json> arr;
  std::map<std::string, Json> obj;

  const Json& at(const std::string& key) const {
    const auto it = obj.find(key);
    if (it == obj.end()) throw std::runtime_error("missing key: " + key);
    return it->second;
  }
  bool has(const std::string& key) const { return obj.count(key) != 0; }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& s) : s_(s) {}

  Json parse() {
    Json v = value();
    skip_ws();
    if (pos_ != s_.size()) throw std::runtime_error("trailing JSON input");
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }
  char peek() {
    if (pos_ >= s_.size()) throw std::runtime_error("unexpected end");
    return s_[pos_];
  }
  void expect(char c) {
    if (peek() != c) {
      throw std::runtime_error(std::string("expected '") + c + "' at " +
                               std::to_string(pos_));
    }
    ++pos_;
  }

  Json value() {
    skip_ws();
    switch (peek()) {
      case '{': return object();
      case '[': return array();
      case '"': {
        Json v;
        v.type = Json::Type::kStr;
        v.str = string();
        return v;
      }
      case 't': literal("true"); return boolean(true);
      case 'f': literal("false"); return boolean(false);
      case 'n': literal("null"); return Json{};
      default: return number();
    }
  }

  void literal(const char* lit) {
    for (const char* p = lit; *p != 0; ++p) expect(*p);
  }
  static Json boolean(bool b) {
    Json v;
    v.type = Json::Type::kBool;
    v.b = b;
    return v;
  }

  Json object() {
    expect('{');
    Json v;
    v.type = Json::Type::kObj;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      std::string key = string();
      skip_ws();
      expect(':');
      v.obj.emplace(std::move(key), value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  Json array() {
    expect('[');
    Json v;
    v.type = Json::Type::kArr;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.arr.push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= s_.size()) throw std::runtime_error("unterminated string");
      char c = s_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) throw std::runtime_error("bad escape");
      char e = s_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > s_.size()) throw std::runtime_error("bad \\u");
          const unsigned cp =
              static_cast<unsigned>(std::stoul(s_.substr(pos_, 4), nullptr, 16));
          pos_ += 4;
          // The exporter only emits \u00XX for control characters.
          out.push_back(static_cast<char>(cp & 0xFF));
          break;
        }
        default: throw std::runtime_error("unknown escape");
      }
    }
  }

  Json number() {
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '-' || s_[pos_] == '+' || s_[pos_] == '.' ||
            s_[pos_] == 'e' || s_[pos_] == 'E')) {
      ++pos_;
    }
    if (pos_ == start) throw std::runtime_error("bad number");
    Json v;
    v.type = Json::Type::kNum;
    v.num = std::stod(s_.substr(start, pos_ - start));
    return v;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Metrics registry

TEST(Metrics, CounterAndGaugeBasics) {
  MetricsRegistry reg;
  Counter& c = reg.counter("a");
  c.add();
  c.add(4);
  EXPECT_EQ(c.value(), 5u);
  EXPECT_EQ(&reg.counter("a"), &c) << "get-or-create must return the handle";
  reg.gauge("g").set(0.25);
  EXPECT_DOUBLE_EQ(reg.gauge("g").value(), 0.25);

  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.value("a"), 5u);
  EXPECT_EQ(snap.value("missing"), 0u);
  EXPECT_DOUBLE_EQ(snap.gauges.at("g"), 0.25);
}

TEST(Metrics, HistogramBucketMath) {
  Histogram h({1, 2, 4, 8});
  for (std::uint64_t v : {1, 2, 3, 4}) h.observe(v);
  const HistogramSnapshot s = h.snapshot();
  ASSERT_EQ(s.counts.size(), 5u) << "4 finite buckets + overflow";
  EXPECT_EQ(s.counts[0], 1u);  // 1
  EXPECT_EQ(s.counts[1], 1u);  // 2
  EXPECT_EQ(s.counts[2], 2u);  // 3, 4 (<= 4)
  EXPECT_EQ(s.counts[3], 0u);
  EXPECT_EQ(s.counts[4], 0u);
  EXPECT_EQ(s.count, 4u);
  EXPECT_EQ(s.sum, 10u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
}

TEST(Metrics, HistogramQuantilesAndOverflow) {
  Histogram h({1, 2, 4, 8});
  for (std::uint64_t v : {1, 2, 3, 4}) h.observe(v);
  HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.quantile_bound(0.25), 1u);
  EXPECT_EQ(s.quantile_bound(0.5), 2u);
  EXPECT_EQ(s.quantile_bound(1.0), 4u);

  h.observe(100);  // overflow bucket
  s = h.snapshot();
  EXPECT_EQ(s.counts.back(), 1u);
  EXPECT_EQ(s.quantile_bound(1.0), 9u) << "overflow reports bounds.back()+1";

  const HistogramSnapshot empty = Histogram({1, 2}).snapshot();
  EXPECT_EQ(empty.quantile_bound(0.5), 0u);
  EXPECT_DOUBLE_EQ(empty.mean(), 0.0);
}

TEST(Metrics, HistogramRejectsBadBounds) {
  EXPECT_THROW(Histogram({}), std::invalid_argument);
  EXPECT_THROW(Histogram({4, 2}), std::invalid_argument);
  EXPECT_THROW(Histogram({2, 2}), std::invalid_argument);
}

TEST(Metrics, Pow2Bounds) {
  const std::vector<std::uint64_t> b = Histogram::pow2_bounds(0, 3);
  EXPECT_EQ(b, (std::vector<std::uint64_t>{1, 2, 4, 8}));
}

TEST(Metrics, SnapshotDelta) {
  MetricsRegistry reg;
  reg.counter("c").add(10);
  reg.histogram("h", {1, 2}).observe(1);
  const MetricsSnapshot before = reg.snapshot();
  reg.counter("c").add(7);
  reg.counter("new").add(2);
  reg.histogram("h", {1, 2}).observe(5);
  const MetricsSnapshot d = reg.snapshot().delta(before);
  EXPECT_EQ(d.value("c"), 7u);
  EXPECT_EQ(d.value("new"), 2u);
  EXPECT_EQ(d.histograms.at("h").count, 1u);
  EXPECT_EQ(d.histograms.at("h").counts.back(), 1u);
  EXPECT_EQ(d.histograms.at("h").counts[0], 0u);
}

// ---------------------------------------------------------------------------
// Tracer and sim timeline

TEST(Tracer, TrackIdsAreDenseAndDeduped) {
  Tracer t;
  const std::uint32_t a = t.track("host", "driver");
  const std::uint32_t b = t.track("host", "worker 0");
  EXPECT_NE(a, b);
  EXPECT_EQ(t.track("host", "driver"), a);
  ASSERT_EQ(t.tracks().size(), 2u);
  EXPECT_EQ(t.tracks()[a].thread, "driver");
}

TEST(Tracer, BufferAbsorbPreservesOrder) {
  Tracer t;
  const std::uint32_t track = t.track("host", "w");
  Tracer::Buffer b0;
  Tracer::Buffer b1;
  b0.complete(track, "first", "host", 0.0, 1.0);
  b1.complete(track, "second", "host", 2.0, 1.0);
  b1.instant(track, "mark", "host", 2.5);
  t.absorb(b0);
  t.absorb(b1);
  EXPECT_EQ(b0.size(), 0u);
  EXPECT_EQ(b1.size(), 0u);
  const std::vector<Event> ev = t.events();
  ASSERT_EQ(ev.size(), 3u);
  EXPECT_EQ(ev[0].name, "first");
  EXPECT_EQ(ev[1].name, "second");
  EXPECT_EQ(ev[2].name, "mark");
  EXPECT_EQ(ev[2].kind, Event::Kind::kInstant);
}

TEST(SimTimeline, GreedyEarliestFinishPlacement) {
  Tracer t;
  SimTimeline tl(t, "sim:test", 2);
  // Lane ends after each place: L0=10 | L0=10,L1=4 | L1=9 | L0=13.
  const SimTimeline::Placement p0 = tl.place(10);
  const SimTimeline::Placement p1 = tl.place(4);
  const SimTimeline::Placement p2 = tl.place(5);
  const SimTimeline::Placement p3 = tl.place(3);
  EXPECT_EQ(p0.lane, 0u);
  EXPECT_EQ(p0.start_cycles, 0u);
  EXPECT_EQ(p1.lane, 1u);
  EXPECT_EQ(p1.start_cycles, 0u);
  EXPECT_EQ(p2.lane, 1u) << "lane 1 frees earliest";
  EXPECT_EQ(p2.start_cycles, 4u);
  EXPECT_EQ(p3.lane, 1u);
  EXPECT_EQ(p3.start_cycles, 9u);
  EXPECT_EQ(tl.makespan_cycles(), 12u);

  tl.seal(120.0);  // 10 us per cycle
  EXPECT_DOUBLE_EQ(tl.start_us(), 0.0);
  EXPECT_DOUBLE_EQ(tl.end_us(), 120.0);
  EXPECT_DOUBLE_EQ(tl.to_us(6), 60.0);
  EXPECT_DOUBLE_EQ(t.sim_cursor_us(), 120.0);

  // A second timeline on the same tracer starts after the first.
  SimTimeline tl2(t, "sim:test", 2);
  tl2.place(1);
  tl2.seal(10.0);
  EXPECT_DOUBLE_EQ(tl2.start_us(), 120.0);
  EXPECT_DOUBLE_EQ(tl2.end_us(), 130.0);
}

// ---------------------------------------------------------------------------
// Execution engine observability (deterministic steal scenario)

TEST(EngineTrace, RecordsChunksAndSteals) {
  Tracer tracer;
  core::AssemblyOptions opts;
  opts.trace = &tracer;
  core::WarpExecutionEngine engine(simt::DeviceSpec::a100(),
                                   simt::ProgrammingModel::kCuda, opts,
                                   /*n_threads=*/2);

  // n=8, 2 workers -> chunk=1, segments {0..3} and {4..7}. Item 0 blocks
  // until every other item completed, so whichever worker claims it pins
  // itself and the *other* worker has to cross segments to finish the
  // batch: either worker 1 steals 1..3, or worker 1 stole item 0 itself.
  // Every interleaving records at least one steal — guaranteed, not a
  // scheduling accident.
  std::atomic<unsigned> others_done{0};
  engine.run_batch(8, 1, [&](std::size_t i, core::WarpKernelContext&) {
    if (i == 0) {
      while (others_done.load(std::memory_order_acquire) < 7) {
        std::this_thread::yield();
      }
    } else {
      others_done.fetch_add(1, std::memory_order_acq_rel);
    }
  });

  const MetricsSnapshot m = tracer.metrics().snapshot();
  EXPECT_EQ(m.value(names::kExecClaims), 8u);
  EXPECT_GE(m.value(names::kExecSteals), 1u);

  std::size_t chunk_spans = 0;
  std::size_t steal_instants = 0;
  for (const Event& e : tracer.events()) {
    if (e.name == "chunk") ++chunk_spans;
    if (e.name == "steal") {
      ++steal_instants;
      EXPECT_EQ(e.kind, Event::Kind::kInstant);
    }
  }
  EXPECT_EQ(chunk_spans, 8u);
  EXPECT_GE(steal_instants, 1u);
}

// ---------------------------------------------------------------------------
// End-to-end determinism: tracing is purely observational

core::AssemblyInput small_dataset() {
  workload::DatasetParams p = workload::table2_params(21);
  const double ratio =
      static_cast<double>(p.num_reads) / static_cast<double>(p.num_contigs);
  p.num_contigs = 48;
  p.num_reads = static_cast<std::uint32_t>(48 * ratio);
  return workload::generate_dataset(p, 42);
}

core::AssemblyResult run_assembly(const core::AssemblyInput& in,
                                  unsigned n_threads, Tracer* tracer) {
  core::AssemblyOptions opts;
  opts.n_threads = n_threads;
  opts.trace = tracer;
  return core::LocalAssembler(simt::DeviceSpec::a100(), opts).run(in);
}

void expect_identical_runs(const core::AssemblyResult& a,
                           const core::AssemblyResult& b) {
  ASSERT_EQ(a.extensions.size(), b.extensions.size());
  for (std::size_t i = 0; i < a.extensions.size(); ++i) {
    EXPECT_EQ(a.extensions[i].left, b.extensions[i].left) << i;
    EXPECT_EQ(a.extensions[i].right, b.extensions[i].right) << i;
  }
  EXPECT_EQ(a.stats.totals.cycles, b.stats.totals.cycles);
  EXPECT_EQ(a.stats.totals.instructions, b.stats.totals.instructions);
  EXPECT_EQ(a.stats.warp_cycles, b.stats.warp_cycles);
  EXPECT_EQ(a.stats.traffic.hbm_read_bytes, b.stats.traffic.hbm_read_bytes);
  EXPECT_EQ(a.stats.traffic.hbm_write_bytes,
            b.stats.traffic.hbm_write_bytes);
  EXPECT_EQ(a.total_time_s, b.total_time_s);
}

TEST(TraceDeterminism, TracingDoesNotChangeResults) {
  const core::AssemblyInput in = small_dataset();
  const core::AssemblyResult untraced = run_assembly(in, 1, nullptr);
  for (unsigned n_threads : {1u, 4u}) {
    Tracer tracer;
    const core::AssemblyResult traced = run_assembly(in, n_threads, &tracer);
    SCOPED_TRACE("n_threads=" + std::to_string(n_threads));
    expect_identical_runs(untraced, traced);
    EXPECT_GT(tracer.event_count(), 0u);
  }
}

using SimEvent = std::tuple<std::string, std::string, std::string, double,
                            double>;  // process, thread, name, ts, dur

std::vector<SimEvent> sim_events(const Tracer& tracer) {
  const std::vector<TrackInfo> tracks = tracer.tracks();
  std::vector<SimEvent> out;
  for (const Event& e : tracer.events()) {
    if (std::string_view(e.cat) != "sim") continue;
    const TrackInfo& ti = tracks[e.track];
    out.emplace_back(ti.process, ti.thread, e.name, e.ts_us, e.dur_us);
  }
  return out;
}

TEST(TraceDeterminism, SimTimelineIdenticalAcrossThreadCounts) {
  const core::AssemblyInput in = small_dataset();
  Tracer serial_tracer;
  run_assembly(in, 1, &serial_tracer);
  Tracer parallel_tracer;
  run_assembly(in, 4, &parallel_tracer);

  const std::vector<SimEvent> a = sim_events(serial_tracer);
  const std::vector<SimEvent> b = sim_events(parallel_tracer);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "sim event " << i;
  }

  // The modelled distributions on the registry agree too (host-side claim/
  // steal traffic may of course differ).
  const MetricsSnapshot ms = serial_tracer.metrics().snapshot();
  const MetricsSnapshot mp = parallel_tracer.metrics().snapshot();
  for (const char* name :
       {names::kInstructions, names::kCycles, names::kProbes,
        names::kInsertions, names::kWalkSteps, names::kLaunchWarps}) {
    EXPECT_EQ(ms.value(name), mp.value(name)) << name;
  }
  EXPECT_EQ(ms.histograms.at(names::kHistWarpCycles).counts,
            mp.histograms.at(names::kHistWarpCycles).counts);
  EXPECT_EQ(ms.histograms.at(names::kHistProbeRounds).counts,
            mp.histograms.at(names::kHistProbeRounds).counts);
}

TEST(TraceDeterminism, MetricsMatchRunCounters) {
  const core::AssemblyInput in = small_dataset();
  Tracer tracer;
  const core::AssemblyResult r = run_assembly(in, 1, &tracer);
  const MetricsSnapshot m = tracer.metrics().snapshot();
  EXPECT_EQ(m.value(names::kInstructions), r.stats.totals.instructions);
  EXPECT_EQ(m.value(names::kCycles), r.stats.totals.cycles);
  EXPECT_EQ(m.value(names::kInsertions), r.stats.totals.insertions);
  EXPECT_EQ(m.value(names::kMemHbmReadBytes),
            r.stats.traffic.hbm_read_bytes);
  EXPECT_EQ(m.value(names::kLaunches), r.launches.size());
  EXPECT_EQ(m.value(names::kLaunchWarps), r.stats.num_warps);
  EXPECT_EQ(m.histograms.at(names::kHistWarpCycles).count,
            r.stats.warp_cycles.size());
}

// ---------------------------------------------------------------------------
// Exporters

TEST(Export, ChromeTraceParsesAndRoundTrips) {
  const core::AssemblyInput in = small_dataset();
  Tracer tracer;
  run_assembly(in, 2, &tracer);

  // Append one guaranteed-steal engine batch (see EngineTrace above) so
  // the export is exercised with instant events in every interleaving.
  {
    core::AssemblyOptions opts;
    opts.trace = &tracer;
    core::WarpExecutionEngine engine(simt::DeviceSpec::a100(),
                                     simt::ProgrammingModel::kCuda, opts, 2);
    std::atomic<unsigned> others_done{0};
    engine.run_batch(8, 1, [&](std::size_t i, core::WarpKernelContext&) {
      if (i == 0) {
        while (others_done.load(std::memory_order_acquire) < 7) {
          std::this_thread::yield();
        }
      } else {
        others_done.fetch_add(1, std::memory_order_acq_rel);
      }
    });
  }

  std::ostringstream os;
  write_chrome_trace(os, tracer);
  const std::string text = os.str();
  Json root;
  ASSERT_NO_THROW(root = JsonParser(text).parse()) << text.substr(0, 400);
  EXPECT_EQ(root.at("displayTimeUnit").str, "ms");
  const Json& events = root.at("traceEvents");
  ASSERT_EQ(events.type, Json::Type::kArr);

  std::size_t meta = 0;
  std::size_t complete = 0;
  std::size_t instant = 0;
  std::vector<std::string> names;
  std::map<double, std::string> process_names;
  for (const Json& e : events.arr) {
    const std::string ph = e.at("ph").str;
    if (ph == "M") {
      ++meta;
      if (e.at("name").str == "process_name") {
        process_names[e.at("pid").num] = e.at("args").at("name").str;
      }
      continue;
    }
    names.push_back(e.at("name").str);
    if (ph == "X") {
      ++complete;
      EXPECT_GE(e.at("dur").num, 0.0);
    } else {
      ASSERT_EQ(ph, "i");
      ++instant;
      EXPECT_EQ(e.at("s").str, "t");
    }
    EXPECT_GE(e.at("ts").num, 0.0);
    EXPECT_GT(e.at("pid").num, 0.0);
  }
  EXPECT_GT(meta, 0u);
  EXPECT_GT(complete, 0u);
  EXPECT_GT(instant, 0u) << "the blocking batch above guarantees a steal";

  // Hierarchy: pipeline-level spans from the assembler plus sim spans.
  const auto has = [&](const char* prefix) {
    return std::any_of(names.begin(), names.end(),
                       [&](const std::string& n) {
                         return n.rfind(prefix, 0) == 0;
                       });
  };
  EXPECT_TRUE(has("side "));
  EXPECT_TRUE(has("launch "));
  EXPECT_TRUE(has("warp "));
  EXPECT_TRUE(has("rung mer="));
  EXPECT_TRUE(has("construct"));
  EXPECT_TRUE(has("walk"));
  EXPECT_TRUE(has("chunk"));
  EXPECT_TRUE(has("steal"));

  // Tracks: one sim process (per-SM lanes + launches) and the host process
  // (driver + one track per worker).
  bool saw_sim = false;
  bool saw_host = false;
  for (const auto& [pid, name] : process_names) {
    if (name.rfind("sim:", 0) == 0) saw_sim = true;
    if (name == "host") saw_host = true;
  }
  EXPECT_TRUE(saw_sim);
  EXPECT_TRUE(saw_host);
}

TEST(Export, MetricsJsonAndCsv) {
  MetricsRegistry reg;
  reg.counter("kernel.cycles").add(123);
  reg.gauge("mem.l1_hit_rate").set(0.5);
  reg.histogram("hist.walk_len", {1, 2, 4}).observe(3);
  const MetricsSnapshot snap = reg.snapshot();

  std::ostringstream os;
  write_metrics_json(os, snap);
  Json root;
  ASSERT_NO_THROW(root = JsonParser(os.str()).parse()) << os.str();
  EXPECT_DOUBLE_EQ(root.at("counters").at("kernel.cycles").num, 123.0);
  EXPECT_DOUBLE_EQ(root.at("gauges").at("mem.l1_hit_rate").num, 0.5);
  const Json& h = root.at("histograms").at("hist.walk_len");
  EXPECT_DOUBLE_EQ(h.at("count").num, 1.0);
  EXPECT_DOUBLE_EQ(h.at("sum").num, 3.0);
  ASSERT_EQ(h.at("counts").arr.size(), 4u);
  EXPECT_DOUBLE_EQ(h.at("counts").arr[2].num, 1.0);
}

TEST(Export, JsonStringEscaping) {
  Tracer tracer;
  const std::uint32_t track = tracer.track("p\"q\\r", "t\n1");
  Event e;
  e.track = track;
  e.name = "we\"ird\tname";
  e.ts_us = 1.0;
  e.dur_us = 1.0;
  tracer.record(std::move(e));
  std::ostringstream os;
  write_chrome_trace(os, tracer);
  Json root;
  ASSERT_NO_THROW(root = JsonParser(os.str()).parse()) << os.str();
  bool found = false;
  for (const Json& ev : root.at("traceEvents").arr) {
    if (ev.at("ph").str == "X" && ev.at("name").str == "we\"ird\tname") {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Export, TraceCliParsing) {
  const char* raw[] = {"prog", "21",      "--trace",   "t.json",
                       "40",   "--metrics", "m.json",  nullptr};
  std::vector<char*> argv;
  for (const char* a : raw) argv.push_back(const_cast<char*>(a));
  int argc = 7;
  const TraceCli cli = parse_trace_cli(argc, argv.data());
  EXPECT_EQ(cli.trace_path, "t.json");
  EXPECT_EQ(cli.metrics_path, "m.json");
  EXPECT_TRUE(cli.enabled());
  ASSERT_EQ(argc, 3);
  EXPECT_STREQ(argv[0], "prog");
  EXPECT_STREQ(argv[1], "21");
  EXPECT_STREQ(argv[2], "40");
}

}  // namespace
}  // namespace lassm::trace
