#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "trace/attribution.hpp"
#include "trace/metrics.hpp"

/// Span half of the observability subsystem: a hierarchical tracer with two
/// clocks.
///
///  * The HOST clock is wall time (steady_clock, microseconds since the
///    tracer's epoch). Host spans cover what the machine running the
///    simulator actually does: pipeline stages, kernel launches, worker
///    chunk claims and steals.
///  * The SIM clock is modelled device time. Sim spans are reconstructed
///    *after* each launch's deterministic merge from the modelled warp
///    cycles, so they are bit-identical across host thread counts and never
///    perturb a modelled number (see DESIGN.md "Observability" for the
///    determinism contract).
///
/// Events live on tracks, one (process, thread) pair each: one sim track
/// per SM-equivalent plus a "launches" track per device, and one host track
/// per pool worker plus the driver. The exporter (trace/export.hpp) renders
/// everything as Chrome trace-event JSON that ui.perfetto.dev opens
/// directly.
namespace lassm::trace {

/// One typed span/event argument (rendered into the event's "args" object).
struct Arg {
  std::string key;
  std::string str;
  double num = 0.0;
  bool is_num = false;

  static Arg n(std::string key, double value) {
    Arg a;
    a.key = std::move(key);
    a.num = value;
    a.is_num = true;
    return a;
  }
  static Arg s(std::string key, std::string value) {
    Arg a;
    a.key = std::move(key);
    a.str = std::move(value);
    return a;
  }
};

/// Renders a CounterVector as numeric span args — "cv.<field>" for every
/// integer field plus "cv.sim_time_s" — so kernel/stage spans carry their
/// attributed counters into the exported trace. Fields above 2^53 would
/// round in the double-typed args; the exact values live in the
/// attribution tree, the args are for timeline inspection.
std::vector<Arg> counter_args(const CounterVector& cv);

/// One Chrome trace event: a complete span ("X") or an instant ("i").
struct Event {
  enum class Kind : std::uint8_t { kComplete, kInstant };
  Kind kind = Kind::kComplete;
  std::uint32_t track = 0;
  std::string name;
  const char* cat = "sim";  ///< static string: "sim" / "host"
  double ts_us = 0.0;
  double dur_us = 0.0;  ///< kComplete only
  std::vector<Arg> args;
};

/// One timeline row: process + thread label as Perfetto shows them.
struct TrackInfo {
  std::string process;
  std::string thread;
};

class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  MetricsRegistry& metrics() noexcept { return metrics_; }
  const MetricsRegistry& metrics() const noexcept { return metrics_; }

  /// Counter-attribution tree for this tracer's runs. DRIVER-THREAD ONLY
  /// (unlike record()/metrics()): spans open/close and launch counters
  /// merge on the driver, so the profile is deliberately unsynchronised —
  /// see attribution.hpp.
  AttributionProfile& attribution() noexcept { return attribution_; }
  const AttributionProfile& attribution() const noexcept {
    return attribution_;
  }

  /// Get-or-create the track for (process, thread). Thread-safe; ids are
  /// dense and stable for the tracer's lifetime.
  std::uint32_t track(const std::string& process, const std::string& thread);

  /// Appends one event (thread-safe; meant for cold paths — workers in a
  /// parallel region record through a Buffer instead).
  void record(Event e);
  /// Records an instant event on `track`, stamped with host_now_us().
  void instant(std::uint32_t track, std::string name, const char* cat,
               std::vector<Arg> args);

  /// Host-clock "now" in microseconds since the tracer's construction.
  double host_now_us() const;

  /// Monotonic cursor of the simulated-time axis: each traced launch is
  /// placed after every previously traced one, so multiple runs sharing a
  /// tracer (e.g. the pipeline's k iterations) concatenate cleanly.
  double sim_cursor_us() const;
  void advance_sim_cursor(double end_us);

  /// Unsynchronised per-worker span buffer. Each worker owns exactly one
  /// during a parallel region and the engine absorbs them — in worker-id
  /// order, i.e. deterministically — after the launch barrier.
  class Buffer {
   public:
    void complete(std::uint32_t track, std::string name, const char* cat,
                  double ts_us, double dur_us, std::vector<Arg> args = {});
    void instant(std::uint32_t track, std::string name, const char* cat,
                 double ts_us, std::vector<Arg> args = {});
    std::size_t size() const noexcept { return events_.size(); }

   private:
    friend class Tracer;
    std::vector<Event> events_;
  };

  /// Splices a worker buffer's events into the tracer and clears it.
  void absorb(Buffer& buffer);

  std::vector<TrackInfo> tracks() const;
  std::vector<Event> events() const;
  std::size_t event_count() const;

 private:
  mutable std::mutex mutex_;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<TrackInfo> tracks_;
  std::vector<Event> events_;
  double sim_cursor_us_ = 0.0;
  MetricsRegistry metrics_;
  AttributionProfile attribution_;
};

/// The library's one host span: an attribution node that times itself.
/// Opening it opens a node in the tracer's attribution tree (a child of the
/// innermost open node) and reads the host clock. Closing it closes the
/// node, stores the wall time in between in the node's host_s, records a
/// complete "host" event on `track` whose args are the node's counters
/// (counter_args), and returns those counters. A null tracer makes every
/// operation a no-op that reads no clock, so untraced call sites stay
/// branch-free. DRIVER-THREAD ONLY, like the attribution tree, and spans
/// must nest.
class Span {
 public:
  Span(Tracer* tracer, std::uint32_t track, std::string name);
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  /// Closes the span if close() was not called (also during unwinding).
  ~Span();

  /// Closes the span and returns its counter total (empty for a null
  /// tracer). Idempotent: a second call returns the same total.
  CounterVector close();

 private:
  Tracer* tracer_;
  std::uint32_t track_ = 0;
  std::uint32_t node_ = 0;
  double t0_us_ = 0.0;
  bool open_ = false;
};

/// Builds one launch's simulated-device timeline: greedy earliest-finish
/// placement of warp tasks onto SM-equivalent lanes, in deterministic task
/// order. Placement runs in warp-cycle units; seal() then scales the lane
/// makespan onto the launch's *modelled* duration, so the trace's launch
/// span length equals the performance model's launch time (the same number
/// `print_launch_timeline` prints) and warps occupy proportional slices.
class SimTimeline {
 public:
  /// Lanes are created lazily in the tracer as "SM <i>" threads of
  /// `process`; at most `max_lanes` exist (one per modelled SM-equivalent).
  SimTimeline(Tracer& tracer, std::string process, std::uint32_t max_lanes);

  struct Placement {
    std::uint32_t lane = 0;
    std::uint64_t start_cycles = 0;
  };

  /// Assigns the next task to the lane that frees up earliest (ties to the
  /// lowest lane index — fully deterministic).
  Placement place(std::uint64_t cycles);

  std::uint64_t makespan_cycles() const noexcept { return makespan_cycles_; }

  /// Fixes the cycle->us mapping so the makespan spans `modeled_dur_us`,
  /// and advances the tracer's sim cursor past this launch. Call once,
  /// after all placements and before to_us()/lane_track().
  void seal(double modeled_dur_us);

  /// Absolute sim timestamp (us) of a warp-local cycle offset.
  double to_us(std::uint64_t cycles) const noexcept {
    return start_us_ + static_cast<double>(cycles) * us_per_cycle_;
  }

  /// Tracer track id of a lane (get-or-create).
  std::uint32_t lane_track(std::uint32_t lane);

  double start_us() const noexcept { return start_us_; }
  double end_us() const noexcept { return end_us_; }

 private:
  Tracer& tracer_;
  std::string process_;
  std::vector<std::uint64_t> lane_end_cycles_;
  std::vector<std::uint32_t> lane_tracks_;
  std::uint64_t makespan_cycles_ = 0;
  double start_us_ = 0.0;
  double end_us_ = 0.0;
  double us_per_cycle_ = 0.0;
  bool sealed_ = false;
};

}  // namespace lassm::trace
