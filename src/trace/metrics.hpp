#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

/// Metrics half of the observability subsystem: a registry of named
/// counters, gauges and fixed-bucket histograms that the simulator, the
/// execution engine and the benches record into. Snapshots are plain value
/// types with delta semantics, so a caller can meter one region of a run
/// (snapshot before/after, subtract) without resetting anything.
///
/// Recording is wait-free (relaxed atomics) once a metric handle has been
/// obtained; obtaining a handle takes the registry mutex, so hot paths
/// should look their handles up once and cache the pointer.
namespace lassm::trace {

/// Canonical metric names shared by the recorder (core), the vendor
/// profiler emulation (model) and the exporters, so they can never drift
/// apart. See DESIGN.md "Observability" for the full dictionary.
namespace names {
inline constexpr const char* kInstructions = "kernel.instructions";
inline constexpr const char* kIntops = "kernel.intops";
inline constexpr const char* kIssueSlots = "kernel.issue_slots";
inline constexpr const char* kCycles = "kernel.cycles";
inline constexpr const char* kProbes = "kernel.probes";
inline constexpr const char* kInsertions = "kernel.insertions";
inline constexpr const char* kWalkSteps = "kernel.walk_steps";
inline constexpr const char* kAtomics = "kernel.atomics";
inline constexpr const char* kMerRetries = "kernel.mer_retries";
inline constexpr const char* kMemRounds = "kernel.mem_rounds";

inline constexpr const char* kMemAccesses = "mem.accesses";
inline constexpr const char* kMemLinesTouched = "mem.lines_touched";
inline constexpr const char* kMemL1Hits = "mem.l1_hits";
inline constexpr const char* kMemL2Hits = "mem.l2_hits";
inline constexpr const char* kMemL1Evictions = "mem.l1_evictions";
inline constexpr const char* kMemL2Evictions = "mem.l2_evictions";
inline constexpr const char* kMemHbmLines = "mem.hbm_lines";
inline constexpr const char* kMemHbmReadBytes = "mem.hbm_read_bytes";
inline constexpr const char* kMemHbmWriteBytes = "mem.hbm_write_bytes";
inline constexpr const char* kMemL1HitRate = "mem.l1_hit_rate";
inline constexpr const char* kMemL2HitRate = "mem.l2_hit_rate";

inline constexpr const char* kLaunches = "launch.count";
inline constexpr const char* kLaunchWarps = "launch.warps";

inline constexpr const char* kExecClaims = "exec.claims";
inline constexpr const char* kExecSteals = "exec.steals";

/// Pipeline front-end (k-mer analysis, contig generation, alignment):
/// stage outputs as counters. Host seconds per stage live in the
/// attribution tree (AttributionNode::host_s), not in the registry.
inline constexpr const char* kPipelineKmersDistinct =
    "pipeline.kmers_distinct";
inline constexpr const char* kPipelineKmersFiltered =
    "pipeline.kmers_filtered";
inline constexpr const char* kPipelineContigs = "pipeline.contigs";
inline constexpr const char* kPipelineReadsMapped = "pipeline.reads_mapped";

/// Resilient-execution fault accounting (recorded only when an armed
/// FaultPlan is threaded through AssemblyOptions and tracing is on).
inline constexpr const char* kResilienceFaultsInjected =
    "resilience.faults_injected";
inline constexpr const char* kResilienceTasksRetried =
    "resilience.tasks_retried";
inline constexpr const char* kResilienceTasksQuarantined =
    "resilience.tasks_quarantined";
inline constexpr const char* kResilienceWalksAborted =
    "resilience.walks_aborted";
inline constexpr const char* kResilienceMemFaults = "resilience.mem_faults";
inline constexpr const char* kResilienceDevicesLost =
    "resilience.devices_lost";

/// Distributed (multi-rank) message layer (src/dist): remote traffic and
/// the modelled network cost it was billed at.
inline constexpr const char* kDistMsgs = "dist.msgs";
inline constexpr const char* kDistBytes = "dist.bytes";
inline constexpr const char* kDistBatches = "dist.batches";
inline constexpr const char* kDistMsgDrops = "dist.msg_drops";
inline constexpr const char* kDistRetransmits = "dist.retransmits";
inline constexpr const char* kDistFlushes = "dist.flushes";
inline constexpr const char* kDistRankLosses = "dist.rank_losses";
inline constexpr const char* kDistNetworkSeconds = "dist.network_seconds";

inline constexpr const char* kHistWarpCycles = "hist.warp_cycles";
inline constexpr const char* kHistProbeRounds = "hist.probe_rounds_per_rung";
inline constexpr const char* kHistWalkLen = "hist.walk_len";
inline constexpr const char* kHistRungsPerTask = "hist.rungs_per_task";
/// Per-rung walk outcomes land on "walk.outcome.<state name>" counters.
inline constexpr const char* kWalkOutcomePrefix = "walk.outcome.";
}  // namespace names

/// Monotonic event counter.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  /// Zeroes the counter in place (handle stays valid). Only meaningful
  /// outside parallel regions; see MetricsRegistry::reset.
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins floating point value (derived rates, ratios).
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Copyable state of one histogram: per-bucket counts plus count/sum.
struct HistogramSnapshot {
  /// Inclusive upper bounds of the finite buckets; counts has one extra
  /// trailing overflow bucket for values above bounds.back().
  std::vector<std::uint64_t> bounds;
  std::vector<std::uint64_t> counts;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;

  double mean() const noexcept {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }

  /// Upper bound of the bucket containing quantile `q` in (0, 1]; the
  /// overflow bucket reports bounds.back() + 1 as its (open) bound. 0 when
  /// the histogram is empty.
  std::uint64_t quantile_bound(double q) const noexcept;
};

/// Fixed-bucket histogram over non-negative integer observations. Bucket i
/// holds values <= bounds[i]; one implicit overflow bucket catches the
/// rest. Buckets are fixed at registration so merging and deltas are exact.
class Histogram {
 public:
  /// `bounds` must be non-empty and strictly ascending.
  explicit Histogram(std::vector<std::uint64_t> bounds);

  void observe(std::uint64_t v) noexcept;

  /// Zeroes every bucket plus count/sum in place; bounds are unchanged and
  /// the handle stays valid. Only meaningful outside parallel regions.
  void reset() noexcept;

  const std::vector<std::uint64_t>& bounds() const noexcept {
    return bounds_;
  }
  HistogramSnapshot snapshot() const;

  /// Power-of-two bounds 2^lo .. 2^hi — the standard shape for the
  /// latency/length distributions the kernel records.
  static std::vector<std::uint64_t> pow2_bounds(unsigned lo, unsigned hi);

 private:
  std::vector<std::uint64_t> bounds_;
  std::vector<std::atomic<std::uint64_t>> counts_;  ///< bounds + overflow
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
};

/// Copyable state of a whole registry at one instant.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  /// Counter value by name; 0 when absent.
  std::uint64_t value(std::string_view name) const noexcept;

  /// This snapshot minus an earlier one: counters and histogram counts
  /// subtract (metrics absent earlier count from zero); gauges keep the
  /// later value. A registry reset between the two snapshots makes the
  /// later value smaller than the earlier one — such deltas clamp to the
  /// later value (counting from the reset) instead of underflowing.
  MetricsSnapshot delta(const MetricsSnapshot& earlier) const;
};

/// Named metrics, get-or-create. Handles returned by counter()/gauge()/
/// histogram() stay valid for the registry's lifetime.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// `bounds` applies on first creation; later lookups of the same name
  /// return the existing histogram unchanged.
  Histogram& histogram(std::string_view name,
                       std::vector<std::uint64_t> bounds);

  MetricsSnapshot snapshot() const;

  /// Zeroes every registered metric in place. Names and handles survive
  /// (hot paths keep their cached pointers); histogram bounds are kept.
  /// Not synchronised against concurrent recorders — call between
  /// parallel regions, like snapshot() consumers already do.
  void reset();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace lassm::trace
