#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

/// Counter-attribution half of the observability subsystem.
///
/// The simulator's modelled hardware counters (simt::WarpCounters,
/// memsim::TrafficStats) are merged per launch on the driver thread. This
/// module snapshots that cumulative stream at span open/close so every
/// kernel / stage / pipeline span carries the counter *delta* it is
/// responsible for — the per-span analogue of what a vendor profiler's
/// per-kernel counter collection gives you, except exact and deterministic.
///
/// CounterVector deliberately mirrors the merged counters as plain uint64
/// fields (no simt/memsim dependency, so trace/ stays a leaf library); the
/// conversion from simt::LaunchStats lives in core/.
namespace lassm::trace {

/// One span's worth of modelled hardware counters. Field semantics match
/// simt::WarpCounters + memsim::TrafficStats (see those headers); warps and
/// sim_time_s come from the launch accounting.
struct CounterVector {
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::uint64_t intops = 0;
  std::uint64_t issue_slots = 0;
  std::uint64_t probes = 0;
  std::uint64_t insertions = 0;
  std::uint64_t walk_steps = 0;
  std::uint64_t atomics = 0;
  std::uint64_t mer_retries = 0;
  std::uint64_t mem_rounds = 0;
  std::uint64_t mem_accesses = 0;
  std::uint64_t lines_touched = 0;
  std::uint64_t l1_hits = 0;
  std::uint64_t l2_hits = 0;
  std::uint64_t l1_evictions = 0;
  std::uint64_t l2_evictions = 0;
  std::uint64_t hbm_lines = 0;
  std::uint64_t hbm_read_bytes = 0;
  std::uint64_t hbm_write_bytes = 0;
  std::uint64_t warps = 0;
  std::uint64_t dist_msgs = 0;   ///< remote messages flushed (dist::)
  std::uint64_t dist_bytes = 0;  ///< payload bytes those messages carried
  double sim_time_s = 0.0;  ///< modelled launch seconds covered by the span

  /// Name/member table over the integer fields, so exporters (span args,
  /// JSON, CSV) enumerate the vector generically and can never drift from
  /// the struct. sim_time_s is the one non-integer field and is handled
  /// explicitly by each writer.
  struct Field {
    const char* name;
    std::uint64_t CounterVector::* member;
  };
  static constexpr std::size_t kNumFields = 22;
  static const std::array<Field, kNumFields>& fields() noexcept;

  void add(const CounterVector& o) noexcept {
    for (const Field& f : fields()) this->*f.member += o.*f.member;
    sim_time_s += o.sim_time_s;
  }
  /// Component-wise difference; caller guarantees *this >= o per field
  /// (deltas of a monotone cumulative stream always satisfy this).
  CounterVector minus(const CounterVector& o) const noexcept {
    CounterVector d = *this;
    for (const Field& f : fields()) d.*f.member -= o.*f.member;
    d.sim_time_s -= o.sim_time_s;
    return d;
  }
  bool is_zero() const noexcept {
    for (const Field& f : fields()) {
      if (this->*f.member != 0) return false;
    }
    return sim_time_s == 0.0;
  }

  /// Derived cache traffic, same definitions as memsim::TrafficStats.
  std::uint64_t l1_misses() const noexcept { return lines_touched - l1_hits; }
  std::uint64_t l2_misses() const noexcept { return l1_misses() - l2_hits; }
  std::uint64_t hbm_bytes() const noexcept {
    return hbm_read_bytes + hbm_write_bytes;
  }
};

/// One node of the attribution tree: a named span with the counter total
/// accumulated while it was open (children included) and the driver
/// thread's wall time between its open and close. Nodes live in the
/// profile's arena; parent/children are arena indices so the whole tree is
/// trivially copyable into study artifacts.
struct AttributionNode {
  std::string name;
  CounterVector total;
  /// Host seconds the span was open (children included). Set by
  /// trace::Span from the tracer's clock; 0 for nodes closed without one.
  double host_s = 0.0;
  std::int32_t parent = -1;              ///< arena index; -1 for roots
  std::uint32_t depth = 0;               ///< 0 for roots
  std::vector<std::uint32_t> children;   ///< arena indices, open order
};

/// Exclusive (self) cost of node `i` in `nodes`: its total minus its
/// children's totals.
CounterVector self_cost(const std::vector<AttributionNode>& nodes,
                        std::size_t i) noexcept;
/// Exclusive host seconds of node `i`: its host_s minus its children's.
double self_host_s(const std::vector<AttributionNode>& nodes,
                   std::size_t i) noexcept;

/// Hierarchical counter attribution. DRIVER-THREAD ONLY, by construction:
/// launches merge their counters on the driver thread after the worker
/// barrier, and stage spans open/close there too, so no lock is needed and
/// attribution can never perturb worker execution (the bit-identity
/// contract). Open/close must nest like spans do; trace::Span is the RAII
/// form that also times the node.
class AttributionProfile {
 public:
  /// Opens a span named `name` as a child of the currently open span (or a
  /// root). Returns the node's arena index.
  std::uint32_t open(std::string name);

  /// Feeds one launch's merged counters to the innermost open span (every
  /// open ancestor receives it at close time via the snapshot arithmetic).
  void add(const CounterVector& cv) noexcept { cumulative_.add(cv); }

  /// Closes the innermost open span, stores `host_s` as its wall time and
  /// returns the counter delta it absorbed (its total). Unbalanced close()
  /// on an empty stack returns an empty vector.
  CounterVector close(double host_s = 0.0);

  bool has_open() const noexcept { return !open_stack_.empty(); }
  const CounterVector& cumulative() const noexcept { return cumulative_; }
  const std::vector<AttributionNode>& nodes() const noexcept {
    return nodes_;
  }

 private:
  std::vector<AttributionNode> nodes_;
  std::vector<std::uint32_t> open_stack_;     ///< arena indices
  std::vector<CounterVector> open_snapshots_; ///< cumulative_ at open()
  CounterVector cumulative_;
};

}  // namespace lassm::trace
