#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "resilience/status.hpp"

/// Deterministic seeded fault injection. A FaultPlan names the seams of the
/// system where faults can be injected and decides — as a pure function of
/// (plan seed, seam, stable per-unit key) — whether each unit of work is
/// faulted. Because the decision never depends on thread count, batching, or
/// wall-clock, a given plan reproduces the exact same fault set on every
/// run, which is what makes the fault-matrix tests deterministic.
///
/// An empty (default-constructed) plan fires nothing: passing it through the
/// stack arms the hardened execution paths without perturbing a single
/// modelled number, so `FaultPlan{}` runs stay bit-identical to runs with no
/// plan at all.
namespace lassm::resilience {

/// The injection seams. Each corresponds to one named failure mode of a
/// real deployment, mapped onto our simulated stack.
enum class Seam : std::uint8_t {
  kTaskException = 0,  ///< worker task throws inside core::exec (transient)
  kMemStall,           ///< memsim service interruption: tier flush mid-walk
  kBadInput,           ///< malformed contig/read reaching WarpKernelContext
  kWalkHang,           ///< mer-walk stops making progress (watchdog food)
  kDeviceLoss,         ///< simulated device drops out between batches
  kPoolStart,          ///< thread pool cannot start (serial fallback)
  kQueueOverflow,      ///< serve admission queue rejects the job at entry
  kJobTimeout,         ///< serve job blows its deadline before dispatch
  kCacheCorrupt,       ///< stored ResultCache bytes flip before read-back
  kRankMsgDrop,        ///< dist message batch dropped in flight (retransmit)
  kRankLoss,           ///< dist rank dies at a phase boundary (shard handoff)
  kSeamCount,          ///< sentinel — number of seams
};

constexpr std::size_t kSeamCount =
    static_cast<std::size_t>(Seam::kSeamCount);

const char* seam_name(Seam seam) noexcept;

/// Deterministic fault schedule. Rates are per-unit probabilities evaluated
/// against a hash of (seed, seam, key); device losses are explicit
/// (rank, after_batch) events.
class FaultPlan {
 public:
  FaultPlan() = default;
  explicit FaultPlan(std::uint64_t seed) : seed_(seed) {}

  std::uint64_t seed() const noexcept { return seed_; }
  void set_seed(std::uint64_t seed) noexcept { seed_ = seed; }

  /// Arm `seam` to fire with probability `rate` in [0, 1] per unit key.
  /// Transient seams (kTaskException, kMemStall) fire only on a task's
  /// first attempt, so a retry of the same key succeeds; persistent seams
  /// (kBadInput, kWalkHang) fire on every attempt for a selected key.
  void arm(Seam seam, double rate);
  double rate(Seam seam) const noexcept;

  /// Explicit device-loss event: rank `rank` dies after completing
  /// `after_batch` batches (0 = dies before any batch finishes its
  /// successor). Multiple ranks may be scheduled.
  void add_device_loss(std::uint32_t rank, std::uint32_t after_batch);

  /// True when no seam is armed and no device loss is scheduled — the
  /// bit-identity contract case.
  bool empty() const noexcept;

  /// Pure decision function: does `seam` fire for unit `key` on `attempt`?
  /// (attempt 0 = first try). Stable across threads/batching by design.
  bool fires(Seam seam, std::uint64_t key, unsigned attempt = 0) const
      noexcept;

  /// Device-loss query: should rank `rank` be lost once it has completed
  /// `batches_done` batches? Returns the matching scheduled event.
  bool device_lost(std::uint32_t rank, std::uint32_t batches_done) const
      noexcept;

  struct DeviceLossEvent {
    std::uint32_t rank = 0;
    std::uint32_t after_batch = 0;
  };
  const std::vector<DeviceLossEvent>& device_losses() const noexcept {
    return device_losses_;
  }

  /// Parse a plan spec, e.g. the value of the LASSM_FAULTPLAN env var:
  ///
  ///   "seed=42 task_exception=0.05 bad_input=0.01 device_loss=1@2"
  ///
  /// Tokens are whitespace-separated `name=value`; seam names are the
  /// snake_case `seam_name()` strings with a probability value, plus
  /// `seed=<u64>` and repeatable `device_loss=<rank>@<after_batch>` (both
  /// uint32; rank 0xFFFFFFFF, the recovery rank, is rejected).
  static Result<FaultPlan> parse(const std::string& spec);

  /// Plan from the LASSM_FAULTPLAN environment variable; ok(nullopt) when
  /// the variable is unset or empty. A malformed spec is a typed
  /// kParseError naming the offending token — never a partially armed
  /// plan, and never a typo silently disabling injection.
  static Result<std::optional<FaultPlan>> from_env();

  /// Canonical spec rendering (parse(to_spec()) round-trips).
  std::string to_spec() const;

 private:
  std::uint64_t seed_ = 0;
  std::array<double, kSeamCount> rates_{};  // zero-initialised: nothing armed
  std::vector<DeviceLossEvent> device_losses_;
};

/// The stable per-unit key for contig-scoped seams: mixes the contig id and
/// walk side so left/right extensions fault independently but identically
/// across runs regardless of batch boundaries or thread assignment.
std::uint64_t contig_fault_key(std::uint64_t contig_id,
                               bool right_side) noexcept;

}  // namespace lassm::resilience
