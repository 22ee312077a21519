#pragma once

#include <cstdint>
#include <vector>

#include "core/assembler.hpp"

/// Multi-GPU distribution of local assembly. MetaHipMer runs one rank per
/// GPU and keeps contigs and their aligned reads node-local (§II.B-C:
/// "all the reads and the contigs to which they align are localized on the
/// same nodes"), so the phase is embarrassingly parallel across ranks up
/// to load balance. This module partitions an AssemblyInput across N
/// simulated devices with greedy longest-processing-time balancing and
/// models the phase's makespan.
namespace lassm::pipeline {

struct RankReport {
  std::uint32_t rank = 0;
  /// The contigs the partition gave this rank, as ascending indices into
  /// the input's contig list. A lost rank keeps its list; the contigs
  /// recovered onto survivors are not added to theirs.
  std::vector<std::uint32_t> contig_ids;
  std::uint64_t reads = 0;    ///< read mappings scattered with contig_ids
  double time_s = 0.0;        ///< modelled kernel time on this rank's GPU
  /// Resilient runs only: this rank's simulated device was lost mid-run
  /// and its unfinished contigs were rebalanced onto survivors.
  bool lost = false;
};

struct MultiGpuResult {
  /// Extensions in the original input's contig order.
  std::vector<bio::ContigExtension> extensions;
  /// One per device. Devices beyond the contig count stay idle (no
  /// contigs, zero time) and count as survivors for device-loss recovery.
  std::vector<RankReport> ranks;
  double makespan_s = 0.0;    ///< max rank time (ranks run concurrently)
  double total_gpu_s = 0.0;   ///< sum of rank times (resource cost)
  /// Aggregated failure accounting across all ranks plus one
  /// RebalanceEvent per lost device (resilient runs; clean otherwise).
  resilience::FailureReport failures;

  /// Load balance: mean rank time / max rank time (1.0 == perfect).
  double balance() const noexcept {
    return makespan_s <= 0.0 || ranks.empty()
               ? 0.0
               : total_gpu_s / static_cast<double>(ranks.size()) / makespan_s;
  }
};

/// Greedy LPT split of the input's contigs across `num_ranks` ranks
/// (clamped to the contig count, at least 1), heaviest contig first onto
/// the least-loaded rank, by read count. Returns each rank's contig
/// indices in ascending order. Throws std::invalid_argument on 0 ranks.
std::vector<std::vector<std::uint32_t>> partition_contigs(
    const core::AssemblyInput& in, std::uint32_t num_ranks);

/// Sub-input over a subset of contigs (`ids`, ascending global order),
/// with each contig's mapped reads copied and reindexed: the input one rank
/// of run_multi_gpu_resilient, or one recovery rerun, assembles.
core::AssemblyInput subset_input(const core::AssemblyInput& in,
                                 const std::vector<std::uint32_t>& ids);

/// Rank identity of device-loss recovery reruns: reruns are pinned to this
/// sentinel so a FaultPlan's scheduled losses (which name real ranks) can
/// never re-kill the recovery pass — recovery terminates by construction.
inline constexpr std::uint32_t kRecoveryRank = 0xFFFFFFFFu;

/// Single-device recovery: if `result` (`assembler` run over `in`) lost its
/// device, reruns its unfinished contigs under kRecoveryRank on `engine`,
/// splices them in, adds the rerun's time and faults and records a
/// RebalanceEvent. Throws StatusError(kDeviceLost) if the rerun is lost.
void recover_on_device(const core::LocalAssembler& assembler,
                       const core::AssemblyInput& in,
                       core::AssemblyResult& result,
                       core::WarpExecutionEngine* engine = nullptr);

/// Multi-GPU run of local assembly: one rank per entry of `devices`
/// (heterogeneous specs allowed), each with `plan` armed and its
/// fault_rank set, so the plan's device-loss events fire on the matching
/// rank mid-run. A lost rank keeps the extensions of its completed
/// batches; its unfinished contigs are re-partitioned across the surviving
/// devices (LPT, like the initial split), rerun under kRecoveryRank, and
/// recorded as a RebalanceEvent in `failures`. Because fault keys are
/// contig-identity based, a recovered contig's extension is bit-identical
/// to what the lost rank would have produced, and every per-task seam of
/// the plan (injection, retry, quarantine) behaves identically on the
/// survivor.
///
/// Recovery work serialises after the loss on each survivor, which is how
/// the added time lands in that rank's RankReport and the makespan.
/// Throws StatusError(kInvalidArgument) on an empty device list and
/// StatusError(kDeviceLost) when every rank is lost (nothing to recover
/// onto). `plan` may be null (hardening armed off: results are identical
/// to a single-device run, because contigs are independent and
/// partitioning cannot change per-contig outcomes) or empty (armed,
/// nothing fires — bit-identical results).
///
/// `rank_ids` (optional, size = devices) gives each entry its *physical*
/// rank identity: fault_rank, RankReport.rank and RebalanceEvent members
/// carry those ids instead of vector indices. The distributed driver uses
/// this to run a round over the surviving subset of a larger rank set
/// without remapping the plan's scheduled device-loss events.
///
/// `engine` (optional) is the caller's thread pool, handed to every rank's
/// and every recovery rerun's LocalAssembler::run, so a round spawns no
/// threads of its own. Same precondition as LocalAssembler::run: it comes
/// from make_engine() on the fleet's device with `opts` and `plan` as its
/// fault plan (so a fleet sharing one pool is homogeneous). Results are
/// bit-identical with or without it.
MultiGpuResult run_multi_gpu_resilient(
    const core::AssemblyInput& in,
    const std::vector<simt::DeviceSpec>& devices,
    const core::AssemblyOptions& opts,
    const resilience::FaultPlan* plan,
    const std::vector<std::uint32_t>* rank_ids = nullptr,
    core::WarpExecutionEngine* engine = nullptr);

}  // namespace lassm::pipeline
