#include "pipeline/multi_gpu.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/binning.hpp"
#include "resilience/fault_plan.hpp"
#include "simt/device.hpp"

namespace lassm::pipeline {

namespace {

/// Greedy LPT over `ids` (ascending): heaviest contig first onto the
/// least-loaded of `num_ranks` ranks, clamped to [1, ids.size()].
std::vector<std::vector<std::uint32_t>> lpt_split(
    const core::AssemblyInput& in, std::vector<std::uint32_t> ids,
    std::uint32_t num_ranks) {
  num_ranks = std::min<std::uint32_t>(
      num_ranks, std::max<std::size_t>(1, ids.size()));
  std::stable_sort(ids.begin(), ids.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return core::contig_work_estimate(in, a) >
                            core::contig_work_estimate(in, b);
                   });

  std::vector<std::uint64_t> load(num_ranks, 0);
  std::vector<std::vector<std::uint32_t>> members(num_ranks);
  for (std::uint32_t id : ids) {
    const auto rank = static_cast<std::uint32_t>(
        std::min_element(load.begin(), load.end()) - load.begin());
    members[rank].push_back(id);
    load[rank] += core::contig_work_estimate(in, id) + 1;
  }
  for (auto& m : members) std::sort(m.begin(), m.end());
  return members;
}

/// All of run_multi_gpu_resilient's errors share one prefix; keeping it in
/// one place (rather than repeated in every message literal) is the
/// error-message dedup the call sites rely on for stable grep-ability.
[[noreturn]] void fail(ErrorCode code, const std::string& what) {
  throw StatusError(Error(code, "run_multi_gpu_resilient: " + what));
}

}  // namespace

std::vector<std::vector<std::uint32_t>> partition_contigs(
    const core::AssemblyInput& in, std::uint32_t num_ranks) {
  if (num_ranks == 0) {
    throw std::invalid_argument("partition_contigs: num_ranks must be > 0");
  }
  std::vector<std::uint32_t> ids(in.contigs.size());
  std::iota(ids.begin(), ids.end(), 0U);
  return lpt_split(in, std::move(ids), num_ranks);
}

core::AssemblyInput subset_input(const core::AssemblyInput& in,
                                 const std::vector<std::uint32_t>& ids) {
  core::AssemblyInput sub;
  sub.kmer_len = in.kmer_len;
  sub.left_reads.resize(ids.size());
  sub.right_reads.resize(ids.size());
  for (std::size_t local = 0; local < ids.size(); ++local) {
    const std::uint32_t id = ids[local];
    sub.contigs.push_back(in.contigs[id]);
    auto copy_side = [&](const std::vector<std::uint32_t>& src,
                         std::vector<std::uint32_t>& dst) {
      for (std::uint32_t read_id : src) {
        dst.push_back(static_cast<std::uint32_t>(sub.reads.append(
            in.reads.seq(read_id), in.reads.qual(read_id))));
      }
    };
    copy_side(in.left_reads[id], sub.left_reads[local]);
    copy_side(in.right_reads[id], sub.right_reads[local]);
  }
  return sub;
}

void recover_on_device(const core::LocalAssembler& assembler,
                       const core::AssemblyInput& in,
                       core::AssemblyResult& result,
                       core::WarpExecutionEngine* engine) {
  if (!result.device_lost) return;
  core::AssemblyOptions ropts = assembler.options();
  ropts.fault_rank = kRecoveryRank;
  const core::AssemblyResult rec =
      core::LocalAssembler(assembler.device(), assembler.model(), ropts)
          .run(subset_input(in, result.unfinished_contigs), engine);
  if (rec.device_lost) {
    throw StatusError(
        Error(ErrorCode::kDeviceLost, "device lost during recovery rerun"));
  }
  for (std::size_t i = 0; i < result.unfinished_contigs.size(); ++i) {
    result.extensions[result.unfinished_contigs[i]] = rec.extensions[i];
  }
  result.total_time_s += rec.total_time_s;
  result.failures.merge(rec.failures);
  resilience::RebalanceEvent ev;
  ev.lost_rank = assembler.options().fault_rank;
  ev.after_batch = result.completed_batches;
  ev.moved_contigs = result.unfinished_contigs.size();
  ev.survivors = {kRecoveryRank};
  result.failures.rebalances.push_back(std::move(ev));
}

MultiGpuResult run_multi_gpu_resilient(
    const core::AssemblyInput& in,
    const std::vector<simt::DeviceSpec>& devices,
    const core::AssemblyOptions& opts, const resilience::FaultPlan* plan,
    const std::vector<std::uint32_t>* rank_ids,
    core::WarpExecutionEngine* engine) {
  if (devices.empty()) {
    fail(ErrorCode::kInvalidArgument, "device list must not be empty");
  }
  if (rank_ids != nullptr && rank_ids->size() != devices.size()) {
    fail(ErrorCode::kInvalidArgument,
         "rank_ids must have one entry per device");
  }
  for (const simt::DeviceSpec& d : devices) d.validate().throw_if_error();
  const auto phys_rank = [&](std::uint32_t index) {
    return rank_ids != nullptr ? (*rank_ids)[index] : index;
  };

  MultiGpuResult result;
  result.extensions.resize(in.contigs.size());
  // One report per device. Devices beyond the contig count get no work;
  // as idle survivors, a lost rank's contigs can recover onto them.
  result.ranks.resize(devices.size());
  for (std::uint32_t r = 0; r < devices.size(); ++r) {
    result.ranks[r].rank = phys_rank(r);
  }

  struct LostWork {
    std::uint32_t rank = 0;
    std::uint32_t after_batch = 0;
    std::vector<std::uint32_t> global_ids;  ///< unfinished, ascending
  };
  std::vector<LostWork> lost;

  // Runs the contigs `ids` (ascending global indices) on device `d` as
  // `fault_rank`, accounts their faults and time, and places their
  // extensions at `ids`.
  const auto run_part = [&](std::uint32_t d, std::uint32_t fault_rank,
                            const std::vector<std::uint32_t>& ids) {
    core::AssemblyOptions ropts = opts;
    ropts.fault_plan = plan;
    ropts.fault_rank = fault_rank;
    core::AssemblyResult rr = core::LocalAssembler(devices[d], ropts)
                                  .run(subset_input(in, ids), engine);
    result.failures.merge(rr.failures);
    result.total_gpu_s += rr.total_time_s;
    for (std::size_t local = 0; local < ids.size(); ++local) {
      rr.extensions[local].contig_id = in.contigs[ids[local]].id;
      result.extensions[ids[local]] = std::move(rr.extensions[local]);
    }
    return rr;
  };

  const std::vector<std::vector<std::uint32_t>> members =
      partition_contigs(in, static_cast<std::uint32_t>(devices.size()));
  for (std::uint32_t r = 0; r < members.size(); ++r) {
    // Completed batches' extensions survive a loss (copied back per
    // batch); only the unfinished tail needs recovery.
    const core::AssemblyResult rr = run_part(r, phys_rank(r), members[r]);
    RankReport& rep = result.ranks[r];
    rep.contig_ids = members[r];
    for (std::uint32_t id : members[r]) {
      rep.reads += in.left_reads[id].size() + in.right_reads[id].size();
    }
    rep.time_s = rr.total_time_s;
    rep.lost = rr.device_lost;
    if (rr.device_lost) {
      LostWork lw;
      lw.rank = phys_rank(r);
      lw.after_batch = rr.completed_batches;
      for (std::uint32_t local : rr.unfinished_contigs) {
        lw.global_ids.push_back(members[r][local]);
      }
      lost.push_back(std::move(lw));
    }
  }

  if (!lost.empty()) {
    // Survivors as device indices (for rerun placement) and as physical
    // rank ids (for the RebalanceEvent record).
    std::vector<std::uint32_t> survivors;
    std::vector<std::uint32_t> survivor_ids;
    for (std::uint32_t r = 0; r < result.ranks.size(); ++r) {
      if (!result.ranks[r].lost) {
        survivors.push_back(r);
        survivor_ids.push_back(result.ranks[r].rank);
      }
    }
    if (survivors.empty()) {
      fail(ErrorCode::kDeviceLost,
           "every rank lost its device; nothing to recover onto");
    }

    // Rebalance: all lost ranks' unfinished contigs, LPT-split across the
    // survivors, rerun under the kRecoveryRank sentinel (scheduled losses
    // name real ranks, so recovery cannot be re-lost). Contig-identity
    // fault keys make every per-task seam fire identically on the
    // survivor, so recovered extensions are bit-identical to what the
    // lost rank would have produced.
    std::vector<std::uint32_t> orphan_ids;
    for (const LostWork& lw : lost) {
      orphan_ids.insert(orphan_ids.end(), lw.global_ids.begin(),
                        lw.global_ids.end());
    }
    std::sort(orphan_ids.begin(), orphan_ids.end());

    const std::vector<std::vector<std::uint32_t>> moved =
        lpt_split(in, std::move(orphan_ids),
                  static_cast<std::uint32_t>(survivors.size()));
    for (std::uint32_t s = 0; s < moved.size(); ++s) {
      const core::AssemblyResult rr =
          run_part(survivors[s], kRecoveryRank, moved[s]);
      if (rr.device_lost) {
        fail(ErrorCode::kDeviceLost, "recovery rerun reported device loss");
      }
      // Recovery serialises after the loss on the survivor's device.
      result.ranks[survivors[s]].time_s += rr.total_time_s;
    }

    for (const LostWork& lw : lost) {
      resilience::RebalanceEvent ev;
      ev.lost_rank = lw.rank;
      ev.after_batch = lw.after_batch;
      ev.moved_contigs = lw.global_ids.size();
      ev.survivors = survivor_ids;
      result.failures.rebalances.push_back(std::move(ev));
    }
  }

  for (const RankReport& rep : result.ranks) {
    result.makespan_s = std::max(result.makespan_s, rep.time_s);
  }
  return result;
}

}  // namespace lassm::pipeline
