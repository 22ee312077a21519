#include "pipeline/multi_gpu.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/exec.hpp"
#include "resilience/fault_plan.hpp"
#include "workload/dataset.hpp"

namespace lassm::pipeline {
namespace {

core::AssemblyInput dataset(std::uint32_t contigs = 60) {
  workload::DatasetParams p = workload::table2_params(21);
  p.num_contigs = contigs;
  p.num_reads = contigs * 5;
  return workload::generate_dataset(p, 31);
}

TEST(Partition, CoversEveryContigOnce) {
  const auto in = dataset();
  const auto members = partition_contigs(in, 4);
  ASSERT_EQ(members.size(), 4U);
  std::vector<int> seen(in.contigs.size(), 0);
  for (const auto& ids : members) {
    EXPECT_FALSE(ids.empty());
    EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
    for (std::uint32_t id : ids) {
      ASSERT_LT(id, in.contigs.size());
      ++seen[id];
    }
  }
  for (std::size_t id = 0; id < seen.size(); ++id) {
    EXPECT_EQ(seen[id], 1) << "contig " << id;
  }
}

TEST(Partition, ReadsFollowTheirContigs) {
  // A rank's sub-input holds its contigs' reads and nothing else.
  const auto in = dataset();
  std::uint64_t reads = 0, insertions = 0;
  for (const auto& ids : partition_contigs(in, 3)) {
    const core::AssemblyInput part = subset_input(in, ids);
    EXPECT_TRUE(part.validate());
    EXPECT_EQ(part.kmer_len, in.kmer_len);
    ASSERT_EQ(part.contigs.size(), ids.size());
    for (std::size_t local = 0; local < ids.size(); ++local) {
      EXPECT_EQ(part.contigs[local].id, in.contigs[ids[local]].id);
      EXPECT_EQ(part.left_reads[local].size(),
                in.left_reads[ids[local]].size());
      EXPECT_EQ(part.right_reads[local].size(),
                in.right_reads[ids[local]].size());
    }
    reads += part.num_mapped_reads();
    insertions += part.total_insertions();
  }
  EXPECT_EQ(reads, in.num_mapped_reads());
  EXPECT_EQ(insertions, in.total_insertions());
}

TEST(Partition, LoadIsBalanced) {
  const auto in = dataset(120);
  std::vector<std::uint64_t> loads;
  for (const auto& ids : partition_contigs(in, 4)) {
    std::uint64_t load = 0;
    for (std::uint32_t id : ids) {
      load += in.left_reads[id].size() + in.right_reads[id].size();
    }
    loads.push_back(load);
  }
  const auto mx = *std::max_element(loads.begin(), loads.end());
  const auto mn = *std::min_element(loads.begin(), loads.end());
  EXPECT_LE(mx - mn, mx / 3 + 4);  // greedy LPT keeps ranks close
}

TEST(Partition, MoreRanksThanContigsClamps) {
  const auto in = dataset(3);
  const auto members = partition_contigs(in, 16);
  ASSERT_EQ(members.size(), 3U);
  for (const auto& ids : members) EXPECT_EQ(ids.size(), 1U);
}

TEST(Partition, ZeroRanksThrows) {
  const auto in = dataset(4);
  EXPECT_THROW(partition_contigs(in, 0), std::invalid_argument);
}

// A homogeneous fleet of `n` copies of `dev` with no fault plan armed.
MultiGpuResult run_fleet(const core::AssemblyInput& in,
                         const simt::DeviceSpec& dev, std::size_t n) {
  return run_multi_gpu_resilient(in, std::vector<simt::DeviceSpec>(n, dev),
                                 {}, nullptr);
}

void expect_same_extensions(const std::vector<bio::ContigExtension>& got,
                            const std::vector<bio::ContigExtension>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].left, want[i].left) << i;
    EXPECT_EQ(got[i].right, want[i].right) << i;
    EXPECT_EQ(got[i].contig_id, want[i].contig_id) << i;
  }
}

TEST(MultiGpu, ResultsMatchSingleDevice) {
  const auto in = dataset();
  core::LocalAssembler single(simt::DeviceSpec::a100());
  const auto ref = single.run(in);
  for (std::uint32_t ranks : {1U, 2U, 5U}) {
    const MultiGpuResult r = run_fleet(in, simt::DeviceSpec::a100(), ranks);
    expect_same_extensions(r.extensions, ref.extensions);
  }
}

TEST(MultiGpu, MakespanShrinksWithRanks) {
  const auto in = dataset(120);
  const auto r1 = run_fleet(in, simt::DeviceSpec::a100(), 1);
  const auto r4 = run_fleet(in, simt::DeviceSpec::a100(), 4);
  EXPECT_LT(r4.makespan_s, r1.makespan_s);
  EXPECT_EQ(r1.ranks.size(), 1U);
  EXPECT_EQ(r4.ranks.size(), 4U);
  EXPECT_GT(r4.balance(), 0.4);
  EXPECT_LE(r4.balance(), 1.0 + 1e-9);
}

TEST(MultiGpu, ReportsAccountEveryContig) {
  const auto in = dataset(50);
  const auto r = run_fleet(in, simt::DeviceSpec::mi250x_gcd(), 3);
  std::uint64_t contigs = 0;
  std::uint64_t reads = 0;
  for (const auto& rep : r.ranks) {
    contigs += rep.contig_ids.size();
    reads += rep.reads;
  }
  EXPECT_EQ(contigs, in.contigs.size());
  EXPECT_EQ(reads, in.num_mapped_reads());
  // The reports expose the run's partition.
  const auto members = partition_contigs(in, 3);
  for (std::size_t rank = 0; rank < members.size(); ++rank) {
    EXPECT_EQ(r.ranks[rank].contig_ids, members[rank]) << rank;
  }
  EXPECT_NEAR(r.total_gpu_s,
              r.ranks[0].time_s + r.ranks[1].time_s + r.ranks[2].time_s,
              1e-12);
}

// ---------------------------------------------------------------------------
// Device-loss recovery (run_multi_gpu_resilient).

std::vector<simt::DeviceSpec> a100s(std::size_t n) {
  return std::vector<simt::DeviceSpec>(n, simt::DeviceSpec::a100());
}

TEST(MultiGpuResilient, NullOrEmptyPlanMatchesBaseline) {
  const auto in = dataset();
  const core::AssemblyResult single =
      core::LocalAssembler(simt::DeviceSpec::a100()).run(in);
  const auto unarmed = run_multi_gpu_resilient(in, a100s(3), {}, nullptr);
  expect_same_extensions(unarmed.extensions, single.extensions);
  EXPECT_TRUE(unarmed.failures.clean());
  const resilience::FaultPlan empty(9);
  const auto armed = run_multi_gpu_resilient(in, a100s(3), {}, &empty);
  expect_same_extensions(armed.extensions, single.extensions);
  EXPECT_TRUE(armed.failures.clean());
  EXPECT_EQ(armed.makespan_s, unarmed.makespan_s);
}

TEST(MultiGpuResilient, LostRankIsRebalancedBitIdentically) {
  const auto in = dataset(60);
  const auto base = run_fleet(in, simt::DeviceSpec::a100(), 3);

  resilience::FaultPlan plan(42);
  plan.add_device_loss(/*rank=*/1, /*after_batch=*/1);
  const auto r = run_multi_gpu_resilient(in, a100s(3), {}, &plan);

  // The loss is visible in the report...
  EXPECT_EQ(r.failures.devices_lost, 1U);
  ASSERT_EQ(r.failures.rebalances.size(), 1U);
  const resilience::RebalanceEvent& ev = r.failures.rebalances[0];
  EXPECT_EQ(ev.lost_rank, 1U);
  EXPECT_EQ(ev.after_batch, 1U);
  EXPECT_GT(ev.moved_contigs, 0U);
  EXPECT_EQ(ev.survivors, (std::vector<std::uint32_t>{0U, 2U}));
  ASSERT_EQ(r.ranks.size(), 3U);
  EXPECT_TRUE(r.ranks[1].lost);
  EXPECT_FALSE(r.ranks[0].lost);
  EXPECT_FALSE(r.ranks[2].lost);

  // ...and invisible in the results: every contig (faulted rank or not)
  // ends with exactly the extension the loss-free run produced, because
  // fault keys are contig-identity based and recovery reruns are
  // bit-identical.
  ASSERT_EQ(r.extensions.size(), base.extensions.size());
  for (std::size_t i = 0; i < base.extensions.size(); ++i) {
    EXPECT_EQ(r.extensions[i].left, base.extensions[i].left) << i;
    EXPECT_EQ(r.extensions[i].right, base.extensions[i].right) << i;
    EXPECT_EQ(r.extensions[i].contig_id, base.extensions[i].contig_id);
  }

  // Recovery serialises on the survivors: their rank time grew, so the
  // makespan can only be >= the loss-free one.
  EXPECT_GE(r.makespan_s, base.makespan_s);
}

TEST(MultiGpuResilient, MultipleLossesRecoverOntoTheLastSurvivor) {
  const auto in = dataset(40);
  const auto base = run_fleet(in, simt::DeviceSpec::a100(), 3);
  resilience::FaultPlan plan(1);
  plan.add_device_loss(0, 1);
  plan.add_device_loss(2, 1);
  const auto r = run_multi_gpu_resilient(in, a100s(3), {}, &plan);
  EXPECT_EQ(r.failures.devices_lost, 2U);
  EXPECT_EQ(r.failures.rebalances.size(), 2U);
  for (std::size_t i = 0; i < base.extensions.size(); ++i) {
    EXPECT_EQ(r.extensions[i].left, base.extensions[i].left) << i;
    EXPECT_EQ(r.extensions[i].right, base.extensions[i].right) << i;
  }
}

TEST(MultiGpuResilient, IdleDevicesCountAsSurvivors) {
  // One contig on two devices leaves device 1 idle. Losing device 0 must
  // recover onto it instead of reporting that every rank was lost.
  const auto in = dataset(1);
  resilience::FaultPlan plan(4);
  plan.add_device_loss(/*rank=*/0, /*after_batch=*/1);
  const auto r = run_multi_gpu_resilient(in, a100s(2), {}, &plan);

  core::LocalAssembler single(simt::DeviceSpec::a100());
  expect_same_extensions(r.extensions, single.run(in).extensions);
  ASSERT_EQ(r.ranks.size(), 2U);
  EXPECT_TRUE(r.ranks[0].lost);
  EXPECT_FALSE(r.ranks[1].lost);
  EXPECT_TRUE(r.ranks[1].contig_ids.empty());
  EXPECT_EQ(r.failures.devices_lost, 1U);
  ASSERT_EQ(r.failures.rebalances.size(), 1U);
  EXPECT_EQ(r.failures.rebalances[0].lost_rank, 0U);
  EXPECT_EQ(r.failures.rebalances[0].moved_contigs, 1U);
  EXPECT_EQ(r.failures.rebalances[0].survivors,
            (std::vector<std::uint32_t>{1U}));
  EXPECT_GT(r.ranks[1].time_s, 0.0);  // the recovery ran on device 1
}

TEST(MultiGpuResilient, AllRanksLostThrowsDeviceLost) {
  const auto in = dataset(20);
  resilience::FaultPlan plan(2);
  plan.add_device_loss(0, 1);
  plan.add_device_loss(1, 1);
  try {
    run_multi_gpu_resilient(in, a100s(2), {}, &plan);
    FAIL() << "every rank lost, but the run claimed success";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kDeviceLost);
  }
}

TEST(MultiGpuResilient, EmptyDeviceListIsInvalidArgument) {
  const auto in = dataset(5);
  try {
    run_multi_gpu_resilient(in, {}, {}, nullptr);
    FAIL() << "empty device list accepted";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidArgument);
  }
}

TEST(MultiGpuResilient, PerTaskFaultsFollowTheContigAcrossRecovery) {
  // A plan mixing device loss with per-task quarantine: the quarantine
  // decision is keyed on contig identity, so a contig quarantined on the
  // lost rank is quarantined again (identically) on the survivor.
  const auto in = dataset(40);
  resilience::FaultPlan plan(77);
  plan.arm(resilience::Seam::kBadInput, 0.15);
  plan.add_device_loss(1, 1);

  // Baseline: same per-task plan, no device loss.
  resilience::FaultPlan no_loss(77);
  no_loss.arm(resilience::Seam::kBadInput, 0.15);

  const auto base = run_multi_gpu_resilient(in, a100s(3), {}, &no_loss);
  const auto r = run_multi_gpu_resilient(in, a100s(3), {}, &plan);
  ASSERT_EQ(r.extensions.size(), base.extensions.size());
  for (std::size_t i = 0; i < base.extensions.size(); ++i) {
    EXPECT_EQ(r.extensions[i].left, base.extensions[i].left) << i;
    EXPECT_EQ(r.extensions[i].right, base.extensions[i].right) << i;
  }
  EXPECT_EQ(r.failures.devices_lost, 1U);
  EXPECT_GT(base.failures.tasks_quarantined, 0U) << "vacuous: nothing fired";
}

TEST(MultiGpuResilient, SharedEngineMatchesPerRankPools) {
  // Every rank and every recovery rerun on the caller's one pool gives
  // the same round as each rank on a pool of its own, clean or faulted.
  const auto in = dataset(60);
  resilience::FaultPlan faulted(11);
  faulted.add_device_loss(/*rank=*/1, /*after_batch=*/1);
  faulted.arm(resilience::Seam::kBadInput, 0.15);
  const resilience::FaultPlan* const plans[] = {nullptr, &faulted};
  for (const resilience::FaultPlan* plan : plans) {
    SCOPED_TRACE(plan == nullptr ? "clean" : "device_loss + bad_input");
    core::AssemblyOptions opts;
    opts.n_threads = 4;
    opts.fault_plan = plan;
    const core::LocalAssembler owner(simt::DeviceSpec::a100(), opts);
    const std::unique_ptr<core::WarpExecutionEngine> engine =
        owner.make_engine();

    const auto own = run_multi_gpu_resilient(in, a100s(3), opts, plan);
    const auto shared = run_multi_gpu_resilient(in, a100s(3), opts, plan,
                                                nullptr, engine.get());
    expect_same_extensions(shared.extensions, own.extensions);
    ASSERT_EQ(shared.ranks.size(), own.ranks.size());
    for (std::size_t r = 0; r < own.ranks.size(); ++r) {
      EXPECT_EQ(shared.ranks[r].rank, own.ranks[r].rank);
      EXPECT_EQ(shared.ranks[r].contig_ids, own.ranks[r].contig_ids);
      EXPECT_EQ(shared.ranks[r].reads, own.ranks[r].reads);
      EXPECT_EQ(shared.ranks[r].time_s, own.ranks[r].time_s);
      EXPECT_EQ(shared.ranks[r].lost, own.ranks[r].lost);
    }
    EXPECT_EQ(shared.makespan_s, own.makespan_s);
    EXPECT_EQ(shared.failures, own.failures);
    if (plan != nullptr) {
      EXPECT_EQ(own.failures.devices_lost, 1U) << "vacuous: no loss fired";
      EXPECT_GT(own.failures.tasks_quarantined, 0U)
          << "vacuous: no task fault fired";
    }
  }
}

TEST(MultiGpuResilient, RankIdsCarryPhysicalIdentities) {
  const auto in = dataset(40);
  const std::vector<std::uint32_t> rank_ids{5, 9};
  resilience::FaultPlan plan(3);
  plan.add_device_loss(/*rank=*/9, /*after_batch=*/1);
  const auto r = run_multi_gpu_resilient(in, a100s(2), {}, &plan, &rank_ids);

  // Reports, the loss and the rebalance all speak physical ids: the
  // device-loss event named rank 9 and fired on the second device.
  ASSERT_EQ(r.ranks.size(), 2U);
  EXPECT_EQ(r.ranks[0].rank, 5U);
  EXPECT_EQ(r.ranks[1].rank, 9U);
  EXPECT_FALSE(r.ranks[0].lost);
  EXPECT_TRUE(r.ranks[1].lost);
  ASSERT_EQ(r.failures.rebalances.size(), 1U);
  EXPECT_EQ(r.failures.rebalances[0].lost_rank, 9U);
  EXPECT_EQ(r.failures.rebalances[0].survivors,
            (std::vector<std::uint32_t>{5U}));

  // Results are still bit-identical to the loss-free run.
  const auto base = run_fleet(in, simt::DeviceSpec::a100(), 2);
  ASSERT_EQ(r.extensions.size(), base.extensions.size());
  for (std::size_t i = 0; i < base.extensions.size(); ++i) {
    EXPECT_EQ(r.extensions[i].left, base.extensions[i].left) << i;
    EXPECT_EQ(r.extensions[i].right, base.extensions[i].right) << i;
  }
}

}  // namespace
}  // namespace lassm::pipeline
