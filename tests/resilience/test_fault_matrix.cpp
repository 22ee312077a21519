// The fault matrix: every injection seam crossed with serial and
// multi-threaded execution. The invariants under test are the contract of
// the whole resilience tentpole:
//
//   1. an armed-but-empty plan is bit-identical to no plan at all;
//   2. every fault decision is a pure function of (seed, seam, key), so a
//      faulted run is deterministic — same numbers at 1 and N threads, and
//      across repeated runs;
//   3. retry/quarantine never changes the result of unaffected contigs;
//   4. transient faults are fully absorbed by retry (bit-identical to a
//      clean run, only the FailureReport differs).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/assembler.hpp"
#include "core/ladder.hpp"
#include "resilience/fault_plan.hpp"
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
                         const FaultPlan* plan = nullptr) {
  core::AssemblyOptions opts;
  opts.n_threads = n_threads;
  opts.fault_plan = plan;
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
  EXPECT_EQ(a.stats.totals.probes, b.stats.totals.probes);
  EXPECT_EQ(a.stats.totals.walk_steps, b.stats.totals.walk_steps);
  EXPECT_EQ(a.stats.traffic.accesses, b.stats.traffic.accesses);
  EXPECT_EQ(a.stats.traffic.l1_hits, b.stats.traffic.l1_hits);
  EXPECT_EQ(a.stats.traffic.l2_hits, b.stats.traffic.l2_hits);
  EXPECT_EQ(a.stats.traffic.hbm_read_bytes, b.stats.traffic.hbm_read_bytes);
  EXPECT_EQ(a.stats.traffic.hbm_write_bytes,
            b.stats.traffic.hbm_write_bytes);
  EXPECT_EQ(a.total_time_s, b.total_time_s);
}

void expect_same_failures(const FailureReport& a, const FailureReport& b) {
  EXPECT_EQ(a.faults.size(), b.faults.size());
  EXPECT_EQ(a.tasks_retried, b.tasks_retried);
  EXPECT_EQ(a.tasks_quarantined, b.tasks_quarantined);
  EXPECT_EQ(a.walks_aborted, b.walks_aborted);
  EXPECT_EQ(a.mem_faults, b.mem_faults);
}

TEST(FaultMatrix, EmptyArmedPlanIsBitIdenticalToNoPlan) {
  const auto in = dataset();
  const FaultPlan empty(999);  // seeded but nothing armed
  const auto clean = run(in, 1);
  for (unsigned n : {1U, 4U}) {
    SCOPED_TRACE("n_threads=" + std::to_string(n));
    const auto armed = run(in, n, &empty);
    expect_identical(clean, armed);
    EXPECT_TRUE(armed.failures.clean());
    EXPECT_FALSE(armed.device_lost);
  }
}

// Each rate-based seam, serial and 4-thread: same seed => same faults,
// same numbers, thread count invisible.
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

class FaultMatrixSeams : public ::testing::TestWithParam<SeamCase> {};

TEST_P(FaultMatrixSeams, DeterministicAcrossThreadsAndRuns) {
  const auto in = dataset();
  FaultPlan plan(1234);
  plan.arm(GetParam().seam, GetParam().rate);

  const auto serial = run(in, 1, &plan);
  const auto serial_again = run(in, 1, &plan);
  const auto threaded = run(in, 4, &plan);

  expect_identical(serial, serial_again);
  expect_same_failures(serial.failures, serial_again.failures);
  expect_identical(serial, threaded);
  expect_same_failures(serial.failures, threaded.failures);
  EXPECT_FALSE(serial.failures.clean())
      << "rate " << GetParam().rate << " on seam "
      << seam_name(GetParam().seam)
      << " fired nothing; the case is vacuous";
}

INSTANTIATE_TEST_SUITE_P(
    AllSeams, FaultMatrixSeams,
    ::testing::Values(SeamCase{Seam::kTaskException, 0.15},
                      SeamCase{Seam::kMemStall, 0.2},
                      SeamCase{Seam::kBadInput, 0.15},
                      SeamCase{Seam::kWalkHang, 0.05}),
    [](const ::testing::TestParamInfo<SeamCase>& info) {
      return std::string(seam_name(info.param.seam));
    });

TEST(FaultMatrix, TransientFaultsRecoverBitIdentical) {
  // kTaskException is transient: the retry succeeds, so the only trace of
  // the fault is the FailureReport — every modelled number matches a clean
  // run exactly.
  const auto in = dataset();
  const auto clean = run(in, 1);
  FaultPlan plan(77);
  plan.arm(Seam::kTaskException, 0.3);
  for (unsigned n : {1U, 4U}) {
    SCOPED_TRACE("n_threads=" + std::to_string(n));
    const auto faulted = run(in, n, &plan);
    expect_identical(clean, faulted);
    EXPECT_GT(faulted.failures.tasks_retried, 0U);
    EXPECT_EQ(faulted.failures.tasks_quarantined, 0U);
    for (const TaskFault& f : faulted.failures.faults) {
      EXPECT_FALSE(f.quarantined);
      EXPECT_GE(f.attempts, 2U);
    }
  }
}

TEST(FaultMatrix, QuarantineNeverTouchesUnaffectedContigs) {
  // kBadInput is persistent: retries keep failing, the task is
  // quarantined and its extension slot stays empty. Every contig side the
  // plan did NOT select must be bit-identical to the clean run.
  const auto in = dataset();
  const auto clean = run(in, 1);
  FaultPlan plan(4242);
  plan.arm(Seam::kBadInput, 0.2);

  std::size_t quarantined_sides = 0;
  for (unsigned n : {1U, 4U}) {
    SCOPED_TRACE("n_threads=" + std::to_string(n));
    const auto faulted = run(in, n, &plan);
    quarantined_sides = 0;
    for (std::size_t i = 0; i < in.contigs.size(); ++i) {
      const bool right_faulted =
          plan.fires(Seam::kBadInput, contig_fault_key(in.contigs[i].id, true));
      const bool left_faulted = plan.fires(
          Seam::kBadInput, contig_fault_key(in.contigs[i].id, false));
      if (right_faulted) {
        EXPECT_TRUE(faulted.extensions[i].right.empty()) << i;
        ++quarantined_sides;
      } else {
        EXPECT_EQ(faulted.extensions[i].right, clean.extensions[i].right)
            << i;
      }
      if (left_faulted) {
        EXPECT_TRUE(faulted.extensions[i].left.empty()) << i;
        ++quarantined_sides;
      } else {
        EXPECT_EQ(faulted.extensions[i].left, clean.extensions[i].left) << i;
      }
    }
    EXPECT_EQ(faulted.failures.tasks_quarantined, quarantined_sides);
    EXPECT_GT(quarantined_sides, 0U) << "plan selected nothing; vacuous";
  }
}

TEST(FaultMatrix, MemStallPerturbsTrafficButNotSemantics) {
  // A memsim service interruption flushes the simulated caches: the
  // extensions (semantics) cannot change, only the memory counters and the
  // modelled time.
  // The flush only perturbs traffic when it lands on a warm cache — a
  // later ladder rung re-reading what the previous rung cached. k=21 has a
  // single-rung ladder (min_mer_len is 21), so use k=33 (ladder 33 → 25)
  // and a rate high enough to guarantee hits on retried rungs.
  const auto in = dataset(33);
  const auto clean = run(in, 1);
  ASSERT_GT(clean.stats.totals.mer_retries, 0U)
      << "no task descended the ladder; the seam cannot perturb anything";
  FaultPlan plan(31337);
  plan.arm(Seam::kMemStall, 0.9);
  const auto faulted = run(in, 1, &plan);
  ASSERT_EQ(clean.extensions.size(), faulted.extensions.size());
  for (std::size_t i = 0; i < clean.extensions.size(); ++i) {
    EXPECT_EQ(clean.extensions[i].left, faulted.extensions[i].left) << i;
    EXPECT_EQ(clean.extensions[i].right, faulted.extensions[i].right) << i;
  }
  EXPECT_GT(faulted.failures.mem_faults, 0U);
  // The flush forces re-fetches: strictly more HBM read traffic.
  EXPECT_GT(faulted.stats.traffic.hbm_read_bytes,
            clean.stats.traffic.hbm_read_bytes);
}

TEST(FaultMatrix, WalkHangIsCancelledByWatchdogNotTheWallClock) {
  const auto in = dataset();
  const auto clean = run(in, 1);
  FaultPlan plan(555);
  plan.arm(Seam::kWalkHang, 0.03);
  const auto faulted = run(in, 1, &plan);
  EXPECT_GT(faulted.failures.walks_aborted, 0U) << "vacuous: nothing hung";

  // A contig side none of whose rung keys fire is untouched. Rung keys are
  // (contig_key << 8) ^ mer, and the only mers the kernel evaluates are the
  // ladder rungs for this dataset's k — sweep exactly those.
  const auto rungs = core::mer_ladder(in.kmer_len, core::AssemblyOptions{});
  const auto side_can_hang = [&](std::uint64_t contig_key) {
    for (std::uint64_t m : rungs) {
      if (plan.fires(Seam::kWalkHang, (contig_key << 8) ^ m)) return true;
    }
    return false;
  };
  std::size_t checked = 0;
  for (std::size_t i = 0; i < in.contigs.size(); ++i) {
    if (!side_can_hang(contig_fault_key(in.contigs[i].id, true))) {
      EXPECT_EQ(faulted.extensions[i].right, clean.extensions[i].right) << i;
      ++checked;
    }
    if (!side_can_hang(contig_fault_key(in.contigs[i].id, false))) {
      EXPECT_EQ(faulted.extensions[i].left, clean.extensions[i].left) << i;
      ++checked;
    }
  }
  EXPECT_GT(checked, 0U);
}

TEST(FaultMatrix, PoolStartFailureFallsBackToSerial) {
  const auto in = dataset();
  const auto clean = run(in, 1);
  FaultPlan plan(8);
  plan.arm(Seam::kPoolStart, 1.0);
  core::AssemblyOptions opts;
  opts.n_threads = 4;
  opts.fault_plan = &plan;
  const auto degraded =
      core::LocalAssembler(simt::DeviceSpec::a100(), opts).run(in);
  EXPECT_TRUE(degraded.failures.serial_fallback);
  expect_identical(clean, degraded);
}

TEST(FaultMatrix, DeviceLossStopsAfterScheduledBatch) {
  const auto in = dataset();
  const auto clean = run(in, 1);
  FaultPlan plan(6);
  plan.add_device_loss(/*rank=*/0, /*after_batch=*/1);
  core::AssemblyOptions opts;
  opts.n_threads = 1;
  opts.fault_plan = &plan;
  opts.fault_rank = 0;
  const auto lost =
      core::LocalAssembler(simt::DeviceSpec::a100(), opts).run(in);
  EXPECT_TRUE(lost.device_lost);
  EXPECT_EQ(lost.failures.devices_lost, 1U);
  EXPECT_EQ(lost.completed_batches, 1U);
  EXPECT_FALSE(lost.unfinished_contigs.empty());

  // The completed batch's work survives: a launch happened and its
  // extensions match the clean run; unfinished contigs are reported, not
  // silently dropped.
  EXPECT_GE(lost.launches.size(), 1U);
  std::vector<bool> unfinished(in.contigs.size(), false);
  for (std::uint32_t id : lost.unfinished_contigs) {
    ASSERT_LT(id, in.contigs.size());
    unfinished[id] = true;
  }

  // A different fault_rank is immune to this plan.
  opts.fault_rank = 3;
  const auto other_rank =
      core::LocalAssembler(simt::DeviceSpec::a100(), opts).run(in);
  EXPECT_FALSE(other_rank.device_lost);
  expect_identical(clean, other_rank);
}

}  // namespace
}  // namespace lassm::resilience
