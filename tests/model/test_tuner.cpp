// The autotuner's three contracts: determinism (same zoo/seed -> byte-
// identical winner table, at any host thread count), pruning soundness
// (the roofline lower bound never underestimates... i.e. never OVER-
// estimates a candidate it prunes — force-evaluated pruned configs never
// beat the winner), and golden bit-identity (the pipeline under the tuned
// configuration still matches its own serial oracle).

#include "model/tuner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/assembler.hpp"
#include "core/reference.hpp"
#include "model/study.hpp"
#include "workload/dataset.hpp"

namespace lassm::model {
namespace {

/// A Table II-shaped probe. A dozen contigs are enough: every contract
/// below is about the search, and each candidate's simulation carries a
/// per-device fixed cost (the modelled cache hierarchy) that dominates it
/// on small inputs, so the suites' time is set by the candidate count.
core::AssemblyInput probe(std::uint32_t k = 33, std::uint32_t contigs = 12,
                          std::uint64_t seed = 20240731) {
  workload::DatasetParams p = workload::table2_params(k);
  const double ratio =
      static_cast<double>(p.num_reads) / static_cast<double>(p.num_contigs);
  p.num_contigs = contigs;
  p.num_reads = static_cast<std::uint32_t>(contigs * ratio);
  return workload::generate_dataset(p, seed);
}

/// A reduced space (every protocol, knob values dropped on the other
/// axes) so the zoo-wide suites do not pay the full cross product on
/// every device.
AutoTuner::Options small_options() {
  AutoTuner::Options o;
  o.space.subgroup_widths = {0, 8};
  o.space.table_load_factors = {0.5};
  o.space.batch_budgets = {1ULL << 30};
  o.space.max_mer_rungs = {4, 2};
  return o;
}

/// The default space without its middle knob values: every axis keeps its
/// extremes, including the 1 MiB budget that exercises the launch-overhead
/// term of the pruning bound. The base configuration is always enumerated
/// first, so the dropped defaults are still evaluated once.
AutoTuner::Options edge_options() {
  AutoTuner::Options o;
  o.space.subgroup_widths = {0, 8, 32};
  o.space.table_load_factors = {0.5, 0.9};
  o.space.max_mer_rungs = {2, 6};
  return o;
}

bool same_result(const TuneResult& a, const TuneResult& b) {
  return a.cand == b.cand && a.pruned == b.pruned &&
         a.lower_bound_s == b.lower_bound_s && a.time_s == b.time_s &&
         a.gintops == b.gintops && a.arch_eff == b.arch_eff &&
         a.alg_eff == b.alg_eff && a.extension_bases == b.extension_bases;
}

TEST(Tuner, EnumerateStartsWithBaseConfigAndHasNoDuplicates) {
  const SearchSpace space;
  const core::AssemblyOptions base;
  for (const auto& dev : simt::DeviceSpec::zoo()) {
    const auto cands = space.enumerate(dev, base);
    ASSERT_FALSE(cands.empty()) << dev.name;
    // First candidate is the base configuration on the native protocol.
    EXPECT_EQ(cands[0].pm, dev.native_model) << dev.name;
    EXPECT_EQ(cands[0].subgroup_override, base.subgroup_override);
    EXPECT_EQ(cands[0].table_load_factor, base.table_load_factor);
    EXPECT_EQ(cands[0].max_mer_rungs, base.max_mer_rungs);
    for (std::size_t i = 0; i < cands.size(); ++i) {
      // No duplicates (the warp-width alias of sg=0 is filtered).
      for (std::size_t j = i + 1; j < cands.size(); ++j) {
        EXPECT_FALSE(cands[i] == cands[j])
            << dev.name << ": " << cands[i].describe();
      }
      // Every enumerated width is schedulable on this device.
      const auto opts = cands[i].apply(base);
      EXPECT_TRUE(static_cast<bool>(
          opts.validate_for_device(dev.max_subgroup())))
          << dev.name << ": " << cands[i].describe();
    }
  }
}

TEST(Tuner, DeterministicAcrossRunsAndThreadCounts) {
  const core::AssemblyInput in = probe(33, 6);
  AutoTuner::Options o1 = small_options();
  o1.space.bin_contigs = {true};
  o1.base.n_threads = 1;
  AutoTuner::Options o4 = o1;
  o4.base.n_threads = 4;

  const auto zoo = simt::DeviceSpec::zoo();
  const auto r4 = AutoTuner(o4).tune_zoo(zoo, in);
  const auto r4b = AutoTuner(o4).tune_zoo(zoo, in);
  const auto r1 = AutoTuner(o1).tune_zoo(zoo, in);
  ASSERT_EQ(r4.size(), zoo.size());
  ASSERT_EQ(r4b.size(), r4.size());
  ASSERT_EQ(r1.size(), r4.size());
  for (std::size_t i = 0; i < r4.size(); ++i) {
    // Bit-identical winner table across runs...
    EXPECT_TRUE(same_result(r4[i].winner, r4b[i].winner)) << zoo[i].name;
    EXPECT_TRUE(same_result(r4[i].def, r4b[i].def)) << zoo[i].name;
    EXPECT_EQ(r4[i].evaluated, r4b[i].evaluated);
    EXPECT_EQ(r4[i].pruned, r4b[i].pruned);
    ASSERT_EQ(r4[i].all.size(), r4b[i].all.size());
    for (std::size_t c = 0; c < r4[i].all.size(); ++c) {
      EXPECT_TRUE(same_result(r4[i].all[c], r4b[i].all[c]))
          << zoo[i].name << ": " << r4[i].all[c].cand.describe();
    }
    // ...and across host thread counts (modelled numbers are the
    // objective; n_threads only changes host-side scheduling).
    EXPECT_TRUE(same_result(r1[i].winner, r4[i].winner)) << zoo[i].name;
    EXPECT_EQ(r1[i].winner.time_s, r4[i].winner.time_s);
  }
}

TEST(Tuner, WinnerNeverLosesToDefault) {
  const core::AssemblyInput in = probe();
  const auto reports = AutoTuner(small_options())
                           .tune_zoo(simt::DeviceSpec::zoo(), in);
  for (const auto& r : reports) {
    EXPECT_LE(r.winner.time_s, r.def.time_s) << r.dev.name;
    EXPECT_GE(r.speedup(), 1.0) << r.dev.name;
    // The quality gate: tuned never assembles less than the default.
    EXPECT_GE(r.winner.extension_bases, r.def.extension_bases)
        << r.dev.name;
  }
}

TEST(Tuner, LowerBoundNeverExceedsModelledTime) {
  // The pruning bound's soundness contract, checked on every evaluated
  // candidate of the edge space on one device per vendor.
  const core::AssemblyInput in = probe();
  AutoTuner::Options o = edge_options();
  o.prune = false;  // force-evaluate everything
  const AutoTuner tuner(o);
  for (const char* slug : {"a100", "mi300x", "cpu-simd"}) {
    const simt::DeviceSpec* dev = simt::DeviceSpec::find(slug);
    ASSERT_NE(dev, nullptr);
    const DeviceTuneReport r = tuner.tune(*dev, in);
    EXPECT_EQ(r.pruned, 0U);
    for (const TuneResult& c : r.all) {
      ASSERT_FALSE(c.pruned);
      EXPECT_LE(c.lower_bound_s, c.time_s)
          << slug << ": " << c.cand.describe();
      EXPECT_GT(c.lower_bound_s, 0.0);
    }
  }
}

TEST(Tuner, PrunedCandidatesNeverBeatTheWinner) {
  // Force-evaluate the edge space without pruning, then re-run with
  // pruning: the winner must be identical, and every candidate the pruned
  // run skipped must have a (force-evaluated) time no better than the
  // winner's. At 50 contigs the 1 MiB budget splits the probe into enough
  // launches for the bound to prune; on smaller probes nothing is pruned.
  const core::AssemblyInput in = probe(33, 50);
  AutoTuner::Options pruned_opts = edge_options();  // prune = true
  AutoTuner::Options full_opts = edge_options();
  full_opts.prune = false;

  const simt::DeviceSpec* dev = simt::DeviceSpec::find("gh200");
  ASSERT_NE(dev, nullptr);
  const DeviceTuneReport pruned = AutoTuner(pruned_opts).tune(*dev, in);
  const DeviceTuneReport full = AutoTuner(full_opts).tune(*dev, in);

  EXPECT_TRUE(same_result(pruned.winner, full.winner));
  EXPECT_EQ(pruned.evaluated + pruned.pruned, full.evaluated);
  EXPECT_GT(pruned.pruned, 0U) << "vacuous: nothing was pruned";
  ASSERT_EQ(pruned.all.size(), full.all.size());
  for (std::size_t i = 0; i < pruned.all.size(); ++i) {
    ASSERT_TRUE(pruned.all[i].cand == full.all[i].cand);
    if (!pruned.all[i].pruned) continue;
    // The skipped candidate's true modelled time, from the full run.
    EXPECT_GE(full.all[i].time_s, pruned.winner.time_s)
        << full.all[i].cand.describe();
    // And the recorded bound was indeed a lower bound on it.
    EXPECT_LE(pruned.all[i].lower_bound_s, full.all[i].time_s)
        << full.all[i].cand.describe();
  }
}

TEST(Tuner, TunedConfigMatchesSerialOracle) {
  // Golden bit-identity: the kernel under every device's tuned
  // configuration still reproduces the serial CPU reference extensions.
  const core::AssemblyInput in = probe(33, 12, 7);
  const auto reports = AutoTuner(small_options())
                           .tune_zoo(simt::DeviceSpec::zoo(), in);
  for (const auto& r : reports) {
    const core::AssemblyOptions tuned =
        r.winner.cand.apply(core::AssemblyOptions{});
    core::LocalAssembler assembler(r.dev, r.winner.cand.pm, tuned);
    const core::AssemblyResult result = assembler.run(in);
    const auto ref = core::reference_extend(in, tuned);
    ASSERT_EQ(ref.size(), result.extensions.size()) << r.dev.name;
    for (std::size_t i = 0; i < ref.size(); ++i) {
      EXPECT_EQ(ref[i].left, result.extensions[i].left)
          << r.dev.name << " contig " << i;
      EXPECT_EQ(ref[i].right, result.extensions[i].right)
          << r.dev.name << " contig " << i;
    }
  }
}

TEST(Tuner, QualityGateRejectsFasterButWorseCandidates) {
  // With the gate off, a shallower ladder (fewer rungs = less retry work)
  // may win on time while assembling fewer bases; the gate keeps such
  // candidates out of the winner slot. Construct the comparison directly:
  // every gated winner must match or beat the ungated winner's bases.
  const core::AssemblyInput in = probe(55, 20, 11);  // deep-ladder k
  AutoTuner::Options gated = small_options();
  AutoTuner::Options ungated = small_options();
  ungated.require_no_quality_loss = false;

  const simt::DeviceSpec* dev = simt::DeviceSpec::find("a100");
  ASSERT_NE(dev, nullptr);
  const DeviceTuneReport g = AutoTuner(gated).tune(*dev, in);
  const DeviceTuneReport u = AutoTuner(ungated).tune(*dev, in);
  EXPECT_GE(g.winner.extension_bases, g.def.extension_bases);
  // Gating only restricts the winner pool, so the ungated winner is at
  // least as fast.
  EXPECT_LE(u.winner.time_s, g.winner.time_s);
  // The defining invariant: any evaluated candidate strictly faster than
  // the gated winner must have been rejected for assembling fewer bases —
  // otherwise it would have won.
  for (const TuneResult& c : g.all) {
    if (c.pruned) continue;
    if (c.time_s < g.winner.time_s) {
      EXPECT_LT(c.extension_bases, g.def.extension_bases)
          << c.cand.describe();
    }
  }
}

TEST(Tuner, ScorecardAggregatesReports) {
  const core::AssemblyInput in = probe();
  const auto reports = AutoTuner(small_options())
                           .tune_zoo(simt::DeviceSpec::zoo(), in);
  const Scorecard sc = portability_scorecard(reports);
  ASSERT_EQ(sc.rows.size(), reports.size());
  for (std::size_t i = 0; i < sc.rows.size(); ++i) {
    EXPECT_EQ(sc.rows[i].slug, reports[i].dev.slug);
    EXPECT_DOUBLE_EQ(sc.rows[i].speedup, reports[i].speedup());
    EXPECT_GE(sc.rows[i].speedup, 1.0);
  }
  // Harmonic-mean portability is positive and no greater than the best
  // single-device efficiency; tuning never lowers it (every device's
  // efficiency is at a no-worse configuration).
  EXPECT_GT(sc.arch_pp_default, 0.0);
  EXPECT_GT(sc.alg_pp_default, 0.0);
  EXPECT_LE(sc.arch_pp_default, 1.0);
  EXPECT_GE(sc.arch_pp_tuned, 0.0);
}

TEST(Tuner, DescribeIsStableAndComplete) {
  TuneCandidate c;
  c.pm = simt::ProgrammingModel::kHip;
  c.subgroup_override = 8;
  c.bin_contigs = false;
  c.table_load_factor = 0.9;
  c.batch_mem_budget_bytes = 1ULL << 20;
  c.max_mer_rungs = 2;
  EXPECT_EQ(c.describe(),
            "pm=HIP sg=8 bin=0 lf=0.90 budget=1048576 rungs=2");
  // apply() round-trips every knob onto the base options.
  const core::AssemblyOptions o = c.apply(core::AssemblyOptions{});
  EXPECT_EQ(o.subgroup_override, 8U);
  EXPECT_FALSE(o.bin_contigs);
  EXPECT_DOUBLE_EQ(o.table_load_factor, 0.9);
  EXPECT_EQ(o.batch_mem_budget_bytes, 1ULL << 20);
  EXPECT_EQ(o.max_mer_rungs, 2U);
}

}  // namespace
}  // namespace lassm::model
