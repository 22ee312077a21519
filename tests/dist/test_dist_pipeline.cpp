// End-to-end contract of the distributed pipeline: run_distributed is
// bit-identical to the single-rank run_pipeline oracle at every (ranks x
// threads) combination, traced or untraced, with an armed-but-empty fault
// plan — and recovers bit-identically from rank loss at every phase
// (pre-count, post-count recount, pre-round) and from device loss
// mid-round, emitting RebalanceEvents and flight-recorder incidents.

#include "dist/pipeline.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "bio/dna.hpp"
#include "bio/rng.hpp"
#include "dist/partition.hpp"
#include "pipeline/multi_gpu.hpp"
#include "resilience/fault_plan.hpp"
#include "trace/log.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"

namespace lassm::dist {
namespace {

std::string random_seq(std::uint64_t seed, std::size_t len) {
  bio::Xoshiro256 rng(seed);
  std::string s(len, 'A');
  for (char& c : s) c = bio::code_to_base(static_cast<int>(rng.below(4)));
  return s;
}

bio::ReadSet shotgun(const std::string& genome, double coverage,
                     std::uint32_t read_len, std::uint64_t seed) {
  bio::Xoshiro256 rng(seed);
  bio::ReadSet reads;
  const auto n = static_cast<std::uint64_t>(
      coverage * static_cast<double>(genome.size()) / read_len);
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t start = rng.below(genome.size() - read_len);
    reads.append(genome.substr(start, read_len), 35);
  }
  return reads;
}

const bio::ReadSet& workload_reads() {
  static const bio::ReadSet reads = [] {
    return shotgun(random_seq(31, 3000), 8.0, 100, 32);
  }();
  return reads;
}

/// Asserts the distributed result's pipeline half equals the oracle's,
/// field for field. kernel_time_s is the per-round modelled makespan over
/// the live devices, so it only matches the 1-rank oracle when the run
/// actually had one rank — pass `compare_kernel_time` accordingly.
void expect_same_pipeline(const pipeline::PipelineResult& got,
                          const pipeline::PipelineResult& want,
                          bool compare_kernel_time) {
  ASSERT_EQ(got.contigs.size(), want.contigs.size());
  for (std::size_t i = 0; i < want.contigs.size(); ++i) {
    EXPECT_EQ(got.contigs[i].id, want.contigs[i].id) << "contig " << i;
    EXPECT_EQ(got.contigs[i].seq, want.contigs[i].seq) << "contig " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.contigs[i].depth),
              std::bit_cast<std::uint64_t>(want.contigs[i].depth))
        << "contig " << i << " depth";
  }
  EXPECT_EQ(got.dbg.nodes, want.dbg.nodes);
  EXPECT_EQ(got.dbg.forks, want.dbg.forks);
  EXPECT_EQ(got.dbg.dead_ends, want.dbg.dead_ends);
  EXPECT_EQ(got.dbg.contigs, want.dbg.contigs);
  EXPECT_EQ(got.kmers_total, want.kmers_total);
  EXPECT_EQ(got.kmers_filtered, want.kmers_filtered);
  ASSERT_EQ(got.iterations.size(), want.iterations.size());
  for (std::size_t i = 0; i < want.iterations.size(); ++i) {
    SCOPED_TRACE("iteration " + std::to_string(i));
    EXPECT_EQ(got.iterations[i].k, want.iterations[i].k);
    EXPECT_EQ(got.iterations[i].contigs, want.iterations[i].contigs);
    EXPECT_EQ(got.iterations[i].total_bases, want.iterations[i].total_bases);
    EXPECT_EQ(got.iterations[i].n50, want.iterations[i].n50);
    EXPECT_EQ(got.iterations[i].mapped_reads,
              want.iterations[i].mapped_reads);
    EXPECT_EQ(got.iterations[i].extension_bases,
              want.iterations[i].extension_bases);
    if (compare_kernel_time) {
      EXPECT_EQ(
          std::bit_cast<std::uint64_t>(got.iterations[i].kernel_time_s),
          std::bit_cast<std::uint64_t>(want.iterations[i].kernel_time_s));
    }
  }
}

pipeline::PipelineOptions base_options(unsigned n_threads = 1) {
  pipeline::PipelineOptions opts;
  opts.k_iterations = {21};
  opts.assembly.n_threads = static_cast<int>(n_threads);
  return opts;
}

std::uint64_t count_flight_incidents(const char* event) {
  std::uint64_t n = 0;
  for (const auto& rec : lassm::log::Logger::instance().flight()) {
    if (rec.module == "incident" && rec.event == event) ++n;
  }
  return n;
}

TEST(DistPipeline, MatchesOracleAcrossRanksAndThreads) {
  const bio::ReadSet& reads = workload_reads();
  const auto device = simt::DeviceSpec::a100();
  const pipeline::PipelineResult oracle =
      pipeline::run_pipeline(reads, device, base_options());
  ASSERT_FALSE(oracle.contigs.empty());

  for (const std::uint32_t ranks : {1u, 2u, 4u, 8u}) {
    for (const unsigned threads : {1u, 4u}) {
      SCOPED_TRACE("ranks=" + std::to_string(ranks) +
                   " threads=" + std::to_string(threads));
      DistOptions opts;
      opts.ranks = ranks;
      opts.pipeline = base_options(threads);
      const DistResult r = run_distributed(reads, device, opts);
      expect_same_pipeline(r.pipeline, oracle,
                           /*compare_kernel_time=*/ranks == 1);

      // Rank accounting: the live ranks partition the reads and shards.
      ASSERT_EQ(r.ranks.size(), ranks);
      std::uint64_t reads_sum = 0;
      std::uint64_t kmers_sum = 0;
      std::uint64_t shards_sum = 0;
      for (const DistRankReport& rep : r.ranks) {
        EXPECT_FALSE(rep.lost);
        reads_sum += rep.reads;
        kmers_sum += rep.kmers;
        shards_sum += rep.shards;
      }
      EXPECT_EQ(reads_sum, reads.size());
      EXPECT_EQ(kmers_sum, r.pipeline.kmers_total);
      EXPECT_EQ(shards_sum, ShardMap::kShards);

      // Traffic: one rank is loopback-only; more ranks pay for remote
      // inserts, probes and walk handoffs, and the analytic insert model
      // tracks the measured count.
      EXPECT_EQ(r.count_remote_msgs == 0, ranks == 1);
      EXPECT_EQ(r.traffic.msgs == 0, ranks == 1);
      if (ranks > 1) {
        EXPECT_GT(r.traffic.flushes, 0U);
        EXPECT_GT(r.network_s, 0.0);
        EXPECT_NEAR(static_cast<double>(r.count_remote_msgs),
                    r.count_remote_msgs_model,
                    r.count_remote_msgs_model * 0.05);
      } else {
        EXPECT_DOUBLE_EQ(r.network_s, 0.0);
      }
      EXPECT_TRUE(r.failures.clean()) << r.failures.summary();
    }
  }
}

TEST(DistPipeline, TracedAndArmedEmptyRunsAreBitIdentical) {
  const bio::ReadSet& reads = workload_reads();
  const auto device = simt::DeviceSpec::a100();
  DistOptions opts;
  opts.ranks = 4;
  opts.pipeline = base_options(4);
  const DistResult baseline = run_distributed(reads, device, opts);

  // Armed-but-empty plan (a seed but no seams): the contract case.
  resilience::FaultPlan plan(123);
  ASSERT_TRUE(plan.empty());
  trace::Tracer tracer;
  DistOptions traced = opts;
  traced.pipeline.assembly.trace = &tracer;
  traced.pipeline.assembly.fault_plan = &plan;
  std::ostringstream log;
  const DistResult r = run_distributed(reads, device, traced, &log);

  expect_same_pipeline(r.pipeline, baseline.pipeline,
                       /*compare_kernel_time=*/true);
  EXPECT_EQ(r.traffic.msgs, baseline.traffic.msgs);
  EXPECT_EQ(r.traffic.bytes, baseline.traffic.bytes);
  EXPECT_EQ(r.traffic.flushes, baseline.traffic.flushes);
  EXPECT_EQ(r.traffic.drops, 0U);

  // The trace carries the dist counters and the network-seconds gauge.
  auto& m = tracer.metrics();
  EXPECT_EQ(m.counter(trace::names::kDistMsgs).value(), r.traffic.msgs);
  EXPECT_EQ(m.counter(trace::names::kDistBytes).value(), r.traffic.bytes);
  EXPECT_EQ(m.counter(trace::names::kDistFlushes).value(),
            r.traffic.flushes);
  EXPECT_DOUBLE_EQ(m.gauge(trace::names::kDistNetworkSeconds).value(),
                   r.network_s);
  EXPECT_NE(log.str().find("[dist] k-mer analysis"), std::string::npos);
  EXPECT_NE(log.str().find("[dist] traffic:"), std::string::npos);
}

TEST(DistPipeline, LogStreamIsThreadCountInvariant) {
  const bio::ReadSet& reads = workload_reads();
  const auto device = simt::DeviceSpec::a100();
  std::string first;
  for (const unsigned threads : {1u, 4u}) {
    DistOptions opts;
    opts.ranks = 4;
    opts.pipeline = base_options(threads);
    std::ostringstream log;
    run_distributed(reads, device, opts, &log);
    if (first.empty()) {
      first = log.str();
    } else {
      EXPECT_EQ(log.str(), first);
    }
  }
}

TEST(DistPipeline, PreCountRankLossRecoversBitIdentically) {
  const bio::ReadSet& reads = workload_reads();
  const auto device = simt::DeviceSpec::a100();
  const pipeline::PipelineResult oracle =
      pipeline::run_pipeline(reads, device, base_options());

  // rank_loss at rate 1.0 fires for every rank at phase 0 and kills all
  // but the guarded last survivor before any work happens.
  resilience::FaultPlan plan(1);
  plan.arm(resilience::Seam::kRankLoss, 1.0);

  DistOptions opts;
  opts.ranks = 4;
  opts.pipeline = base_options();
  opts.pipeline.assembly.fault_plan = &plan;
  const DistResult r = run_distributed(reads, device, opts);

  expect_same_pipeline(r.pipeline, oracle, /*compare_kernel_time=*/true);
  EXPECT_EQ(r.failures.rebalances.size(), 3U);
  EXPECT_EQ(r.failures.devices_lost, 3U);
  EXPECT_GE(count_flight_incidents("rank_lost"), 3U);
  std::uint32_t survivors = 0;
  for (const DistRankReport& rep : r.ranks) {
    if (!rep.lost) {
      ++survivors;
      EXPECT_EQ(rep.shards, ShardMap::kShards);
    } else {
      EXPECT_EQ(rep.shards, 0U);
    }
  }
  EXPECT_EQ(survivors, 1U);
}

/// Finds a plan seed whose rank_loss seam fires for at least one of
/// `ranks` ranks at phase `phase` and for none at the earlier phases —
/// pinning the recovery path under test. Deterministic: the scan order is
/// fixed, so the same seed comes out every run.
resilience::FaultPlan plan_with_loss_at_phase(std::uint32_t phase,
                                              std::uint32_t ranks,
                                              double rate = 0.25) {
  for (std::uint64_t seed = 1; seed < 10'000; ++seed) {
    resilience::FaultPlan plan(seed);
    plan.arm(resilience::Seam::kRankLoss, rate);
    bool early = false;
    for (std::uint32_t p = 0; p < phase && !early; ++p) {
      for (std::uint32_t r = 0; r < ranks; ++r) {
        const std::uint64_t key = (static_cast<std::uint64_t>(p) << 32) | r;
        early |= plan.fires(resilience::Seam::kRankLoss, key);
      }
    }
    if (early) continue;
    for (std::uint32_t r = 0; r < ranks; ++r) {
      const std::uint64_t key = (static_cast<std::uint64_t>(phase) << 32) | r;
      if (plan.fires(resilience::Seam::kRankLoss, key)) return plan;
    }
  }
  ADD_FAILURE() << "no seed found for phase " << phase;
  return resilience::FaultPlan(0);
}

TEST(DistPipeline, PostCountRankLossRecountsOrphanedShards) {
  const bio::ReadSet& reads = workload_reads();
  const auto device = simt::DeviceSpec::a100();
  const pipeline::PipelineResult oracle =
      pipeline::run_pipeline(reads, device, base_options());

  const resilience::FaultPlan plan = plan_with_loss_at_phase(1, 4);
  DistOptions opts;
  opts.ranks = 4;
  opts.pipeline = base_options();
  opts.pipeline.assembly.fault_plan = &plan;
  std::ostringstream log;
  const DistResult r = run_distributed(reads, device, opts, &log);

  expect_same_pipeline(r.pipeline, oracle, /*compare_kernel_time=*/false);
  ASSERT_FALSE(r.failures.rebalances.empty());
  // The seed was chosen so nothing fires before phase 1; later phases may
  // fire too, so require at least one post-count event rather than all.
  bool post_count = false;
  for (const resilience::RebalanceEvent& ev : r.failures.rebalances) {
    EXPECT_GE(ev.after_batch, 1U);
    EXPECT_GT(ev.moved_contigs, 0U);
    EXPECT_FALSE(ev.survivors.empty());
    post_count |= ev.after_batch == 1U;
  }
  EXPECT_TRUE(post_count);
  EXPECT_NE(log.str().find("recounted orphaned shards"), std::string::npos);
  // The recount restores the full k-mer census.
  EXPECT_EQ(r.pipeline.kmers_total, oracle.kmers_total);
}

TEST(DistPipeline, PreRoundRankLossRecoversAcrossRounds) {
  const bio::ReadSet& reads = workload_reads();
  const auto device = simt::DeviceSpec::a100();
  pipeline::PipelineOptions popts = base_options();
  popts.k_iterations = {21, 33};
  const pipeline::PipelineResult oracle =
      pipeline::run_pipeline(reads, device, popts);

  // Phase 3 = second k-round: the first round runs with all ranks, the
  // loss happens between rounds, the second round with the survivors.
  const resilience::FaultPlan plan = plan_with_loss_at_phase(3, 4);
  DistOptions opts;
  opts.ranks = 4;
  opts.pipeline = popts;
  opts.pipeline.assembly.fault_plan = &plan;
  const DistResult r = run_distributed(reads, device, opts);

  expect_same_pipeline(r.pipeline, oracle, /*compare_kernel_time=*/false);
  ASSERT_FALSE(r.failures.rebalances.empty());
  EXPECT_EQ(r.failures.rebalances.front().after_batch, 3U);
  bool any_lost = false;
  for (const DistRankReport& rep : r.ranks) any_lost |= rep.lost;
  EXPECT_TRUE(any_lost);
}

TEST(DistPipeline, MidRoundDeviceLossAdoptsShardsForLaterRounds) {
  const bio::ReadSet& reads = workload_reads();
  const auto device = simt::DeviceSpec::a100();
  pipeline::PipelineOptions popts = base_options();
  popts.k_iterations = {21, 33};
  const pipeline::PipelineResult oracle =
      pipeline::run_pipeline(reads, device, popts);

  resilience::FaultPlan plan(5);
  plan.add_device_loss(/*rank=*/1, /*after_batch=*/1);

  DistOptions opts;
  opts.ranks = 4;
  opts.pipeline = popts;
  opts.pipeline.assembly.fault_plan = &plan;
  const DistResult r = run_distributed(reads, device, opts);

  expect_same_pipeline(r.pipeline, oracle, /*compare_kernel_time=*/false);
  EXPECT_TRUE(r.ranks[1].lost);
  EXPECT_EQ(r.ranks[1].shards, 0U);
  // One device lost, counted once: run_multi_gpu_resilient records the
  // loss and the contig rebalance; the dist driver records the shard
  // adoption incident on top.
  EXPECT_EQ(r.failures.devices_lost, 1U);
  ASSERT_FALSE(r.failures.rebalances.empty());
  EXPECT_EQ(r.failures.rebalances.front().lost_rank, 1U);
  EXPECT_GE(count_flight_incidents("rank_lost"), 1U);
  std::uint64_t shards_sum = 0;
  for (const DistRankReport& rep : r.ranks) shards_sum += rep.shards;
  EXPECT_EQ(shards_sum, ShardMap::kShards);
}

TEST(DistPipeline, OneLiveRankRoundRunsAsTheSurvivor) {
  // device_loss=0@1 on 2 ranks: rank 0 dies mid-round at k=21, so rank 1
  // runs k=33 alone. That round runs as rank 1, so the plan's rank-0 loss
  // does not fire a second time on the survivor.
  const bio::ReadSet& reads = workload_reads();
  const auto device = simt::DeviceSpec::a100();
  pipeline::PipelineOptions popts = base_options();
  popts.k_iterations = {21, 33};
  const pipeline::PipelineResult clean =
      pipeline::run_pipeline(reads, device, popts);

  resilience::FaultPlan plan(11);
  plan.add_device_loss(/*rank=*/0, /*after_batch=*/1);
  DistOptions opts;
  opts.ranks = 2;
  opts.pipeline = popts;
  opts.pipeline.assembly.fault_plan = &plan;
  const DistResult r = run_distributed(reads, device, opts);

  expect_same_pipeline(r.pipeline, clean, /*compare_kernel_time=*/false);
  EXPECT_TRUE(r.ranks[0].lost);
  EXPECT_FALSE(r.ranks[1].lost);
  EXPECT_EQ(r.failures.devices_lost, 1U);
  ASSERT_EQ(r.failures.rebalances.size(), 1U);
  EXPECT_EQ(r.failures.rebalances.front().lost_rank, 0U);
}

TEST(DistPipeline, SingleDeviceLossRecoversInBothDrivers) {
  // device_loss=0@1 drops the one device after its first launch in every
  // round. Both drivers rerun the unfinished contigs under the recovery
  // rank and splice them in, so contigs and extension bases match a clean
  // run; the recovery's modelled time adds to the round's kernel time.
  const bio::ReadSet& reads = workload_reads();
  const auto device = simt::DeviceSpec::a100();
  pipeline::PipelineOptions popts = base_options();
  popts.k_iterations = {21, 33};
  const pipeline::PipelineResult clean =
      pipeline::run_pipeline(reads, device, popts);

  resilience::FaultPlan plan(7);
  plan.add_device_loss(/*rank=*/0, /*after_batch=*/1);
  pipeline::PipelineOptions lossy = popts;
  lossy.assembly.fault_plan = &plan;

  const pipeline::PipelineResult single =
      pipeline::run_pipeline(reads, device, lossy);
  expect_same_pipeline(single, clean, /*compare_kernel_time=*/false);

  DistOptions opts;
  opts.ranks = 1;
  opts.pipeline = lossy;
  const DistResult r = run_distributed(reads, device, opts);
  expect_same_pipeline(r.pipeline, clean, /*compare_kernel_time=*/false);
  for (std::size_t i = 0; i < clean.iterations.size(); ++i) {
    EXPECT_GT(r.pipeline.iterations[i].kernel_time_s, 0.0);
    EXPECT_EQ(
        std::bit_cast<std::uint64_t>(r.pipeline.iterations[i].kernel_time_s),
        std::bit_cast<std::uint64_t>(single.iterations[i].kernel_time_s));
  }
  // One loss and one rebalance onto the recovery rank per round.
  EXPECT_EQ(r.failures.devices_lost, popts.k_iterations.size());
  ASSERT_EQ(r.failures.rebalances.size(), popts.k_iterations.size());
  for (const resilience::RebalanceEvent& ev : r.failures.rebalances) {
    EXPECT_EQ(ev.lost_rank, 0U);
    EXPECT_EQ(ev.after_batch, 1U);
    EXPECT_GT(ev.moved_contigs, 0U);
    EXPECT_EQ(ev.survivors,
              (std::vector<std::uint32_t>{pipeline::kRecoveryRank}));
  }
  EXPECT_FALSE(r.ranks[0].lost);
}

TEST(DistPipeline, ReferencePathMatchesOracleToo) {
  const bio::ReadSet& reads = workload_reads();
  const auto device = simt::DeviceSpec::a100();
  pipeline::PipelineOptions popts = base_options();
  popts.use_reference = true;
  const pipeline::PipelineResult oracle =
      pipeline::run_pipeline(reads, device, popts);

  for (const std::uint32_t ranks : {2u, 4u}) {
    SCOPED_TRACE("ranks=" + std::to_string(ranks));
    DistOptions opts;
    opts.ranks = ranks;
    opts.pipeline = popts;
    const DistResult r = run_distributed(reads, device, opts);
    expect_same_pipeline(r.pipeline, oracle, /*compare_kernel_time=*/true);
  }
}

// Weak scaling (the workload of bench_paper's distributed section): the
// genome, and with it the k-mer load, grows with the fleet. At every fleet
// size the two-level hash partition must keep the per-rank k-mer spread
// within 10% of the mean, and the measured remote-insert traffic must stay
// within 5% of the analytic (R-1)/R model.
TEST(DistPipeline, WeakScalingKeepsPartitionAndTrafficBars) {
  const auto device = simt::DeviceSpec::a100();
  for (const std::uint32_t ranks : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE("ranks=" + std::to_string(ranks));
    const bio::ReadSet reads =
        shotgun(random_seq(31, 1500 * ranks), 8.0, 100, 32 + ranks);
    DistOptions opts;
    opts.ranks = ranks;
    opts.pipeline = base_options();
    const DistResult r = run_distributed(reads, device, opts);
    ASSERT_EQ(r.ranks.size(), ranks);
    if (ranks == 1) continue;

    std::uint64_t kmers = 0, kmin = UINT64_MAX, kmax = 0;
    for (const DistRankReport& rep : r.ranks) {
      kmers += rep.kmers;
      kmin = std::min(kmin, rep.kmers);
      kmax = std::max(kmax, rep.kmers);
    }
    const double mean =
        static_cast<double>(kmers) / static_cast<double>(ranks);
    ASSERT_GT(mean, 0.0);
    EXPECT_LE(100.0 * static_cast<double>(kmax - kmin) / mean, 10.0);

    ASSERT_GT(r.count_remote_msgs_model, 0.0);
    EXPECT_LE(100.0 *
                  std::abs(static_cast<double>(r.count_remote_msgs) -
                           r.count_remote_msgs_model) /
                  r.count_remote_msgs_model,
              5.0);
  }
}

// ---------------------------------------------------------------------------
// Ground truth. With error-free reads of a known community, every final
// contig (DBG contig plus every round's extensions) must be a substring of
// some genome or of its reverse complement, whichever driver, thread count
// or rank count assembled it.

struct Community {
  std::vector<std::string> genomes;
  bio::ReadSet reads;
};

/// Four species of 4-12 kb each, log-normally skewed abundances, and
/// error-free 130 bp shotgun reads sampled by abundance x length at
/// `coverage` over the whole community.
Community error_free_community(std::uint64_t seed, double coverage) {
  constexpr std::uint32_t kSpecies = 4;
  constexpr std::uint32_t kReadLen = 130;
  bio::Xoshiro256 rng(seed);
  Community c;
  std::vector<double> weight;
  double total_weight = 0.0;
  std::uint64_t total_bases = 0;
  for (std::uint32_t i = 0; i < kSpecies; ++i) {
    c.genomes.push_back(random_seq(rng.next(), 4000 + rng.below(8000)));
    const double len = static_cast<double>(c.genomes.back().size());
    weight.push_back(std::exp(rng.gaussian() * 0.7) * len);
    total_weight += weight.back();
    total_bases += c.genomes.back().size();
  }
  const auto n_reads = static_cast<std::uint64_t>(
      coverage * static_cast<double>(total_bases) / kReadLen);
  for (std::uint64_t r = 0; r < n_reads; ++r) {
    double x = rng.uniform() * total_weight;
    std::uint32_t i = 0;
    while (i + 1 < kSpecies && x > weight[i]) x -= weight[i++];
    const std::string& g = c.genomes[i];
    c.reads.append(g.substr(rng.below(g.size() - kReadLen), kReadLen), 35);
  }
  return c;
}

void expect_contigs_in_genomes(const pipeline::PipelineResult& r,
                               const Community& c) {
  std::vector<std::string> strands;
  for (const std::string& g : c.genomes) {
    strands.push_back(g);
    strands.push_back(bio::reverse_complement(g));
  }
  ASSERT_FALSE(r.contigs.empty());
  for (const bio::Contig& contig : r.contigs) {
    const bool found =
        std::any_of(strands.begin(), strands.end(), [&](const std::string& s) {
          return s.find(contig.seq) != std::string::npos;
        });
    EXPECT_TRUE(found) << "contig " << contig.id << " (" << contig.seq.size()
                       << " bp) occurs in no genome strand";
  }
  std::uint64_t extended = 0;
  for (const pipeline::IterationReport& it : r.iterations) {
    extended += it.extension_bases;
  }
  EXPECT_GT(extended, 0U) << "vacuous: no round extended any contig";
}

TEST(GroundTruth, ErrorFreeCommunityAssemblesOnlyGenomeSequence) {
  const Community c = error_free_community(2024, 12.0);
  const auto device = simt::DeviceSpec::a100();
  for (const unsigned threads : {1u, 4u}) {
    pipeline::PipelineOptions opts;
    opts.assembly.n_threads = threads;
    {
      SCOPED_TRACE("run_pipeline threads=" + std::to_string(threads));
      expect_contigs_in_genomes(pipeline::run_pipeline(c.reads, device, opts),
                                c);
    }
    {
      SCOPED_TRACE("run_distributed ranks=4 threads=" +
                   std::to_string(threads));
      DistOptions dopts;
      dopts.ranks = 4;
      dopts.pipeline = opts;
      expect_contigs_in_genomes(
          run_distributed(c.reads, device, dopts).pipeline, c);
    }
  }
}

// ---------------------------------------------------------------------------
// Driver skeleton. run_pipeline and run_distributed share one stage loop;
// the log hashes and the prior tree hashes were recorded before they did,
// so the merge provably left unchanged what a caller observes of either
// driver: the log stream, the stage events on the driver's own track (in
// order) and the counter attribution tree (names, parents and every
// CounterVector total, the dist_msgs / dist_bytes traffic fields
// included). The stage spans later added the kmer_count, kmer_filter and
// align nodes (and their events, plus an event for each "assembly" node);
// the prior hash is taken over the tree without them, with parents
// renumbered, so it still pins every older node exactly.

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

struct Skeleton {
  std::uint64_t log_hash = 0;
  std::vector<std::string> stages;  ///< complete events on the driver track
  std::size_t tree_nodes = 0;
  std::uint64_t tree_hash = 0;      ///< names, parents, every total
  std::size_t prior_nodes = 0;      ///< the tree without the span layers
  std::uint64_t prior_tree_hash = 0;
  trace::CounterVector root;        ///< the root node's total
};

bool is_span_layer(const std::string& name) {
  return name == "kmer_count" || name == "kmer_filter" || name == "align";
}

/// Hashes the nodes `keep` accepts, in arena order, with each parent
/// renumbered to its index among the kept nodes.
template <typename Keep>
std::uint64_t hash_tree(const std::vector<trace::AttributionNode>& nodes,
                        Keep keep, std::size_t* kept) {
  std::vector<std::int32_t> index(nodes.size(), -1);
  std::int32_t next = 0;
  std::uint64_t h = kFnvBasis;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const trace::AttributionNode& n = nodes[i];
    if (!keep(n)) continue;
    index[i] = next++;
    const std::int32_t parent = n.parent < 0 ? -1 : index[n.parent];
    EXPECT_EQ(parent < 0, n.parent < 0) << n.name << "'s parent was dropped";
    h = fnv1a(h, n.name.data(), n.name.size());
    h = fnv1a(h, &parent, sizeof parent);
    for (const auto& f : trace::CounterVector::fields()) {
      const std::uint64_t v = n.total.*f.member;
      h = fnv1a(h, &v, sizeof v);
    }
    const auto t = std::bit_cast<std::uint64_t>(n.total.sim_time_s);
    h = fnv1a(h, &t, sizeof t);
  }
  *kept = static_cast<std::size_t>(next);
  return h;
}

Skeleton skeleton_of(const trace::Tracer& tracer, const std::string& log,
                     const char* driver_thread) {
  Skeleton s;
  s.log_hash = fnv1a(kFnvBasis, log.data(), log.size());
  const std::vector<trace::TrackInfo> tracks = tracer.tracks();
  std::uint32_t driver = UINT32_MAX;
  for (std::uint32_t t = 0; t < tracks.size(); ++t) {
    if (tracks[t].process == "host" && tracks[t].thread == driver_thread) {
      driver = t;
    }
  }
  EXPECT_NE(driver, UINT32_MAX) << "no driver track " << driver_thread;
  for (const trace::Event& e : tracer.events()) {
    if (e.track == driver && e.kind == trace::Event::Kind::kComplete) {
      s.stages.push_back(e.name);
    }
  }
  const auto& nodes = tracer.attribution().nodes();
  s.tree_hash = hash_tree(
      nodes, [](const trace::AttributionNode&) { return true; },
      &s.tree_nodes);
  s.prior_tree_hash = hash_tree(
      nodes,
      [](const trace::AttributionNode& n) { return !is_span_layer(n.name); },
      &s.prior_nodes);
  if (!nodes.empty()) s.root = nodes.front().total;
  return s;
}

pipeline::PipelineOptions skeleton_options(unsigned threads) {
  pipeline::PipelineOptions opts = base_options(threads);
  opts.k_iterations = {21, 33};
  return opts;
}

TEST(DriverSkeleton, RunPipelineIsPinned) {
  // run_pipeline's driver track is shared with its assembler's launches.
  const std::vector<std::string> stages{
      "kmer_count",           "kmer_filter",          "kmer_analysis",
      "contig_generation",    "align",                "launch right batch 0",
      "launch right batch 1", "side right",           "launch left batch 0",
      "launch left batch 1",  "side left",            "assembly",
      "k-round 21",           "align",                "launch right batch 0",
      "launch right batch 1", "launch right batch 2", "side right",
      "launch left batch 0",  "launch left batch 1",  "launch left batch 2",
      "side left",            "assembly",             "k-round 33",
      "pipeline"};
  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    trace::Tracer tracer;
    pipeline::PipelineOptions opts = skeleton_options(threads);
    opts.assembly.trace = &tracer;
    std::ostringstream log;
    pipeline::run_pipeline(workload_reads(), simt::DeviceSpec::a100(), opts,
                           &log);
    const Skeleton s = skeleton_of(tracer, log.str(), "driver");
    EXPECT_EQ(s.log_hash, 0x076d87d0dbb6eff9ULL) << log.str();
    EXPECT_EQ(s.stages, stages);
    EXPECT_EQ(s.tree_nodes, 25U);
    EXPECT_EQ(s.tree_hash, 0x372e48eda6334e18ULL);
    EXPECT_EQ(s.prior_nodes, 21U);
    EXPECT_EQ(s.prior_tree_hash, 0x621427ebc4e50f3bULL);
    EXPECT_EQ(s.root.dist_msgs, 0U);
    EXPECT_EQ(s.root.dist_bytes, 0U);
  }
}

TEST(DriverSkeleton, RunDistributedIsPinned) {
  // Both drivers share the "driver" track: each live rank's assembler
  // (four per round here) nests its launch, side and assembly spans inside
  // the round's span, as run_pipeline's one assembler does.
  const std::vector<std::string> stages{
      "kmer_count", "kmer_filter", "kmer_analysis", "contig_generation",
      "align",
      "launch right batch 0", "side right", "launch left batch 0",
      "side left", "assembly",
      "launch right batch 0", "side right", "launch left batch 0",
      "side left", "assembly",
      "launch right batch 0", "side right", "assembly",
      "launch right batch 0", "side right", "assembly",
      "k-round 21", "align",
      "launch right batch 0", "side right", "assembly",
      "launch right batch 0", "side right", "launch left batch 0",
      "side left", "assembly",
      "launch right batch 0", "side right", "assembly",
      "launch right batch 0", "side right", "assembly",
      "k-round 33", "dist_pipeline"};
  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    trace::Tracer tracer;
    DistOptions opts;
    opts.ranks = 4;
    opts.pipeline = skeleton_options(threads);
    opts.pipeline.assembly.trace = &tracer;
    std::ostringstream log;
    run_distributed(workload_reads(), simt::DeviceSpec::a100(), opts, &log);
    const Skeleton s = skeleton_of(tracer, log.str(), "driver");
    EXPECT_EQ(s.log_hash, 0xf73694135fed0f81ULL) << log.str();
    EXPECT_EQ(s.stages, stages);
    EXPECT_EQ(s.tree_nodes, 39U);
    EXPECT_EQ(s.tree_hash, 0xe21fcfa295a3c214ULL);
    EXPECT_EQ(s.prior_nodes, 35U);
    EXPECT_EQ(s.prior_tree_hash, 0x2caedd659e49fa63ULL);
    EXPECT_EQ(s.root.dist_msgs, 63720U);
    EXPECT_EQ(s.root.dist_bytes, 2893932U);
  }
}

// ---------------------------------------------------------------------------
// Host time on the tree. Every span's node carries its driver-thread wall
// time: a node's covers its children's, the four layer nodes are timed, and
// the root fits inside the caller's own clock bracket around the call.

// Nested clock reads bracket each other exactly; the slack only absorbs
// the rounding of the double-valued differences.
constexpr double kClockSlackS = 1e-9;

void expect_host_time_nests(const trace::Tracer& tracer, double bracket_s) {
  const auto& nodes = tracer.attribution().nodes();
  ASSERT_FALSE(nodes.empty());
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    EXPECT_GE(trace::self_host_s(nodes, i), -kClockSlackS) << nodes[i].name;
  }
  for (const char* layer :
       {"kmer_count", "kmer_filter", "contig_generation", "align"}) {
    bool seen = false;
    for (const trace::AttributionNode& n : nodes) {
      if (n.name != layer) continue;
      seen = true;
      EXPECT_GT(n.host_s, 0.0) << layer;
    }
    EXPECT_TRUE(seen) << layer;
  }
  EXPECT_EQ(nodes.front().parent, -1);
  EXPECT_GT(nodes.front().host_s, 0.0);
  EXPECT_LE(nodes.front().host_s, bracket_s + kClockSlackS);
}

TEST(DriverHostTime, NodesNestAndTheRootFitsTheCallersBracket) {
  using Clock = std::chrono::steady_clock;
  const auto seconds_since = [](Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    {
      trace::Tracer tracer;
      pipeline::PipelineOptions opts = skeleton_options(threads);
      opts.assembly.trace = &tracer;
      const Clock::time_point t0 = Clock::now();
      pipeline::run_pipeline(workload_reads(), simt::DeviceSpec::a100(),
                             opts);
      const double bracket_s = seconds_since(t0);
      SCOPED_TRACE("run_pipeline");
      expect_host_time_nests(tracer, bracket_s);
    }
    {
      trace::Tracer tracer;
      DistOptions opts;
      opts.ranks = 4;
      opts.pipeline = skeleton_options(threads);
      opts.pipeline.assembly.trace = &tracer;
      const Clock::time_point t0 = Clock::now();
      run_distributed(workload_reads(), simt::DeviceSpec::a100(), opts);
      const double bracket_s = seconds_since(t0);
      SCOPED_TRACE("run_distributed");
      expect_host_time_nests(tracer, bracket_s);
    }
  }
}

}  // namespace
}  // namespace lassm::dist
