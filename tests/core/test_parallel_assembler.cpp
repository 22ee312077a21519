// The parallel execution engine's contract: host thread count is purely a
// throughput knob — extensions, merged counters, per-warp cycle streams,
// traffic and modelled time are bit-identical to the serial oracle path
// (n_threads = 1) for every pool size and every steal interleaving.

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/assembler.hpp"
#include "core/exec.hpp"
#include "core/kernel.hpp"
#include "core/ladder.hpp"
#include "core/reference.hpp"
#include "resilience/fault_plan.hpp"
#include "trace/trace.hpp"
#include "memsim/tiered.hpp"
#include "workload/dataset.hpp"

namespace lassm::core {
namespace {

AssemblyInput dataset(std::uint32_t k = 21, std::uint32_t contigs = 60,
                      std::uint64_t seed = 42) {
  workload::DatasetParams p = workload::table2_params(k);
  const double ratio =
      static_cast<double>(p.num_reads) / static_cast<double>(p.num_contigs);
  p.num_contigs = contigs;
  p.num_reads = static_cast<std::uint32_t>(contigs * ratio);
  return workload::generate_dataset(p, seed);
}

AssemblyResult run_with_threads(const AssemblyInput& in, unsigned n_threads,
                                simt::DeviceSpec dev = simt::DeviceSpec::a100()) {
  AssemblyOptions opts;
  opts.n_threads = n_threads;
  return LocalAssembler(std::move(dev), opts).run(in);
}

void expect_identical(const AssemblyResult& serial,
                      const AssemblyResult& parallel) {
  // Extensions bit-identical, slot by slot.
  ASSERT_EQ(serial.extensions.size(), parallel.extensions.size());
  for (std::size_t i = 0; i < serial.extensions.size(); ++i) {
    EXPECT_EQ(serial.extensions[i].left, parallel.extensions[i].left) << i;
    EXPECT_EQ(serial.extensions[i].right, parallel.extensions[i].right) << i;
    EXPECT_EQ(serial.extensions[i].left_mer_len,
              parallel.extensions[i].left_mer_len) << i;
    EXPECT_EQ(serial.extensions[i].right_mer_len,
              parallel.extensions[i].right_mer_len) << i;
  }

  // Merged warp counters, field by field.
  const simt::WarpCounters& a = serial.stats.totals;
  const simt::WarpCounters& b = parallel.stats.totals;
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.intops, b.intops);
  EXPECT_EQ(a.issue_slots, b.issue_slots);
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.probes, b.probes);
  EXPECT_EQ(a.insertions, b.insertions);
  EXPECT_EQ(a.walk_steps, b.walk_steps);
  EXPECT_EQ(a.atomics, b.atomics);
  EXPECT_EQ(a.mer_retries, b.mer_retries);

  // The per-warp cycle stream in scheduling order (feeds the wave model).
  EXPECT_EQ(serial.stats.warp_cycles, parallel.stats.warp_cycles);
  EXPECT_EQ(serial.stats.num_warps, parallel.stats.num_warps);
  EXPECT_EQ(serial.stats.num_kernel_launches,
            parallel.stats.num_kernel_launches);

  // Memory-system stats, field by field.
  const memsim::TrafficStats& s = serial.stats.traffic;
  const memsim::TrafficStats& t = parallel.stats.traffic;
  EXPECT_EQ(s.accesses, t.accesses);
  EXPECT_EQ(s.lines_touched, t.lines_touched);
  EXPECT_EQ(s.line_bytes, t.line_bytes);
  EXPECT_EQ(s.l1_hits, t.l1_hits);
  EXPECT_EQ(s.l2_hits, t.l2_hits);
  EXPECT_EQ(s.hbm_lines, t.hbm_lines);
  EXPECT_EQ(s.hbm_read_bytes, t.hbm_read_bytes);
  EXPECT_EQ(s.hbm_write_bytes, t.hbm_write_bytes);

  // Modelled time is a pure function of the above.
  EXPECT_EQ(serial.total_time_s, parallel.total_time_s);
}

TEST(ParallelAssembler, BitIdenticalAcrossThreadCounts) {
  const AssemblyInput in = dataset();
  const AssemblyResult serial = run_with_threads(in, 1);
  const unsigned hw = resolve_threads(0);
  for (unsigned n : {2U, 3U, hw}) {
    SCOPED_TRACE("n_threads=" + std::to_string(n));
    expect_identical(serial, run_with_threads(in, n));
  }
}

TEST(ParallelAssembler, MoreThreadsThanWarps) {
  const AssemblyInput in = dataset(21, 5, 9);
  const AssemblyResult serial = run_with_threads(in, 1);
  expect_identical(serial, run_with_threads(in, 16));
}

TEST(ParallelAssembler, SmallBatchesExerciseThePoolAcrossLaunches) {
  // A tight memory budget splits the run into many small launches; the
  // pool is reused (and its contexts reconfigured) across all of them.
  AssemblyInput in = dataset(33, 40, 7);
  AssemblyOptions serial_opts;
  serial_opts.n_threads = 1;
  serial_opts.batch_mem_budget_bytes = 1 << 18;
  AssemblyOptions par_opts = serial_opts;
  par_opts.n_threads = 4;
  const auto r1 =
      LocalAssembler(simt::DeviceSpec::mi250x_gcd(), serial_opts).run(in);
  const auto r2 =
      LocalAssembler(simt::DeviceSpec::mi250x_gcd(), par_opts).run(in);
  EXPECT_GT(r1.launches.size(), 2U);
  expect_identical(r1, r2);
}

TEST(ParallelAssembler, ReferenceMatchesEveryThreadCount) {
  // The CPU reference is the semantic oracle for both execution paths.
  const AssemblyInput in = dataset(21, 30, 11);
  const auto ref = reference_extend(in);
  const AssemblyResult r = run_with_threads(in, 3);
  ASSERT_EQ(ref.size(), r.extensions.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(ref[i].left, r.extensions[i].left);
    EXPECT_EQ(ref[i].right, r.extensions[i].right);
  }
}

TEST(ExecutionEngine, ResolveThreads) {
  EXPECT_EQ(resolve_threads(1), 1U);
  EXPECT_EQ(resolve_threads(7), 7U);
  EXPECT_GE(resolve_threads(0), 1U);
}

TEST(ExecutionEngine, RunsEveryIndexExactlyOnce) {
  const AssemblyOptions opts;
  const simt::DeviceSpec dev = simt::DeviceSpec::a100();
  WarpExecutionEngine engine(dev, simt::ProgrammingModel::kCuda, opts, 4);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  engine.run_batch(kN, 1, [&](std::size_t i, WarpKernelContext&) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << i;
  }
  // The pool survives across batches, including empty ones.
  engine.run_batch(0, 1, [&](std::size_t, WarpKernelContext&) { FAIL(); });
  std::atomic<std::size_t> count{0};
  engine.run_batch(17, 8, [&](std::size_t, WarpKernelContext&) { ++count; });
  EXPECT_EQ(count.load(), 17U);
}

TEST(ExecutionEngine, PropagatesBodyExceptions) {
  const AssemblyOptions opts;
  const simt::DeviceSpec dev = simt::DeviceSpec::a100();
  WarpExecutionEngine engine(dev, simt::ProgrammingModel::kCuda, opts, 3);
  EXPECT_THROW(
      engine.run_batch(64, 1,
                       [&](std::size_t i, WarpKernelContext&) {
                         if (i == 40) throw std::runtime_error("boom");
                       }),
      std::runtime_error);
  // Engine stays usable after a failed batch.
  std::atomic<std::size_t> count{0};
  engine.run_batch(8, 1, [&](std::size_t, WarpKernelContext&) { ++count; });
  EXPECT_EQ(count.load(), 8U);
}

TEST(ExecutionEngine, BackToBackTinyHostBatches) {
  // Batches smaller than the pool leave some workers out of each job; the
  // caller's next job reuses the same stack slot at once, so a woken
  // non-participant that touched the job after the engine lock would join
  // a half-built job (or one twice) and hang or crash here.
  const AssemblyOptions opts;
  const simt::DeviceSpec dev = simt::DeviceSpec::a100();
  WarpExecutionEngine engine(dev, simt::ProgrammingModel::kCuda, opts, 4);
  constexpr std::size_t kBatches = 200000;
  std::uint64_t expected = 0;
  std::atomic<std::uint64_t> sum{0};
  for (std::size_t b = 0; b < kBatches; ++b) {
    const std::size_t n = 1 + b % 3;
    engine.run_host_batch(n, [&](std::size_t i, unsigned) {
      sum.fetch_add(i + 1, std::memory_order_relaxed);
    });
    expected += n * (n + 1) / 2;
  }
  EXPECT_EQ(sum.load(), expected);
}

// ---------------------------------------------------------------------------
// Whole-pipeline golden bit-identity: every number below was captured from
// the pre-overhaul seed build (commit de95621). The fast paths (cache memo,
// nibble recency, epoch invalidation, bulk spans, lazy hash-table reset,
// slot precompute) all claim exact equivalence, so the full pipeline must
// keep reproducing these values bit-for-bit — at one thread and at many.

std::uint64_t fnv1a(const std::string& s, std::uint64_t h) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

struct GoldenNumbers {
  std::uint64_t ext_hash, bases, n_ext;
  std::uint64_t cycles, intops, issue_slots, instructions;
  std::uint64_t probes, insertions, walk_steps, atomics, mer_retries;
  std::uint64_t accesses, lines_touched, l1_hits, l2_hits, hbm_lines,
      hbm_read_bytes, hbm_write_bytes;
  std::uint64_t num_warps, launches;
  double total_time_s;
};

void expect_golden(const AssemblyResult& r, const GoldenNumbers& g) {
  std::uint64_t eh = 1469598103934665603ULL;
  std::uint64_t bases = 0;
  for (const auto& e : r.extensions) {
    eh = fnv1a(e.left, eh);
    eh = fnv1a(e.right, eh);
    bases += e.left.size() + e.right.size();
  }
  EXPECT_EQ(eh, g.ext_hash);
  EXPECT_EQ(bases, g.bases);
  EXPECT_EQ(r.extensions.size(), g.n_ext);
  const simt::WarpCounters& c = r.stats.totals;
  EXPECT_EQ(c.cycles, g.cycles);
  EXPECT_EQ(c.intops, g.intops);
  EXPECT_EQ(c.issue_slots, g.issue_slots);
  EXPECT_EQ(c.instructions, g.instructions);
  EXPECT_EQ(c.probes, g.probes);
  EXPECT_EQ(c.insertions, g.insertions);
  EXPECT_EQ(c.walk_steps, g.walk_steps);
  EXPECT_EQ(c.atomics, g.atomics);
  EXPECT_EQ(c.mer_retries, g.mer_retries);
  const memsim::TrafficStats& t = r.stats.traffic;
  EXPECT_EQ(t.accesses, g.accesses);
  EXPECT_EQ(t.lines_touched, g.lines_touched);
  EXPECT_EQ(t.l1_hits, g.l1_hits);
  EXPECT_EQ(t.l2_hits, g.l2_hits);
  EXPECT_EQ(t.hbm_lines, g.hbm_lines);
  EXPECT_EQ(t.hbm_read_bytes, g.hbm_read_bytes);
  EXPECT_EQ(t.hbm_write_bytes, g.hbm_write_bytes);
  EXPECT_EQ(r.stats.num_warps, g.num_warps);
  EXPECT_EQ(r.stats.num_kernel_launches, g.launches);
  EXPECT_EQ(r.total_time_s, g.total_time_s);
}

TEST(GoldenBitIdentity, A100K21) {
  const GoldenNumbers g{
      6229556296844700221ULL, 2980,     60,       4724627, 12672717,
      42792576,               1337268,  49267,    42255,   3100,
      87929,                  0,        368817,   439984,  288902,
      10177,                  3569,     114208,   4398176, 120,
      8,                      0.00017015673758865248};
  const AssemblyInput in = dataset(21, 60, 42);
  expect_golden(run_with_threads(in, 1), g);
  expect_golden(run_with_threads(in, resolve_threads(0)), g);
}

TEST(GoldenBitIdentity, Mi250xK33SmallBatches) {
  const GoldenNumbers g{
      11395398159350582881ULL, 3766,     40,       8364652, 12450731,
      118580864,               1852826,  35902,    28085,   4610,
      58664,                   11,       190693,   208873,  71796,
      114750,                  743,      95104,    2763904, 80,
      28,                      0.00041914176470588232};
  const AssemblyInput in = dataset(33, 40, 7);
  AssemblyOptions opts;
  opts.n_threads = 1;
  opts.batch_mem_budget_bytes = 1 << 18;
  const simt::DeviceSpec dev = simt::DeviceSpec::mi250x_gcd();
  expect_golden(LocalAssembler(dev, opts).run(in), g);
  opts.n_threads = resolve_threads(0);
  expect_golden(LocalAssembler(dev, opts).run(in), g);
}

TEST(GoldenBitIdentity, Max1550K55) {
  const GoldenNumbers g{
      704030900663122419ULL, 3460,     24,       5407450, 11819653,
      47406816,              2962926,  27415,    19640,   4750,
      41734,                 22,       158866,   197415,  162477,
      12386,                 744,      47616,    1400192, 48,
      6,                     0.00044608124999999995};
  const AssemblyInput in = dataset(55, 24, 3);
  const simt::DeviceSpec dev = simt::DeviceSpec::max1550_tile();
  expect_golden(run_with_threads(in, 1, dev), g);
  expect_golden(run_with_threads(in, resolve_threads(0), dev), g);
}

TEST(GoldenBitIdentity, A100K21WithEmptyArmedFaultPlan) {
  // The resilience hardening's bit-identity contract: arming an empty
  // FaultPlan routes the run through the isolated/validated execution
  // paths (watchdog on, task isolation on) without changing one golden
  // number — serial and threaded, traced and untraced.
  const GoldenNumbers g{
      6229556296844700221ULL, 2980,     60,       4724627, 12672717,
      42792576,               1337268,  49267,    42255,   3100,
      87929,                  0,        368817,   439984,  288902,
      10177,                  3569,     114208,   4398176, 120,
      8,                      0.00017015673758865248};
  const AssemblyInput in = dataset(21, 60, 42);
  const resilience::FaultPlan empty_plan(12345);
  AssemblyOptions opts;
  opts.fault_plan = &empty_plan;
  for (unsigned n : {1U, resolve_threads(0)}) {
    SCOPED_TRACE("n_threads=" + std::to_string(n));
    opts.n_threads = n;
    opts.trace = nullptr;
    AssemblyResult r = LocalAssembler(simt::DeviceSpec::a100(), opts).run(in);
    expect_golden(r, g);
    EXPECT_TRUE(r.failures.clean());

    trace::Tracer tracer;
    opts.trace = &tracer;
    r = LocalAssembler(simt::DeviceSpec::a100(), opts).run(in);
    expect_golden(r, g);
    EXPECT_TRUE(r.failures.clean());
  }
}

TEST(ExecutionEngine, IsolatedBatchQuarantinesOnlyTheFailingTask) {
  // run_batch_isolated's direct contract: a task that keeps throwing is
  // retried then quarantined; every other index runs exactly once and the
  // engine survives.
  const AssemblyOptions opts;
  const simt::DeviceSpec dev = simt::DeviceSpec::a100();
  WarpExecutionEngine engine(dev, simt::ProgrammingModel::kCuda, opts, 4);
  constexpr std::size_t kN = 64;
  std::vector<std::atomic<int>> first_attempts(kN);
  resilience::FailureReport report;
  engine.run_batch_isolated(
      kN, 1,
      [&](std::size_t i, WarpKernelContext&, unsigned) {
        if (i == 40) throw std::runtime_error("persistent failure");
        first_attempts[i].fetch_add(1, std::memory_order_relaxed);
      },
      [](std::size_t i) { return static_cast<std::uint64_t>(i); },
      /*plan=*/nullptr, /*max_retries=*/2, /*batch_ordinal=*/0, report);
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(first_attempts[i].load(), i == 40 ? 0 : 1) << i;
  }
  EXPECT_EQ(report.tasks_quarantined, 1U);
  EXPECT_EQ(report.tasks_retried, 2U);
  ASSERT_EQ(report.faults.size(), 1U);
  EXPECT_EQ(report.faults[0].index, 40U);
  EXPECT_TRUE(report.faults[0].quarantined);
  EXPECT_EQ(report.faults[0].attempts, 3U);

  // Engine stays usable for normal batches afterwards.
  std::atomic<std::size_t> count{0};
  engine.run_batch(8, 1, [&](std::size_t, WarpKernelContext&) { ++count; });
  EXPECT_EQ(count.load(), 8U);
}

TEST(ExecutionEngine, PooledContextReuseMatchesFreshContexts) {
  // The serial oracle runs every task of a launch through one context, one
  // after another; a 2-thread engine splits the tasks over two pooled
  // contexts, each reused across its share of the launch and across both
  // sides' launches (whose concurrencies differ, so they reconfigure).
  // Both must give the same results (the reset contract). The direct
  // one-context-vs-fresh-context checks are the tests below.
  const AssemblyInput in = dataset(21, 12, 13);
  const AssemblyResult once = run_with_threads(in, 1);
  expect_identical(once, run_with_threads(in, 2));
}

/// One launch's right-side tasks over `in`, laid out like the assembler's
/// batches: each task has its own line-aligned table and walk buffer.
std::vector<WarpTask> right_side_tasks(const AssemblyInput& in,
                                       const AssemblyOptions& opts) {
  memsim::AddressSpace as;
  const std::uint64_t reads_base = as.allocate(in.reads.total_bases());
  const std::uint64_t quals_base = as.allocate(in.reads.total_bases());
  const std::uint32_t floor_mer = ladder_min_mer(in.kmer_len, opts);
  std::vector<WarpTask> tasks;
  for (std::size_t id = 0; id < in.contigs.size(); ++id) {
    if (in.right_reads[id].empty()) continue;
    std::uint64_t ins = 0;
    for (std::uint32_t rid : in.right_reads[id])
      ins += bio::kmer_count(in.reads[rid].len, floor_mer);
    WarpTask t;
    t.contig = in.contigs[id].seq;
    t.contig_sim_addr = as.allocate(in.contigs[id].length());
    t.reads = &in.reads;
    t.read_ids = in.right_reads[id];
    t.reads_sim_base = reads_base;
    t.quals_sim_base = quals_base;
    const std::uint64_t slots =
        LocHashTable::estimate_slots(ins, opts.table_load_factor);
    t.table_sim_base = as.allocate(slots * kEntryBytes, 128);
    t.walkbuf_sim_addr = as.allocate(in.kmer_len + opts.max_walk_len + 64);
    t.kmer_len = in.kmer_len;
    t.fault_key = resilience::contig_fault_key(in.contigs[id].id, true);
    tasks.push_back(t);
  }
  return tasks;
}

/// Every modelled field of two warp results, named on mismatch.
void expect_same_warp_result(const WarpResult& a, const WarpResult& b) {
  EXPECT_EQ(a.extension, b.extension);
  EXPECT_EQ(a.accepted_mer, b.accepted_mer);
  EXPECT_EQ(a.final_state, b.final_state);
  EXPECT_EQ(a.mem_faults, b.mem_faults);
  EXPECT_EQ(a.walk_aborts, b.walk_aborts);
  const simt::WarpCounters& c = a.counters;
  const simt::WarpCounters& d = b.counters;
  EXPECT_EQ(c.cycles, d.cycles);
  EXPECT_EQ(c.intops, d.intops);
  EXPECT_EQ(c.issue_slots, d.issue_slots);
  EXPECT_EQ(c.instructions, d.instructions);
  EXPECT_EQ(c.probes, d.probes);
  EXPECT_EQ(c.insertions, d.insertions);
  EXPECT_EQ(c.walk_steps, d.walk_steps);
  EXPECT_EQ(c.atomics, d.atomics);
  EXPECT_EQ(c.mer_retries, d.mer_retries);
  EXPECT_EQ(c.mem_rounds, d.mem_rounds);
  const memsim::TrafficStats& s = a.traffic;
  const memsim::TrafficStats& t = b.traffic;
  EXPECT_EQ(s.accesses, t.accesses);
  EXPECT_EQ(s.lines_touched, t.lines_touched);
  EXPECT_EQ(s.line_bytes, t.line_bytes);
  EXPECT_EQ(s.l1_hits, t.l1_hits);
  EXPECT_EQ(s.l2_hits, t.l2_hits);
  EXPECT_EQ(s.l1_evictions, t.l1_evictions);
  EXPECT_EQ(s.l2_evictions, t.l2_evictions);
  EXPECT_EQ(s.hbm_lines, t.hbm_lines);
  EXPECT_EQ(s.hbm_read_bytes, t.hbm_read_bytes);
  EXPECT_EQ(s.hbm_write_bytes, t.hbm_write_bytes);
}

TEST(ExecutionEngine, OneContextAcrossReconfiguresMatchesFreshContexts) {
  // One context runs the task sequence twice while its batch concurrency
  // goes large -> small -> large (small -> large -> small slices, so the
  // reshaped slabs shrink, grow past their first size and shrink again);
  // every task must match a context built fresh for its concurrency.
  const AssemblyInput in = dataset(33, 10, 21);
  for (const simt::DeviceSpec& dev : simt::DeviceSpec::study_devices()) {
    SCOPED_TRACE(dev.slug);
    const AssemblyOptions opts;
    const std::vector<WarpTask> tasks = right_side_tasks(in, opts);
    ASSERT_GE(tasks.size(), 4U);
    const std::uint64_t concurrencies[] = {1500, 1, 1500, 28};
    WarpKernelContext reused(dev, dev.native_model, opts, concurrencies[0]);
    std::size_t step = 0;
    for (int pass = 0; pass < 2; ++pass) {
      for (std::size_t i = 0; i < tasks.size(); ++i, ++step) {
        // A new concurrency every third task; tasks in between reuse the
        // context unchanged.
        const std::uint64_t conc = concurrencies[(step / 3) % 4];
        if (step % 3 == 0) reused.reconfigure(conc);
        SCOPED_TRACE("task " + std::to_string(i) + " concurrency " +
                     std::to_string(conc));
        WarpKernelContext fresh(dev, dev.native_model, opts, conc);
        expect_same_warp_result(reused.run(tasks[i]), fresh.run(tasks[i]));
      }
    }
  }
}

TEST(ExecutionEngine, OneContextUnderMemStallsMatchesFreshContexts) {
  // Under an armed mem-stall plan, fault_interrupt() empties the hierarchy
  // between rungs, so a later rung's table wipe also starts from an empty
  // hierarchy (the fresh-line wipe). One context running the tasks back to
  // back must match fresh contexts, and the scenario must really occur.
  const AssemblyInput in = dataset(33, 16, 5);
  resilience::FaultPlan plan(99);
  plan.arm(resilience::Seam::kMemStall, 0.5);
  AssemblyOptions opts;
  opts.fault_plan = &plan;
  bool later_rung_stalled = false;
  for (const simt::DeviceSpec& dev : simt::DeviceSpec::study_devices()) {
    SCOPED_TRACE(dev.slug);
    const std::vector<WarpTask> tasks = right_side_tasks(in, opts);
    WarpKernelContext reused(dev, dev.native_model, opts, 64);
    for (int pass = 0; pass < 2; ++pass) {
      for (std::size_t i = 0; i < tasks.size(); ++i) {
        SCOPED_TRACE("task " + std::to_string(i));
        const WarpResult got = reused.run(tasks[i]);
        WarpKernelContext fresh(dev, dev.native_model, opts, 64);
        expect_same_warp_result(got, fresh.run(tasks[i]));
        // Rungs this task ran, in ladder order; did any after the first
        // stall?
        std::uint64_t rung = 0;
        for (std::uint32_t mer : mer_ladder(tasks[i].kmer_len, opts)) {
          if (mer > tasks[i].contig.size() || mer >= bio::kMaxK) continue;
          if (rung > got.counters.mer_retries) break;
          if (rung > 0 &&
              plan.fires(resilience::Seam::kMemStall,
                         (tasks[i].fault_key << 8) ^ mer, 0))
            later_rung_stalled = true;
          ++rung;
        }
      }
    }
  }
  EXPECT_TRUE(later_rung_stalled);
}

}  // namespace
}  // namespace lassm::core
