// The parallel front-end's determinism contract: k-mer counting, the
// low-count filter, the count histogram, de Bruijn contig generation and
// read-to-end alignment produce bit-identical outputs at every thread
// count — serial oracle (no pool), 2, 4 and 8 workers — traced or not,
// and with an armed-but-empty FaultPlan. All outputs are pinned to golden
// FNV-1a fingerprints captured from the serial seed implementation, so a
// regression in *either* the parallel schedule or the flat-table rewrite
// trips these tests, not just a serial/parallel mismatch.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bio/read.hpp"
#include "bio/rng.hpp"
#include "core/exec.hpp"
#include "pipeline/aligner.hpp"
#include "pipeline/dbg.hpp"
#include "pipeline/kmer_analysis.hpp"
#include "pipeline/pipeline.hpp"
#include "resilience/fault_plan.hpp"
#include "trace/trace.hpp"

namespace lassm::pipeline {
namespace {

// ---------------------------------------------------------------------------
// Golden constants, captured from the seed (serial, std::unordered_map)
// implementation on the fixed workload below. Any change here is a change
// in observable output and must be justified as a bug fix.

constexpr std::uint64_t kGoldenCountsSize = 7953;
constexpr std::uint64_t kGoldenCountsFnv = 7411402677306686689ULL;
constexpr std::uint64_t kGoldenCanonSize = 7953;
constexpr std::uint64_t kGoldenCanonFnv = 3878192066446317023ULL;
constexpr std::uint64_t kGoldenFiltered = 45;
constexpr std::uint64_t kGoldenKept = 7908;
constexpr std::uint64_t kGoldenHistFnv = 16428289552627661664ULL;
constexpr std::uint64_t kGoldenDbgNodes = 7908;
constexpr std::uint64_t kGoldenDbgForks = 0;
constexpr std::uint64_t kGoldenDbgDeadEnds = 2;
constexpr std::uint64_t kGoldenDbgContigs = 2;
constexpr std::uint64_t kGoldenContigsFnv = 11351995684168981498ULL;
constexpr std::uint64_t kGoldenAlignLeft = 1;
constexpr std::uint64_t kGoldenAlignRight = 2;
constexpr std::uint64_t kGoldenAlignInterior = 200;
constexpr std::uint64_t kGoldenAlignUnaligned = 463;
constexpr std::uint64_t kGoldenAlignFnv = 7034825297573674038ULL;
constexpr std::uint64_t kGoldenPipeFnv = 7073420751221098525ULL;

struct GoldenIter {
  std::uint32_t k;
  std::uint64_t contigs, total_bases, n50, mapped_reads, extension_bases;
};
constexpr GoldenIter kGoldenIters[2] = {
    {21, 2, 8032, 4215, 3, 84},
    {33, 2, 8160, 4282, 3, 128},
};

// ---------------------------------------------------------------------------
// FNV-1a fingerprinting (identical scheme to the capture program).

class Fnv {
 public:
  void mix(const void* p, std::size_t n) noexcept {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 1099511628211ULL;
    }
  }
  void mix_u64(std::uint64_t v) noexcept { mix(&v, sizeof v); }
  void mix_str(const std::string& s) noexcept { mix(s.data(), s.size()); }
  std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ULL;
};

std::uint64_t fingerprint_counts(const KmerCounts& counts) {
  std::vector<std::pair<std::string, std::uint32_t>> v;
  v.reserve(counts.size());
  for (std::uint32_t s = 0; s < KmerCounts::Table::kShards; ++s) {
    counts.table().for_each_in_shard(s, [&](const auto& e) {
      if (e.value != 0) v.emplace_back(e.key.unpack(), e.value);
    });
  }
  std::sort(v.begin(), v.end());
  Fnv f;
  for (const auto& [km, c] : v) {
    f.mix_str(km);
    f.mix_u64(c);
  }
  return f.value();
}

std::uint64_t fingerprint_contigs(const bio::ContigSet& contigs) {
  Fnv f;
  for (const bio::Contig& c : contigs) {
    f.mix_u64(c.id);
    const double d = c.depth;
    f.mix(&d, sizeof d);
    f.mix_str(c.seq);
  }
  return f.value();
}

std::uint64_t fingerprint_alignment(const core::AssemblyInput& in) {
  Fnv f;
  for (std::size_t c = 0; c < in.contigs.size(); ++c) {
    f.mix_u64(0xA11C0DE);
    for (std::uint32_t r : in.left_reads[c]) f.mix_u64(r);
    f.mix_u64(0xB11C0DE);
    for (std::uint32_t r : in.right_reads[c]) f.mix_u64(r);
  }
  for (std::size_t r = 0; r < in.reads.size(); ++r) {
    f.mix_str(std::string(in.reads.seq(r)));
  }
  return f.value();
}

// ---------------------------------------------------------------------------
// Fixed workload (same generators as test_pipeline.cpp, fixed seeds).

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
    return shotgun(random_seq(11, 8000), 10.0, 120, 12);
  }();
  return reads;
}

std::unique_ptr<core::WarpExecutionEngine> make_pool(unsigned n_threads) {
  return std::make_unique<core::WarpExecutionEngine>(
      simt::DeviceSpec::a100(), simt::ProgrammingModel::kCuda,
      core::AssemblyOptions{}, n_threads);
}

// Thread counts every front-end stage is checked at: the serial oracle
// (nullptr pool) plus 2-, 4- and 8-worker pools. More workers than chunks
// and work stealing are both in play at 4+; 8 oversubscribes the host,
// which is the harshest interleaving for the concurrent count table.
std::vector<std::unique_ptr<core::WarpExecutionEngine>> test_pools() {
  std::vector<std::unique_ptr<core::WarpExecutionEngine>> pools;
  pools.push_back(nullptr);  // serial oracle
  pools.push_back(make_pool(2));
  pools.push_back(make_pool(4));
  pools.push_back(make_pool(8));
  return pools;
}

// ---------------------------------------------------------------------------

TEST(FrontendParallel, CountsMatchGoldenAtEveryThreadCount) {
  const bio::ReadSet& reads = workload_reads();
  for (const auto& pool : test_pools()) {
    const KmerCounts counts = count_kmers(reads, 21, false, pool.get());
    EXPECT_EQ(counts.size(), kGoldenCountsSize);
    EXPECT_EQ(fingerprint_counts(counts), kGoldenCountsFnv)
        << "threads=" << (pool ? pool->n_threads() : 1);
  }
}

TEST(FrontendParallel, CanonicalCountsMatchGoldenAtEveryThreadCount) {
  const bio::ReadSet& reads = workload_reads();
  for (const auto& pool : test_pools()) {
    const KmerCounts canon = count_kmers(reads, 21, true, pool.get());
    EXPECT_EQ(canon.size(), kGoldenCanonSize);
    EXPECT_EQ(fingerprint_counts(canon), kGoldenCanonFnv)
        << "threads=" << (pool ? pool->n_threads() : 1);
  }
}

TEST(FrontendParallel, FilterAndHistogramMatchGoldenAtEveryThreadCount) {
  const bio::ReadSet& reads = workload_reads();
  for (const auto& pool : test_pools()) {
    KmerCounts counts = count_kmers(reads, 21, false, pool.get());
    const std::size_t removed = filter_low_count(counts, 2, pool.get());
    EXPECT_EQ(removed, kGoldenFiltered);
    EXPECT_EQ(counts.size(), kGoldenKept);
    const auto hist = count_histogram(counts, 16, pool.get());
    Fnv f;
    for (std::uint64_t h : hist) f.mix_u64(h);
    EXPECT_EQ(f.value(), kGoldenHistFnv)
        << "threads=" << (pool ? pool->n_threads() : 1);
  }
}

TEST(FrontendParallel, ContigsMatchGoldenAtEveryThreadCount) {
  const bio::ReadSet& reads = workload_reads();
  for (const auto& pool : test_pools()) {
    KmerCounts counts = count_kmers(reads, 21, false, pool.get());
    filter_low_count(counts, 2, pool.get());
    DbgStats stats;
    const bio::ContigSet contigs =
        generate_contigs(counts, 21, 100, &stats, pool.get());
    EXPECT_EQ(stats.nodes, kGoldenDbgNodes);
    EXPECT_EQ(stats.forks, kGoldenDbgForks);
    EXPECT_EQ(stats.dead_ends, kGoldenDbgDeadEnds);
    EXPECT_EQ(stats.contigs, kGoldenDbgContigs);
    EXPECT_EQ(fingerprint_contigs(contigs), kGoldenContigsFnv)
        << "threads=" << (pool ? pool->n_threads() : 1);
  }
}

TEST(FrontendParallel, AlignmentMatchesGoldenAtEveryThreadCount) {
  const bio::ReadSet& reads = workload_reads();
  KmerCounts counts = count_kmers(reads, 21);
  filter_low_count(counts, 2);
  const bio::ContigSet contigs = generate_contigs(counts, 21, 100);
  for (const auto& pool : test_pools()) {
    AlignStats astats;
    const core::AssemblyInput in =
        align_reads_to_ends(contigs, reads, 33, {}, &astats, pool.get());
    EXPECT_EQ(astats.aligned_left, kGoldenAlignLeft);
    EXPECT_EQ(astats.aligned_right, kGoldenAlignRight);
    EXPECT_EQ(astats.interior, kGoldenAlignInterior);
    EXPECT_EQ(astats.unaligned, kGoldenAlignUnaligned);
    EXPECT_EQ(fingerprint_alignment(in), kGoldenAlignFnv)
        << "threads=" << (pool ? pool->n_threads() : 1);
  }
}

// run_host_batch is the scheduling primitive under every parallel stage:
// every index must run exactly once, worker ids must be in range, and a
// body exception must propagate to the caller.

TEST(FrontendParallel, RunHostBatchVisitsEveryIndexExactlyOnce) {
  const auto pool = make_pool(4);
  std::vector<std::atomic<std::uint32_t>> hits(1000);
  pool->run_host_batch(hits.size(), [&](std::size_t i, unsigned wid) {
    ASSERT_LT(wid, pool->n_threads());
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1U);
}

TEST(FrontendParallel, RunHostBatchPropagatesExceptions) {
  const auto pool = make_pool(2);
  EXPECT_THROW(pool->run_host_batch(
                   64,
                   [](std::size_t i, unsigned) {
                     if (i == 37) throw std::runtime_error("boom");
                   }),
               std::runtime_error);
  // The pool survives a throwing batch and runs the next one normally.
  std::atomic<std::size_t> n{0};
  pool->run_host_batch(
      16, [&](std::size_t, unsigned) { n.fetch_add(1); });
  EXPECT_EQ(n.load(), 16U);
}

// ---------------------------------------------------------------------------
// Whole-pipeline goldens: thread counts x {untraced, traced} x
// {no plan, armed-but-empty FaultPlan} all produce the seed's outputs.

void expect_pipeline_golden(const PipelineResult& r, const char* what) {
  EXPECT_EQ(r.kmers_total, kGoldenCountsSize) << what;
  EXPECT_EQ(r.kmers_filtered, kGoldenFiltered) << what;
  ASSERT_EQ(r.iterations.size(), 2U) << what;
  for (std::size_t i = 0; i < 2; ++i) {
    const GoldenIter& g = kGoldenIters[i];
    const IterationReport& it = r.iterations[i];
    EXPECT_EQ(it.k, g.k) << what;
    EXPECT_EQ(it.contigs, g.contigs) << what;
    EXPECT_EQ(it.total_bases, g.total_bases) << what;
    EXPECT_EQ(it.n50, g.n50) << what;
    EXPECT_EQ(it.mapped_reads, g.mapped_reads) << what;
    EXPECT_EQ(it.extension_bases, g.extension_bases) << what;
  }
  EXPECT_EQ(fingerprint_contigs(r.contigs), kGoldenPipeFnv) << what;
}

TEST(FrontendParallel, PipelineMatchesGoldenAtEveryThreadCount) {
  const bio::ReadSet& reads = workload_reads();
  for (unsigned n_threads : {1U, 2U, 4U, 8U}) {
    for (bool traced : {false, true}) {
      PipelineOptions opts;
      opts.k_iterations = {21, 33};
      opts.use_reference = true;
      opts.assembly.n_threads = n_threads;
      trace::Tracer tracer;
      if (traced) opts.assembly.trace = &tracer;
      const PipelineResult r =
          run_pipeline(reads, simt::DeviceSpec::a100(), opts);
      const std::string what = "threads=" + std::to_string(n_threads) +
                               (traced ? " traced" : " untraced");
      expect_pipeline_golden(r, what.c_str());
      if (traced) {
        // Stage counters are recorded under the canonical names, and the
        // stage spans' nodes (which carry host time) are in the tree.
        const auto snap = tracer.metrics().snapshot();
        EXPECT_EQ(snap.value(trace::names::kPipelineKmersDistinct),
                  kGoldenCountsSize);
        EXPECT_EQ(snap.value(trace::names::kPipelineKmersFiltered),
                  kGoldenFiltered);
        std::set<std::string> names;
        for (const trace::AttributionNode& n : tracer.attribution().nodes()) {
          names.insert(n.name);
        }
        EXPECT_TRUE(names.contains("kmer_count"));
        EXPECT_TRUE(names.contains("align"));
      }
    }
  }
}

TEST(FrontendParallel, PipelineMatchesGoldenOnSimulatedDevice) {
  // The simulated-kernel path shares one pool across the front-end and
  // every round's launches; modelled outputs stay golden at every count.
  const bio::ReadSet& reads = workload_reads();
  std::vector<PipelineResult> results;
  for (unsigned n_threads : {1U, 2U}) {
    PipelineOptions opts;
    opts.k_iterations = {21, 33};
    opts.use_reference = false;
    opts.assembly.n_threads = n_threads;
    results.push_back(run_pipeline(reads, simt::DeviceSpec::a100(), opts));
    EXPECT_EQ(fingerprint_contigs(results.back().contigs), kGoldenPipeFnv)
        << "threads=" << n_threads;
  }
  // Modelled kernel time is part of the determinism contract too.
  ASSERT_EQ(results[0].iterations.size(), results[1].iterations.size());
  for (std::size_t i = 0; i < results[0].iterations.size(); ++i) {
    EXPECT_EQ(results[0].iterations[i].kernel_time_s,
              results[1].iterations[i].kernel_time_s);
  }
}

TEST(FrontendParallel, PipelineMatchesGoldenUnderEmptyArmedFaultPlan) {
  // An armed-but-empty plan routes execution through the resilient seams
  // (per-task guards, degraded-pool checks) without injecting anything;
  // the shared pool must keep that path bit-identical as well.
  const bio::ReadSet& reads = workload_reads();
  const resilience::FaultPlan plan(12345);  // armed, no seams -> no fires
  for (unsigned n_threads : {1U, 2U, 4U, 8U}) {
    PipelineOptions opts;
    opts.k_iterations = {21, 33};
    opts.use_reference = false;
    opts.assembly.n_threads = n_threads;
    opts.assembly.fault_plan = &plan;
    const PipelineResult r =
        run_pipeline(reads, simt::DeviceSpec::a100(), opts);
    EXPECT_EQ(fingerprint_contigs(r.contigs), kGoldenPipeFnv)
        << "threads=" << n_threads;
  }
}

}  // namespace
}  // namespace lassm::pipeline
