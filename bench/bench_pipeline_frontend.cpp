// Pipeline front-end throughput: k-mer counting, low-count filter, de
// Bruijn contig generation and read-to-end alignment on a fixed synthetic
// shotgun workload (200 kb genome, ~12x coverage, 0.2% error), at one
// thread and on a 4-worker warp-execution pool (count_kmers uses the
// serial table at 1t and the lock-free shared table at 4t), plus the
// streaming bounded-memory ingest path. Writes the per-stage wall
// clock at 1 and 4 threads to results/pipeline_frontend.csv. The
// deterministic workload makes before/after runs directly comparable;
// perfbench/'s reads_1rank workload tracks the same stages with medians
// and noise-derived bounds. Every parallel stage is
// bit-identical to the serial oracle (see tests_pipeline
// FrontendParallel.*), so this file measures speed only.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>

#include "bench/common.hpp"
#include "bio/fasta.hpp"
#include "bio/rng.hpp"
#include "bio/stream.hpp"
#include "core/exec.hpp"
#include "model/csv.hpp"
#include "pipeline/aligner.hpp"
#include "pipeline/dbg.hpp"
#include "pipeline/kmer_analysis.hpp"
#include "pipeline/pipeline.hpp"

namespace {

using namespace lassm;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The fixed workload: 200 kb uniform-random genome, 130 bp reads at ~12x
/// coverage with a 0.2% substitution error rate (so the filter and the
/// graph see realistic error k-mers), fixed RNG seed.
bio::ReadSet make_reads() {
  bio::Xoshiro256 rng(20240806);
  std::string genome(200000, 'A');
  for (char& c : genome) {
    c = bio::code_to_base(static_cast<int>(rng.below(4)));
  }
  bio::ReadSet reads;
  const std::uint32_t read_len = 130;
  const std::uint64_t n_reads = 12 * genome.size() / read_len;
  for (std::uint64_t i = 0; i < n_reads; ++i) {
    const std::uint64_t start = rng.below(genome.size() - read_len);
    std::string frag = genome.substr(start, read_len);
    for (char& c : frag) {
      if (rng.uniform() < 0.002) {
        c = bio::code_to_base(
            (bio::base_to_code(c) + 1 + static_cast<int>(rng.below(3))) % 4);
      }
    }
    reads.append(frag, 35);
  }
  return reads;
}

struct StageTimes {
  double count_s = 1e9;
  double filter_s = 1e9;
  double dbg_s = 1e9;
  double align_s = 1e9;
  double pipeline_s = 1e9;
  std::uint64_t distinct = 0;
  std::uint64_t contigs = 0;
};

/// Best-of-3 per stage. `pool` == nullptr is the serial oracle.
StageTimes measure(const bio::ReadSet& reads,
                   core::WarpExecutionEngine* pool) {
  StageTimes out;
  pipeline::KmerCounts kept;
  for (int rep = 0; rep < 3; ++rep) {
    auto t0 = Clock::now();
    pipeline::KmerCounts counts = pipeline::count_kmers(reads, 21, false,
                                                        pool);
    out.count_s = std::min(out.count_s, seconds_since(t0));
    out.distinct = counts.size();
    t0 = Clock::now();
    pipeline::filter_low_count(counts, 2, pool);
    out.filter_s = std::min(out.filter_s, seconds_since(t0));
    kept = std::move(counts);
  }
  bio::ContigSet contigs;
  for (int rep = 0; rep < 3; ++rep) {
    auto t0 = Clock::now();
    contigs = pipeline::generate_contigs(kept, 21, 100, nullptr, pool);
    out.dbg_s = std::min(out.dbg_s, seconds_since(t0));
  }
  out.contigs = contigs.size();
  for (int rep = 0; rep < 3; ++rep) {
    auto t0 = Clock::now();
    auto in = pipeline::align_reads_to_ends(contigs, reads, 33, {}, nullptr,
                                            pool);
    out.align_s = std::min(out.align_s, seconds_since(t0));
  }
  return out;
}

/// Best-of-3 wall clock of the streaming bounded-memory count over the
/// same reads (serialized to FASTQ once, re-parsed per rep — parse time is
/// part of the story: the overlap with counting is what the double-buffer
/// buys). 1 MB block budget, so the workload streams through ~3 blocks.
double measure_count_stream(const std::string& fastq,
                            core::WarpExecutionEngine* pool,
                            pipeline::StreamCountStats* stats) {
  double best = 1e9;
  for (int rep = 0; rep < 3; ++rep) {
    std::istringstream is(fastq);
    bio::SequenceStreamReader reader(is, "bench.fq", {1ULL << 20});
    const auto t0 = Clock::now();
    pipeline::KmerCounts counts =
        pipeline::count_kmers_stream(reader, 21, false, pool, stats);
    best = std::min(best, seconds_since(t0));
  }
  return best;
}

double measure_pipeline(const bio::ReadSet& reads, unsigned n_threads) {
  pipeline::PipelineOptions opts;
  opts.use_reference = true;
  opts.assembly.n_threads = n_threads;
  const auto t0 = Clock::now();
  const auto r = pipeline::run_pipeline(reads, simt::DeviceSpec::a100(),
                                        opts);
  const double s = seconds_since(t0);
  std::cout << "  pipeline(" << n_threads << "t): " << s << " s, contigs "
            << r.contigs.size() << "\n";
  return s;
}

}  // namespace

int main() {
  std::cout << "bench_pipeline_frontend: front-end stage wall clock\n";
  const bio::ReadSet reads = make_reads();
  const std::uint64_t windows = reads.total_kmers(21);
  std::cout << "  workload: " << reads.size() << " reads, "
            << reads.total_bases() << " bases, " << windows
            << " k=21 windows\n";

  constexpr unsigned kPoolThreads = 4;
  const auto pool = std::make_unique<core::WarpExecutionEngine>(
      simt::DeviceSpec::a100(), simt::ProgrammingModel::kCuda,
      core::AssemblyOptions{}, kPoolThreads);

  StageTimes serial = measure(reads, nullptr);
  serial.pipeline_s = measure_pipeline(reads, 1);
  StageTimes pooled = measure(reads, pool.get());
  pooled.pipeline_s = measure_pipeline(reads, kPoolThreads);

  const std::string fastq = [&] {
    std::ostringstream os;
    bio::write_fastq(os, reads);
    return std::move(os).str();
  }();
  pipeline::StreamCountStats stream_stats;
  const double stream_4t =
      measure_count_stream(fastq, pool.get(), &stream_stats);
  std::cout << "  count stream(4t, 1MB blocks): " << stream_4t << " s, "
            << stream_stats.blocks << " blocks, peak resident "
            << stream_stats.peak_resident_bases << " bases\n";

  const double mkmers = static_cast<double>(windows) / serial.count_s / 1e6;
  std::cout << "  count(1t): " << serial.count_s << " s (" << mkmers
            << " Mkmers/s)\n  dbg(1t): " << serial.dbg_s << " s\n";

  model::CsvWriter csv = bench::bench_csv(
      "pipeline_frontend", {"stage", "wall_1t_s", "wall_4t_s"});
  csv.row("kmer_count", serial.count_s, pooled.count_s);
  csv.row("kmer_filter", serial.filter_s, pooled.filter_s);
  csv.row("contig_generation", serial.dbg_s, pooled.dbg_s);
  csv.row("align", serial.align_s, pooled.align_s);
  csv.row("pipeline", serial.pipeline_s, pooled.pipeline_s);
  bench::write_artifacts(std::cout, csv);
  return 0;
}
