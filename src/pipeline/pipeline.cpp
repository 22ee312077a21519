#include "pipeline/pipeline.hpp"

#include <bit>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <ostream>
#include <sstream>

#include "core/exec.hpp"
#include "core/reference.hpp"
#include "pipeline/kmer_analysis.hpp"
#include "trace/trace.hpp"

namespace lassm::pipeline {

namespace {

constexpr const char* kCheckpointMagic = "LASSM_CHECKPOINT";
constexpr int kCheckpointVersion = 1;

/// Doubles cross the checkpoint as their IEEE-754 bit pattern in hex, so
/// depth/time values round-trip bit-exactly (decimal formatting would not).
std::uint64_t double_bits(double v) noexcept {
  return std::bit_cast<std::uint64_t>(v);
}
double bits_double(std::uint64_t bits) noexcept {
  return std::bit_cast<double>(bits);
}

/// Records a completed host-side stage span on the pipeline's driver track;
/// a no-op (two pointer checks) when tracing is off. `args` carries the
/// stage's attributed counter vector (front-end stages attach an honest
/// all-zero vector — they run no modelled kernel).
void record_stage(trace::Tracer* tracer, std::uint32_t track,
                  std::string name, double t0,
                  std::vector<trace::Arg> args = {}) {
  if (tracer == nullptr) return;
  trace::Event e;
  e.track = track;
  e.name = std::move(name);
  e.cat = "host";
  e.ts_us = t0;
  e.dur_us = tracer->host_now_us() - t0;
  e.args = std::move(args);
  tracer->record(std::move(e));
}

/// Host wall clock for the per-stage timing fields (always measured — two
/// clock reads per stage — unlike the tracer spans, which need tracing on).
using StageClock = std::chrono::steady_clock;

double stage_seconds(StageClock::time_point t0) {
  return std::chrono::duration<double>(StageClock::now() - t0).count();
}

/// Mirrors one stage's wall clock onto its metrics gauge when tracing.
void record_stage_gauge(trace::Tracer* tracer, const char* stage,
                        double seconds) {
  if (tracer == nullptr) return;
  tracer->metrics()
      .gauge(std::string(trace::names::kPipelineStageSecondsPrefix) + stage)
      .set(seconds);
}

}  // namespace

Status save_checkpoint(std::ostream& os, const PipelineCheckpoint& cp) {
  os << kCheckpointMagic << ' ' << kCheckpointVersion << '\n';
  os << "contig_k " << cp.contig_k << '\n';
  os << "ladder " << cp.k_iterations.size();
  for (std::uint32_t k : cp.k_iterations) os << ' ' << k;
  os << '\n';
  os << "rounds_done " << cp.rounds_done << '\n';
  os << "kmers " << cp.kmers_total << ' ' << cp.kmers_filtered << '\n';
  os << "dbg " << cp.dbg.nodes << ' ' << cp.dbg.forks << ' '
     << cp.dbg.dead_ends << ' ' << cp.dbg.contigs << '\n';
  os << "contigs " << cp.contigs.size() << '\n';
  for (const bio::Contig& c : cp.contigs) {
    os << c.id << ' ' << std::hex << double_bits(c.depth) << std::dec << ' '
       << c.seq << '\n';
  }
  os << "iterations " << cp.iterations.size() << '\n';
  for (const IterationReport& it : cp.iterations) {
    os << it.k << ' ' << it.contigs << ' ' << it.total_bases << ' '
       << it.n50 << ' ' << it.mapped_reads << ' ' << it.extension_bases
       << ' ' << std::hex << double_bits(it.kernel_time_s) << std::dec
       << '\n';
  }
  os << "end\n";
  os.flush();
  if (!os) {
    return Status(ErrorCode::kIoError,
                  "save_checkpoint: stream write/flush failed");
  }
  return Status::ok();
}

Result<PipelineCheckpoint> load_checkpoint(std::istream& is) {
  const auto fail = [](std::string what,
                       std::uint64_t record = 0) -> Error {
    return Error(ErrorCode::kParseError,
                 "load_checkpoint: " + std::move(what),
                 SourceContext{"checkpoint", 0, record});
  };
  const auto expect = [&](const char* token) {
    std::string got;
    return static_cast<bool>(is >> got) && got == token;
  };

  PipelineCheckpoint cp;
  if (!expect(kCheckpointMagic)) return fail("missing magic");
  int version = 0;
  if (!(is >> version) || version != kCheckpointVersion) {
    return fail("unsupported version");
  }
  if (!expect("contig_k") || !(is >> cp.contig_k) || cp.contig_k == 0) {
    return fail("contig_k");
  }
  std::size_t n_ladder = 0;
  if (!expect("ladder") || !(is >> n_ladder) || n_ladder > 64) {
    return fail("ladder header");
  }
  cp.k_iterations.resize(n_ladder);
  for (std::uint32_t& k : cp.k_iterations) {
    if (!(is >> k) || k == 0) return fail("ladder entry");
  }
  if (!expect("rounds_done") || !(is >> cp.rounds_done) ||
      cp.rounds_done > n_ladder) {
    return fail("rounds_done");
  }
  if (!expect("kmers") || !(is >> cp.kmers_total >> cp.kmers_filtered)) {
    return fail("kmers");
  }
  if (!expect("dbg") || !(is >> cp.dbg.nodes >> cp.dbg.forks >>
                          cp.dbg.dead_ends >> cp.dbg.contigs)) {
    return fail("dbg");
  }

  std::size_t n_contigs = 0;
  if (!expect("contigs") || !(is >> n_contigs)) return fail("contig count");
  cp.contigs.reserve(std::min<std::size_t>(n_contigs, 1U << 20));
  for (std::size_t i = 0; i < n_contigs; ++i) {
    bio::Contig c;
    std::uint64_t depth_bits = 0;
    if (!(is >> c.id >> std::hex >> depth_bits >> std::dec >> c.seq)) {
      return fail("contig record", i + 1);
    }
    c.depth = bits_double(depth_bits);
    cp.contigs.push_back(std::move(c));
  }

  std::size_t n_iters = 0;
  if (!expect("iterations") || !(is >> n_iters) || n_iters > n_ladder) {
    return fail("iteration count");
  }
  if (n_iters != cp.rounds_done) return fail("iteration/rounds mismatch");
  cp.iterations.resize(n_iters);
  for (std::size_t i = 0; i < n_iters; ++i) {
    IterationReport& it = cp.iterations[i];
    std::uint64_t time_bits = 0;
    if (!(is >> it.k >> it.contigs >> it.total_bases >> it.n50 >>
          it.mapped_reads >> it.extension_bases >> std::hex >> time_bits >>
          std::dec)) {
      return fail("iteration record", i + 1);
    }
    it.kernel_time_s = bits_double(time_bits);
  }
  if (!expect("end")) return fail("missing end marker (truncated file?)");
  return cp;
}

Status save_checkpoint_file(const std::string& path,
                            const PipelineCheckpoint& cp) {
  // Write-to-temp + rename so a crash mid-write can never tear the
  // previous good checkpoint.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream os(tmp, std::ios::trunc);
    if (!os) {
      return Status(ErrorCode::kIoError,
                    "save_checkpoint: cannot open " + tmp,
                    SourceContext{tmp});
    }
    if (Status s = save_checkpoint(os, cp); !s) return s;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status(ErrorCode::kIoError,
                  "save_checkpoint: cannot rename " + tmp + " -> " + path,
                  SourceContext{path});
  }
  return Status::ok();
}

Result<PipelineCheckpoint> load_checkpoint_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) {
    return Error(ErrorCode::kIoError,
                 "load_checkpoint: cannot open " + path,
                 SourceContext{path});
  }
  auto result = load_checkpoint(is);
  if (!result.is_ok()) {
    Error e = result.error();
    SourceContext ctx = e.context();
    ctx.file = path;
    return Error(e.code(), e.message(), std::move(ctx));
  }
  return result;
}

PipelineResult run_pipeline(const bio::ReadSet& reads,
                            const simt::DeviceSpec& device,
                            const PipelineOptions& opts, std::ostream* log) {
  PipelineResult result;

  trace::Tracer* const tracer = opts.assembly.trace;
  const std::uint32_t driver_track =
      tracer != nullptr ? tracer->track("host", "driver") : 0;
  const double pipeline_t0 =
      tracer != nullptr ? tracer->host_now_us() : 0.0;

  // Stage-level counter attribution: the pipeline node parents every stage
  // node, and each k-round parents the assembler's per-launch tree, so the
  // profile reconciles bottom-up to the run totals (see DESIGN.md).
  trace::AttributionProfile* const profile =
      tracer != nullptr ? &tracer->attribution() : nullptr;
  trace::AttributionProfile::Scope pipeline_scope(profile, "pipeline");

  // One shared thread pool for the whole pipeline: the front-end stages
  // run on it as host batches and every simulated-assembly round runs its
  // warp launches on it, so threads spawn once per pipeline instead of
  // once per stage. n_threads == 1 (no pool) is the serial oracle; an
  // armed kPoolStart fault seam degrades the pool at construction exactly
  // as it would degrade each per-round pool (the seam is a pure function
  // of the plan).
  std::optional<core::LocalAssembler> assembler;
  if (!opts.use_reference) assembler.emplace(device, opts.assembly);
  std::unique_ptr<core::WarpExecutionEngine> pool;
  if (core::resolve_threads(opts.assembly.n_threads) > 1) {
    pool = assembler.has_value()
               ? assembler->make_engine()
               : std::make_unique<core::WarpExecutionEngine>(
                     device, device.native_model, opts.assembly,
                     core::resolve_threads(opts.assembly.n_threads));
  }

  // Resume: adopt a matching checkpoint's state and skip its completed
  // work. A missing file is the normal cold start; a corrupt or
  // differently-configured checkpoint is ignored (and logged), never
  // trusted.
  std::size_t rounds_done = 0;
  bool resumed = false;
  if (!opts.checkpoint_path.empty()) {
    auto loaded = load_checkpoint_file(opts.checkpoint_path);
    if (loaded.is_ok()) {
      PipelineCheckpoint cp = std::move(loaded).take();
      if (cp.contig_k == opts.contig_k &&
          cp.k_iterations == opts.k_iterations) {
        result.contigs = std::move(cp.contigs);
        result.dbg = cp.dbg;
        result.kmers_total = cp.kmers_total;
        result.kmers_filtered = cp.kmers_filtered;
        result.iterations = std::move(cp.iterations);
        rounds_done = cp.rounds_done;
        resumed = true;
        if (log != nullptr) {
          *log << "[pipeline] resumed from " << opts.checkpoint_path
               << ": " << rounds_done << "/" << opts.k_iterations.size()
               << " k-rounds already done\n";
        }
      } else if (log != nullptr) {
        *log << "[pipeline] ignoring checkpoint " << opts.checkpoint_path
             << ": configuration mismatch\n";
      }
    } else if (loaded.error().code() != ErrorCode::kIoError &&
               log != nullptr) {
      *log << "[pipeline] ignoring checkpoint: "
           << loaded.error().to_string() << "\n";
    }
  }

  const auto checkpoint_now = [&](std::size_t done) {
    if (opts.checkpoint_path.empty()) return;
    PipelineCheckpoint cp;
    cp.contig_k = opts.contig_k;
    cp.k_iterations = opts.k_iterations;
    cp.rounds_done = static_cast<std::uint32_t>(done);
    cp.kmers_total = result.kmers_total;
    cp.kmers_filtered = result.kmers_filtered;
    cp.dbg = result.dbg;
    cp.contigs = result.contigs;
    cp.iterations = result.iterations;
    if (Status s = save_checkpoint_file(opts.checkpoint_path, cp);
        !s && log != nullptr) {
      *log << "[pipeline] checkpoint write failed: " << s.to_string()
           << "\n";
    }
  };

  if (!resumed) {
    // Stage 1: k-mer analysis with error filtering.
    double stage_t0 = pipeline_t0;
    trace::AttributionProfile::Scope kmer_scope(profile, "kmer_analysis");
    StageClock::time_point wall_t0 = StageClock::now();
    KmerCounts counts = count_kmers(reads, opts.contig_k,
                                    /*canonical=*/false, pool.get());
    result.frontend.count_s = stage_seconds(wall_t0);
    result.kmers_total = counts.size();
    wall_t0 = StageClock::now();
    result.kmers_filtered =
        filter_low_count(counts, opts.min_kmer_count, pool.get());
    result.frontend.filter_s = stage_seconds(wall_t0);
    record_stage(tracer, driver_track, "kmer_analysis", stage_t0,
                 trace::counter_args(kmer_scope.close()));
    record_stage_gauge(tracer, "kmer_count", result.frontend.count_s);
    record_stage_gauge(tracer, "kmer_filter", result.frontend.filter_s);
    if (tracer != nullptr) {
      tracer->metrics()
          .counter(trace::names::kPipelineKmersDistinct)
          .add(result.kmers_total);
      tracer->metrics()
          .counter(trace::names::kPipelineKmersFiltered)
          .add(result.kmers_filtered);
    }
    if (log != nullptr) {
      // Host wall clock stays out of the log: the log stream is part of
      // the bit-identical-at-every-thread-count contract. Timings live in
      // result.frontend and the stage gauges.
      *log << "[pipeline] k-mer analysis: " << result.kmers_total
           << " distinct k-mers, " << result.kmers_filtered
           << " filtered as likely errors\n";
    }

    // Stage 2: global de Bruijn graph -> contigs.
    stage_t0 = tracer != nullptr ? tracer->host_now_us() : 0.0;
    trace::AttributionProfile::Scope dbg_scope(profile, "contig_generation");
    wall_t0 = StageClock::now();
    result.contigs =
        generate_contigs(counts, opts.contig_k, opts.min_contig_len,
                         &result.dbg, pool.get());
    result.frontend.dbg_s = stage_seconds(wall_t0);
    record_stage(tracer, driver_track, "contig_generation", stage_t0,
                 trace::counter_args(dbg_scope.close()));
    record_stage_gauge(tracer, "contig_generation", result.frontend.dbg_s);
    if (tracer != nullptr) {
      tracer->metrics()
          .counter(trace::names::kPipelineContigs)
          .add(result.contigs.size());
    }
    if (log != nullptr) {
      *log << "[pipeline] contig generation: " << result.contigs.size()
           << " contigs, " << bio::total_contig_bases(result.contigs)
           << " bases, N50=" << bio::n50(result.contigs) << "\n";
    }
    checkpoint_now(0);
  }

  // Stage 3: iterative {alignment -> local assembly} over the k ladder.
  for (std::size_t round = rounds_done; round < opts.k_iterations.size();
       ++round) {
    const std::uint32_t k = opts.k_iterations[round];
    const double round_t0 =
        tracer != nullptr ? tracer->host_now_us() : 0.0;
    trace::AttributionProfile::Scope round_scope(
        profile, "k-round " + std::to_string(k));
    AlignStats astats;
    const StageClock::time_point align_t0 = StageClock::now();
    core::AssemblyInput input = align_reads_to_ends(
        std::move(result.contigs), reads, k, opts.aligner, &astats,
        pool.get());

    IterationReport report;
    report.k = k;
    report.mapped_reads = astats.aligned_left + astats.aligned_right;
    report.align_time_s = stage_seconds(align_t0);
    record_stage_gauge(tracer, "align", report.align_time_s);
    if (tracer != nullptr) {
      tracer->metrics()
          .counter(trace::names::kPipelineReadsMapped)
          .add(report.mapped_reads);
    }

    if (opts.use_reference) {
      // The reference honours the same n_threads knob as the simulator
      // (1 = serial oracle); both paths are bit-identical at any count.
      const auto exts =
          opts.assembly.n_threads == 1
              ? core::reference_extend(input, opts.assembly)
              : core::reference_extend_parallel(input, opts.assembly,
                                                opts.assembly.n_threads);
      for (std::size_t i = 0; i < input.contigs.size(); ++i) {
        report.extension_bases += exts[i].left.size() + exts[i].right.size();
        bio::apply_extension(input.contigs[i], exts[i]);
      }
    } else {
      core::AssemblyResult ar = assembler->run(input, pool.get());
      report.extension_bases = ar.total_extension_bases();
      report.kernel_time_s = ar.total_time_s;
      core::LocalAssembler::apply(input, ar);
    }

    result.contigs = std::move(input.contigs);
    report.contigs = result.contigs.size();
    report.total_bases = bio::total_contig_bases(result.contigs);
    report.n50 = bio::n50(result.contigs);
    record_stage(tracer, driver_track, "k-round " + std::to_string(k),
                 round_t0, trace::counter_args(round_scope.close()));
    result.iterations.push_back(report);
    checkpoint_now(round + 1);
    if (log != nullptr) {
      *log << "[pipeline] local assembly k=" << k << ": mapped "
           << report.mapped_reads << " reads, +" << report.extension_bases
           << " bases, N50=" << report.n50
           << ", kernel time=" << report.kernel_time_s * 1e3 << " ms\n";
    }
  }
  record_stage(tracer, driver_track, "pipeline", pipeline_t0,
               trace::counter_args(pipeline_scope.close()));
  return result;
}

}  // namespace lassm::pipeline
