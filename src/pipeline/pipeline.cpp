#include "pipeline/pipeline.hpp"

#include <bit>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <ostream>
#include <sstream>

#include "bio/dna.hpp"
#include "core/exec.hpp"
#include "core/reference.hpp"
#include "pipeline/driver.hpp"
#include "pipeline/kmer_analysis.hpp"
#include "pipeline/multi_gpu.hpp"
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

void add_counter(trace::Tracer* tracer, const char* name, std::uint64_t n) {
  if (tracer != nullptr) tracer->metrics().counter(name).add(n);
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
    if (!bio::is_valid_sequence(c.seq)) return fail("contig bases", i + 1);
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
    if (it.k != cp.k_iterations[i]) return fail("iteration k", i + 1);
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

namespace detail {

std::uint64_t FrontEnd::count(core::WarpExecutionEngine* pool) {
  counts_ = count_kmers(reads, opts.contig_k, /*canonical=*/false, pool);
  return counts_.size();
}

std::uint64_t FrontEnd::filter(core::WarpExecutionEngine* pool) {
  return filter_low_count(counts_, opts.min_kmer_count, pool);
}

bio::ContigSet FrontEnd::contigs(DbgStats* stats,
                                 core::WarpExecutionEngine* pool) {
  bio::ContigSet contigs = generate_contigs(
      counts_, opts.contig_k, opts.min_contig_len, stats, pool);
  counts_ = KmerCounts{};  // the rounds never read the table again
  return contigs;
}

PipelineResult run_stages(const simt::DeviceSpec& device, std::ostream* log,
                          FrontEnd& front) {
  const bio::ReadSet& reads = front.reads;
  const PipelineOptions& opts = front.opts;
  PipelineResult result;

  trace::Tracer* const tracer = opts.assembly.trace;
  const std::uint32_t driver_track =
      tracer != nullptr ? tracer->track("host", "driver") : 0;
  const auto span = [&](std::string name) {
    return trace::Span(tracer, driver_track, std::move(name));
  };

  // Stage-level attribution: the root node parents every stage node, and
  // each k-round parents its align node and the assembler's per-launch
  // tree, so the profile reconciles bottom-up to the run totals and every
  // node carries its host seconds (see DESIGN.md).
  trace::AttributionProfile* const profile =
      tracer != nullptr ? &tracer->attribution() : nullptr;
  trace::Span root_span = span(front.root_span);

  // One shared thread pool for the whole pipeline: the front-end stages
  // run on it as host batches and every simulated-assembly round (on one
  // device or on every rank of a fleet, recovery reruns included) runs
  // its warp launches on it, so threads spawn once per pipeline instead of
  // once per stage or rank. n_threads == 1 (no pool) is the serial oracle;
  // an armed kPoolStart fault seam degrades the pool at construction
  // exactly as it would degrade each per-round pool (the seam is a pure
  // function of the plan).
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
    trace::Span kmer_span = span("kmer_analysis");
    front.begin_stage();
    trace::Span count_span = span("kmer_count");
    result.kmers_total = front.count(pool.get());
    count_span.close();
    trace::Span filter_span = span("kmer_filter");
    result.kmers_filtered = front.filter(pool.get());
    filter_span.close();
    front.end_stage(profile);
    kmer_span.close();
    add_counter(tracer, trace::names::kPipelineKmersDistinct,
                result.kmers_total);
    add_counter(tracer, trace::names::kPipelineKmersFiltered,
                result.kmers_filtered);
    if (log != nullptr) {
      // Host wall clock stays out of the log: the log stream is part of
      // the bit-identical-at-every-thread-count contract. Timings live in
      // the attribution tree's host_s.
      *log << front.log_prefix << " k-mer analysis" << front.ranks_note()
           << ": " << result.kmers_total << " distinct k-mers, "
           << result.kmers_filtered << " filtered" << front.kmer_note()
           << "\n";
    }

    // Stage 2: global de Bruijn graph -> contigs.
    trace::Span dbg_span = span("contig_generation");
    front.begin_stage();
    result.contigs = front.contigs(&result.dbg, pool.get());
    front.end_stage(profile);
    dbg_span.close();
    add_counter(tracer, trace::names::kPipelineContigs, result.contigs.size());
    if (log != nullptr) {
      *log << front.log_prefix << " contig generation: "
           << result.contigs.size() << " contigs, "
           << bio::total_contig_bases(result.contigs)
           << " bases, N50=" << bio::n50(result.contigs) << "\n";
    }
    checkpoint_now(0);
  }

  // Stage 3: iterative {alignment -> local assembly} over the k ladder.
  for (std::size_t round = rounds_done; round < opts.k_iterations.size();
       ++round) {
    const std::uint32_t k = opts.k_iterations[round];
    trace::Span round_span = span("k-round " + std::to_string(k));
    front.begin_stage();
    front.begin_round(round);
    AlignStats astats;
    trace::Span align_span = span("align");
    core::AssemblyInput input = align_reads_to_ends(
        std::move(result.contigs), reads, k, opts.aligner, &astats,
        pool.get());
    align_span.close();

    IterationReport report;
    report.k = k;
    report.mapped_reads = astats.aligned_left + astats.aligned_right;
    add_counter(tracer, trace::names::kPipelineReadsMapped,
                report.mapped_reads);

    core::AssemblyResult out;
    if (opts.use_reference) {
      // The reference honours the same n_threads knob as the simulator
      // (1 = serial oracle); both paths are bit-identical at any count.
      // It is never distributed: no modelled device or network.
      out.extensions =
          opts.assembly.n_threads == 1
              ? core::reference_extend(input, opts.assembly)
              : core::reference_extend_parallel(input, opts.assembly,
                                                opts.assembly.n_threads);
    } else if (!front.assemble(input, out, pool.get())) {
      // One device, run as front.device_rank(). A device lost mid-round
      // reruns its unfinished contigs under kRecoveryRank, so the round
      // matches an undisturbed run.
      core::AssemblyOptions as_rank = opts.assembly;
      as_rank.fault_rank = front.device_rank();
      const core::LocalAssembler one(device, as_rank);
      out = one.run(input, pool.get());
      recover_on_device(one, input, out, pool.get());
      if (front.failures != nullptr) front.failures->merge(out.failures);
    }
    report.extension_bases = out.total_extension_bases();
    report.kernel_time_s = out.total_time_s;
    core::LocalAssembler::apply(input, out);

    result.contigs = std::move(input.contigs);
    report.contigs = result.contigs.size();
    report.total_bases = bio::total_contig_bases(result.contigs);
    report.n50 = bio::n50(result.contigs);
    front.end_stage(profile);
    round_span.close();
    result.iterations.push_back(report);
    checkpoint_now(round + 1);
    if (log != nullptr) {
      *log << front.log_prefix << " local assembly k=" << k
           << front.ranks_note() << ": mapped " << report.mapped_reads
           << " reads, +" << report.extension_bases
           << " bases, N50=" << report.n50
           << ", kernel time=" << report.kernel_time_s * 1e3 << " ms\n";
    }
  }
  root_span.close();
  return result;
}

}  // namespace detail

PipelineResult run_pipeline(const bio::ReadSet& reads,
                            const simt::DeviceSpec& device,
                            const PipelineOptions& opts, std::ostream* log) {
  detail::FrontEnd front(reads, opts);
  return detail::run_stages(device, log, front);
}

}  // namespace lassm::pipeline
