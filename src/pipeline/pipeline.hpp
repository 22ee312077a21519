#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "core/assembler.hpp"
#include "pipeline/aligner.hpp"
#include "pipeline/dbg.hpp"
#include "pipeline/kmer_analysis.hpp"

/// The end-to-end mini-MetaHipMer pipeline (Fig. 2): k-mer analysis ->
/// global de Bruijn contig generation -> per-iteration {alignment -> local
/// assembly} over the production k ladder {21, 33, 55, 77}. run_pipeline
/// and dist::run_distributed share one stage loop (pipeline/driver.hpp).
namespace lassm::pipeline {

struct PipelineOptions {
  /// Mer sizes of the iterative local-assembly rounds (Fig. 2's loop).
  std::vector<std::uint32_t> k_iterations{21, 33, 55, 77};
  std::uint32_t contig_k = 21;        ///< k of the global de Bruijn graph
  std::uint32_t min_kmer_count = 2;   ///< k-mer analysis error filter
  std::uint32_t min_contig_len = 100;
  AlignerOptions aligner;
  /// Local assembly tunables; assembly.n_threads also sets the host
  /// parallelism of both the simulated kernel and the CPU reference.
  core::AssemblyOptions assembly;
  /// Run local assembly on the CPU reference instead of a simulated device
  /// (faster; no performance counters).
  bool use_reference = false;
  /// Checkpoint file path ("" = checkpointing off). With a path set, the
  /// pipeline state is written after k-mer analysis / contig generation and
  /// after every completed k-round; a fresh run that finds a loadable
  /// checkpoint whose configuration matches (same contig_k and k ladder)
  /// resumes from the last completed round instead of starting over. The
  /// resumed run's result is bit-identical to an uninterrupted one: the
  /// checkpoint round-trips contig depths and modelled times exactly.
  std::string checkpoint_path;
};

struct IterationReport {
  std::uint32_t k = 0;
  std::uint64_t contigs = 0;
  std::uint64_t total_bases = 0;
  std::uint64_t n50 = 0;
  std::uint64_t mapped_reads = 0;
  std::uint64_t extension_bases = 0;
  double kernel_time_s = 0.0;  ///< modelled device time (0 for reference)
};

struct PipelineResult {
  bio::ContigSet contigs;
  DbgStats dbg;
  std::uint64_t kmers_total = 0;
  std::uint64_t kmers_filtered = 0;
  std::vector<IterationReport> iterations;
};

/// On-disk pipeline state between k-rounds: everything stage 3 needs to
/// continue (contigs so far, per-round reports, stage-1/2 summary numbers)
/// plus the configuration fingerprint used to reject checkpoints from a
/// differently-configured run.
struct PipelineCheckpoint {
  std::uint32_t contig_k = 0;
  std::vector<std::uint32_t> k_iterations;  ///< full ladder of the run
  std::uint32_t rounds_done = 0;            ///< completed stage-3 rounds
  std::uint64_t kmers_total = 0;
  std::uint64_t kmers_filtered = 0;
  DbgStats dbg;
  bio::ContigSet contigs;                   ///< state after `rounds_done`
  std::vector<IterationReport> iterations;  ///< one per completed round
};

/// Writes/reads a checkpoint. Text format, versioned; doubles (contig
/// depth, modelled kernel time) round-trip bit-exactly via their IEEE bit
/// patterns. save returns kIoError if the stream fails; load returns
/// kParseError (with record context) on malformed/truncated input, non-ACGT
/// contig bases or a round k off the ladder, so a torn or doctored
/// checkpoint is rejected rather than resumed.
Status save_checkpoint(std::ostream& os, const PipelineCheckpoint& cp);
Result<PipelineCheckpoint> load_checkpoint(std::istream& is);

/// Path convenience wrappers. load returns kIoError when the file cannot
/// be opened (distinct from a corrupt file's kParseError).
Status save_checkpoint_file(const std::string& path,
                            const PipelineCheckpoint& cp);
Result<PipelineCheckpoint> load_checkpoint_file(const std::string& path);

/// Assembles `reads` on the given device model. `log` (optional) receives a
/// line per stage.
///
/// When assembly.n_threads resolves to more than one worker, the pipeline
/// creates a single warp-execution pool up front and shares it across the
/// front-end stages (k-mer counting/filtering, contig generation, per-round
/// alignment) and every round's local-assembly launches, so no stage
/// respawns threads. Every output is bit-identical at every thread count;
/// threads are purely a throughput knob.
///
/// A device lost mid-round reruns its unfinished contigs (recover_on_device)
/// and the rerun's modelled time adds to kernel_time_s.
///
/// The result holds no host time. With assembly.trace set, each stage is a
/// trace::Span: its attribution node carries the stage's host seconds
/// (host_s) under the root "pipeline" node.
PipelineResult run_pipeline(const bio::ReadSet& reads,
                            const simt::DeviceSpec& device,
                            const PipelineOptions& opts = {},
                            std::ostream* log = nullptr);

}  // namespace lassm::pipeline
