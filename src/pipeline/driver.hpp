#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "pipeline/pipeline.hpp"

namespace lassm::trace {
class AttributionProfile;
}  // namespace lassm::trace

/// Private seam between the one pipeline driver and its two front ends.
/// run_stages owns the Fig. 2 stage sequence for run_pipeline and
/// dist::run_distributed alike: pool and assembler, the "driver" track, the
/// stage spans (attribution nodes with host time), pipeline.* counters,
/// log lines, checkpointing and the k-round loop with its reference path,
/// single-device round and IterationReport.
namespace lassm::pipeline::detail {

/// The stages that differ between one rank and a rank fleet. The base
/// class is run_pipeline's front end (one shared count table, walked by
/// the single-rank de Bruijn step loop); dist::run_distributed overrides
/// what a rank fleet does differently.
class FrontEnd {
 public:
  FrontEnd(const bio::ReadSet& reads, const PipelineOptions& opts)
      : reads(reads), opts(opts) {}
  FrontEnd(const FrontEnd&) = delete;
  FrontEnd& operator=(const FrontEnd&) = delete;
  virtual ~FrontEnd() = default;

  const bio::ReadSet& reads;
  const PipelineOptions& opts;
  /// The log-line prefix and the root span.
  const char* log_prefix = "[pipeline]";
  const char* root_span = "pipeline";
  /// Where the single-device round records its faults (null: nowhere).
  resilience::FailureReport* failures = nullptr;

  /// Stage 1 returns the distinct and then the filtered k-mer counts.
  virtual std::uint64_t count(core::WarpExecutionEngine* pool);
  virtual std::uint64_t filter(core::WarpExecutionEngine* pool);
  virtual bio::ContigSet contigs(DbgStats* stats,
                                 core::WarpExecutionEngine* pool);

  /// Bracket every stage inside its span.
  virtual void begin_stage() {}
  virtual void end_stage(trace::AttributionProfile* /*profile*/) {}
  /// Runs before round `round`'s alignment.
  virtual void begin_round(std::size_t /*round*/) {}
  /// Assembles a round on more than one device into `out` (extensions
  /// and total_time_s), on run_stages's pool; false leaves it to
  /// run_stages's single device.
  virtual bool assemble(const core::AssemblyInput& /*input*/,
                        core::AssemblyResult& /*out*/,
                        core::WarpExecutionEngine* /*pool*/) {
    return false;
  }
  /// The fault-plan rank the single-device round runs as.
  virtual std::uint32_t device_rank() const {
    return opts.assembly.fault_rank;
  }

  /// Log text after "k-mer analysis" / "local assembly k=K", and after the
  /// filtered k-mer count.
  virtual std::string ranks_note() const { return ""; }
  virtual std::string kmer_note() const { return " as likely errors"; }

 private:
  KmerCounts counts_;
};

/// Runs the stages on `front`; checkpoints when opts.checkpoint_path is set.
PipelineResult run_stages(const simt::DeviceSpec& device, std::ostream* log,
                          FrontEnd& front);

}  // namespace lassm::pipeline::detail
