#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "dist/message_layer.hpp"
#include "pipeline/pipeline.hpp"
#include "resilience/report.hpp"

/// Distributed (simulated multi-rank) end-to-end pipeline: the graph — not
/// just the contig list — is partitioned. Each rank owns a contiguous
/// range of the k-mer table's 64 hash shards (dist::ShardMap), counts and
/// filters its shards locally with batched remote inserts, classifies its
/// de Bruijn nodes into the single-rank walker's slot array from batched
/// remote degree probes and walks them with that walker's step loop,
/// handing a walk to the next node's owner where it crosses ranks
/// (dist::frontend). The per-round local assembly runs one simulated
/// device per live rank through pipeline::run_multi_gpu_resilient, on the
/// driver's one thread pool. All communication is billed through one
/// MessageLayer against the device's NetworkSpec. The stage loop is
/// run_pipeline's (pipeline/driver.hpp); this driver adds only what a rank
/// fleet does.
///
/// Contract: every pipeline output (contigs, extensions, per-round stats,
/// DBG stats) is bit-identical to pipeline::run_pipeline on one rank, for
/// every rank count, thread count and traced/untraced combination — ranks
/// and threads are throughput/cost knobs, never result knobs. Rank loss
/// (the FaultPlan rank_loss seam at phase boundaries, or device_loss
/// mid-round) recovers bit-identically: survivors adopt the lost rank's
/// shard range and recount the orphaned shards from the full read set. A
/// round with one live rank runs as that rank's device, and recovers from
/// its loss as in run_pipeline.
namespace lassm::dist {

struct DistOptions {
  /// Simulated ranks (clamped to [1, ShardMap::kMaxRanks]). 1 degenerates
  /// to the single-rank pipeline with zero traffic.
  std::uint32_t ranks = 1;
  /// The inner pipeline configuration. checkpoint_path is ignored (the
  /// distributed driver does not checkpoint); the assembly fault plan's
  /// rank_loss / rank_msg_drop / device_loss seams are honoured.
  pipeline::PipelineOptions pipeline;
};

/// Per-rank front-end accounting.
struct DistRankReport {
  std::uint32_t rank = 0;
  bool lost = false;           ///< rank died at some point of the run
  std::uint64_t reads = 0;     ///< reads in the rank's counting block
  std::uint64_t kmers = 0;     ///< distinct owned k-mers after counting
  std::uint64_t shards = 0;    ///< hash shards owned at end of run
};

struct DistResult {
  /// Bit-identical to run_pipeline's result on the same reads/device/
  /// options, except that a round on more than one live rank reports the
  /// modelled makespan over those ranks as its kernel_time_s.
  pipeline::PipelineResult pipeline;
  std::vector<DistRankReport> ranks;   ///< indexed by rank id
  TrafficStats traffic;                ///< whole-run message accounting
  resilience::FailureReport failures;  ///< rank losses + round-level faults
  std::uint64_t count_windows = 0;     ///< k-mer windows scanned (count)
  std::uint64_t count_remote_msgs = 0; ///< measured remote inserts (count)
  double count_remote_msgs_model = 0.0;///< analytic prediction of the above
  double network_s = 0.0;              ///< modelled network seconds, whole run
};

/// Runs the distributed pipeline. `log` (optional) receives one line per
/// stage; like run_pipeline, the log stream carries no wall-clock values,
/// so it is bit-identical at every thread count.
DistResult run_distributed(const bio::ReadSet& reads,
                           const simt::DeviceSpec& device,
                           const DistOptions& opts = {},
                           std::ostream* log = nullptr);

}  // namespace lassm::dist
