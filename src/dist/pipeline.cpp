#include "dist/pipeline.hpp"

#include <ostream>
#include <string>
#include <utility>

#include "dist/dist_table.hpp"
#include "dist/frontend.hpp"
#include "pipeline/driver.hpp"
#include "pipeline/multi_gpu.hpp"
#include "trace/log.hpp"
#include "trace/trace.hpp"

namespace lassm::dist {

namespace {

/// Rank-loss phase ordinals (the FaultPlan key is (phase << 32) | rank):
/// 0 fires before counting, 1 after counting (exercising the orphan-shard
/// recount), 2 + round before each local-assembly round.
constexpr std::uint32_t kPhasePreCount = 0;
constexpr std::uint32_t kPhasePostCount = 1;
constexpr std::uint32_t kPhaseRoundBase = 2;

std::uint64_t rank_loss_key(std::uint32_t phase, std::uint32_t rank) {
  return (static_cast<std::uint64_t>(phase) << 32) | rank;
}

/// run_distributed's front end: the sharded k-mer table and DBG, rank loss
/// at phase boundaries, per-stage traffic attribution, and multi-device
/// rounds while more than one rank is live.
class RankFleet final : public pipeline::detail::FrontEnd {
 public:
  RankFleet(const bio::ReadSet& reads, const simt::DeviceSpec& device,
            const pipeline::PipelineOptions& opts, std::uint32_t ranks,
            std::ostream* log, DistResult& result)
      : FrontEnd(reads, opts),
        device_(device),
        log_(log),
        result_(result),
        map_(ranks),
        msg_(map_.n_ranks(), DistKmerTable::kNumChannels, device.net,
             opts.assembly.fault_plan),
        table_(map_, msg_) {
    log_prefix = "[dist]";
    root_span = "dist_pipeline";
    failures = &result.failures;
  }

  std::uint64_t count(core::WarpExecutionEngine* pool) override {
    fire_rank_losses(kPhasePreCount);
    const CountStats cstats = count_kmers_dist(
        table_, reads, opts.contig_k, ~std::uint64_t{0}, pool);
    result_.count_windows = cstats.windows;
    result_.count_remote_msgs = cstats.remote_msgs;
    result_.count_remote_msgs_model = cstats.remote_msgs_model;

    // Per-rank counting accounting (block sizes mirror the frontend's
    // contiguous split over the ranks live at count time).
    result_.ranks.resize(map_.n_ranks());
    const std::vector<std::uint32_t> live = map_.live_ranks();
    for (std::uint32_t r = 0; r < map_.n_ranks(); ++r) {
      result_.ranks[r].rank = r;
    }
    for (std::size_t li = 0; li < live.size(); ++li) {
      result_.ranks[live[li]].reads = reads.size() * (li + 1) / live.size() -
                                      reads.size() * li / live.size();
      result_.ranks[live[li]].kmers = table_.local(live[li]).size();
    }

    // A post-count loss exercises the recovery path: survivors adopt the
    // orphaned shards and recount them from the full read set (orphan
    // k-mers appear in every rank's reads, so everyone rescans).
    if (const std::uint64_t orphan_mask = fire_rank_losses(kPhasePostCount);
        orphan_mask != 0) {
      for (std::uint32_t r = 0; r < map_.n_ranks(); ++r) {
        if (!map_.live(r)) table_.local(r) = pipeline::KmerCounts{};
      }
      count_kmers_dist(table_, reads, opts.contig_k, orphan_mask, pool);
      for (const std::uint32_t r : map_.live_ranks()) {
        result_.ranks[r].kmers = table_.local(r).size();
      }
      if (log_ != nullptr) {
        *log_ << "[dist] recounted orphaned shards: " << table_.total_size()
              << " distinct k-mers after recovery\n";
      }
    }
    return table_.total_size();
  }

  std::uint64_t filter(core::WarpExecutionEngine* pool) override {
    return filter_low_count_dist(table_, opts.min_kmer_count, pool);
  }

  bio::ContigSet contigs(pipeline::DbgStats* stats,
                         core::WarpExecutionEngine* pool) override {
    return generate_contigs_dist(table_, opts.contig_k,
                                 opts.min_contig_len, stats, pool);
  }

  /// A stage's message traffic is the one CounterVector part dist owns.
  void begin_stage() override { stage_traffic_ = msg_.traffic(); }
  void end_stage(trace::AttributionProfile* profile) override {
    if (profile == nullptr) return;
    const TrafficStats delta = msg_.traffic().minus(stage_traffic_);
    trace::CounterVector cv;
    cv.dist_msgs = delta.msgs;
    cv.dist_bytes = delta.bytes;
    profile->add(cv);
  }

  void begin_round(std::size_t round) override {
    round_ = round;
    fire_rank_losses(kPhaseRoundBase + static_cast<std::uint32_t>(round));
  }

  bool assemble(const core::AssemblyInput& input, core::AssemblyResult& out,
                core::WarpExecutionEngine* pool) override {
    const std::vector<std::uint32_t> live = map_.live_ranks();
    if (live.size() == 1) {
      // One live rank: the exact single-device call run_pipeline makes,
      // as the survivor (device_rank). The multi-GPU path would LPT-reorder
      // the contig list, which changes modelled batch overlap and so
      // kernel_time_s — results stay identical but the R=1 anchor pins
      // the time bits too.
      return false;
    }

    const std::vector<simt::DeviceSpec> devices(live.size(), device_);
    pipeline::MultiGpuResult mgr = pipeline::run_multi_gpu_resilient(
        input, devices, opts.assembly, opts.assembly.fault_plan, &live, pool);

    // Owner-computes partitioning of the round: each worker's contigs and
    // their reads scatter from the coordinator (lowest live rank), and
    // their extensions gather back. Payloads stay in shared memory; the
    // traffic is billed on the matching links, priced from the run's own
    // partition (mgr.ranks[p].contig_ids).
    if (input.num_contigs() > 0) {
      for (std::size_t p = 1; p < live.size(); ++p) {
        const pipeline::RankReport& rep = mgr.ranks[p];
        if (rep.contig_ids.empty()) continue;
        std::uint64_t bytes = 0;
        for (const std::uint32_t id : rep.contig_ids) {
          bytes += input.contigs[id].seq.size();
          for (const auto* side : {&input.left_reads, &input.right_reads}) {
            for (const std::uint32_t read : (*side)[id]) {
              bytes += input.reads.seq(read).size();
            }
          }
        }
        msg_.bill_bulk(live[0], live[p], rep.contig_ids.size() + rep.reads,
                       bytes);
      }
      msg_.flush();
      for (std::size_t p = 1; p < live.size(); ++p) {
        const pipeline::RankReport& rep = mgr.ranks[p];
        if (rep.contig_ids.empty()) continue;
        std::uint64_t bytes = 0;
        for (const std::uint32_t id : rep.contig_ids) {
          bytes += mgr.extensions[id].left.size() +
                   mgr.extensions[id].right.size();
        }
        msg_.bill_bulk(live[p], live[0], rep.contig_ids.size(), bytes);
      }
      msg_.flush();
    }

    // mgr.failures already counts each lost device and holds its contig
    // RebalanceEvent (with physical rank ids). A device lost mid-round is
    // a rank lost for the rest of the run: survivors adopt its shards.
    result_.failures.merge(mgr.failures);
    for (const pipeline::RankReport& rep : mgr.ranks) {
      if (!rep.lost || !map_.live(rep.rank) || map_.n_live() <= 1) continue;
      const std::vector<std::uint32_t> orphans =
          lose_rank(rep.rank, kPhaseRoundBase + round_, "device_loss");
      if (log_ != nullptr) {
        *log_ << "[dist] rank " << rep.rank << " lost mid-round k="
              << input.kmer_len << ": " << orphans.size()
              << " shards adopted by " << map_.n_live() << " survivors\n";
      }
    }
    out.extensions = std::move(mgr.extensions);
    out.total_time_s = mgr.makespan_s;
    return true;
  }

  std::uint32_t device_rank() const override {
    return map_.live_ranks().front();
  }

  std::string ranks_note() const override {
    return " (" + std::to_string(map_.n_live()) + " ranks)";
  }
  std::string kmer_note() const override {
    return ", " + std::to_string(result_.count_remote_msgs) +
           " remote inserts";
  }

  /// Whole-run traffic and per-rank shard accounting, after the last round.
  void finish() {
    result_.traffic = msg_.traffic();
    result_.network_s = result_.traffic.network_s;
    for (std::uint32_t r = 0; r < map_.n_ranks(); ++r) {
      result_.ranks[r].lost = !map_.live(r);
      result_.ranks[r].shards = map_.shards_of(r).size();
    }
  }

 private:
  /// Kills every live rank the plan schedules for `phase` (never the last
  /// one), adopting its shards. Returns the union mask of orphaned shards.
  std::uint64_t fire_rank_losses(std::uint32_t phase) {
    std::uint64_t orphan_mask = 0;
    const resilience::FaultPlan* const plan = opts.assembly.fault_plan;
    if (plan == nullptr) return orphan_mask;
    for (const std::uint32_t rank : map_.live_ranks()) {
      if (map_.n_live() <= 1) break;
      if (!plan->fires(resilience::Seam::kRankLoss,
                       rank_loss_key(phase, rank))) {
        continue;
      }
      const std::vector<std::uint32_t> orphans =
          lose_rank(rank, phase, "rank_loss");
      for (const std::uint32_t s : orphans) {
        orphan_mask |= std::uint64_t{1} << s;
      }
      resilience::RebalanceEvent ev;
      ev.lost_rank = rank;
      ev.after_batch = phase;
      ev.moved_contigs = orphans.size();
      ev.survivors = map_.live_ranks();
      result_.failures.rebalances.push_back(std::move(ev));
      ++result_.failures.devices_lost;
      if (log_ != nullptr) {
        *log_ << "[dist] rank " << rank << " lost at phase " << phase << ": "
              << orphans.size() << " shards adopted by " << map_.n_live()
              << " survivors\n";
      }
    }
    return orphan_mask;
  }

  /// Drops `rank` from the fleet; survivors adopt its shards (returned).
  std::vector<std::uint32_t> lose_rank(std::uint32_t rank, std::uint32_t phase,
                                       const char* cause) {
    std::vector<std::uint32_t> orphans = map_.adopt(rank);
    (void)lassm::log::Logger::instance().incident(
        "rank_lost", {trace::Arg::n("rank", rank), trace::Arg::n("phase", phase),
                      trace::Arg::s("cause", cause),
                      trace::Arg::n("orphan_shards", orphans.size()),
                      trace::Arg::n("survivors", map_.n_live())});
    if (trace::Tracer* tracer = opts.assembly.trace; tracer != nullptr) {
      tracer->metrics().counter(trace::names::kDistRankLosses).add(1);
    }
    return orphans;
  }

  const simt::DeviceSpec& device_;
  std::ostream* const log_;
  DistResult& result_;
  ShardMap map_;
  MessageLayer msg_;
  DistKmerTable table_;
  TrafficStats stage_traffic_;
  std::size_t round_ = 0;
};

}  // namespace

DistResult run_distributed(const bio::ReadSet& reads,
                           const simt::DeviceSpec& device,
                           const DistOptions& opts, std::ostream* log) {
  DistResult result;
  pipeline::PipelineOptions popts = opts.pipeline;
  if (!popts.checkpoint_path.empty()) {
    if (log != nullptr) {
      *log << "[dist] checkpointing is not supported distributed; "
              "ignoring checkpoint_path\n";
    }
    popts.checkpoint_path.clear();
  }
  RankFleet fleet(reads, device, popts, opts.ranks, log, result);
  result.pipeline = pipeline::detail::run_stages(device, log, fleet);
  fleet.finish();

  trace::Tracer* const tracer = popts.assembly.trace;
  if (tracer != nullptr) {
    auto& m = tracer->metrics();
    m.counter(trace::names::kDistMsgs).add(result.traffic.msgs);
    m.counter(trace::names::kDistBytes).add(result.traffic.bytes);
    m.counter(trace::names::kDistBatches).add(result.traffic.batches);
    m.counter(trace::names::kDistMsgDrops).add(result.traffic.drops);
    m.counter(trace::names::kDistRetransmits)
        .add(result.traffic.retransmits);
    m.counter(trace::names::kDistFlushes).add(result.traffic.flushes);
    m.gauge(trace::names::kDistNetworkSeconds).set(result.network_s);
  }
  if (log != nullptr) {
    *log << "[dist] traffic: " << result.traffic.msgs << " msgs, "
         << result.traffic.bytes << " bytes, " << result.traffic.batches
         << " batches (" << result.traffic.drops << " dropped), "
         << result.traffic.flushes << " flushes\n";
  }
  return result;
}

}  // namespace lassm::dist
