#include "core/assembler.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "bio/dna.hpp"
#include "core/binning.hpp"
#include "core/exec.hpp"
#include "core/ladder.hpp"
#include "memsim/tiered.hpp"
#include "resilience/fault_plan.hpp"
#include "trace/log.hpp"
#include "trace/trace.hpp"

namespace lassm::core {

LocalAssembler::LocalAssembler(simt::DeviceSpec dev, simt::ProgrammingModel pm,
                               AssemblyOptions opts)
    : dev_(std::move(dev)), pm_(pm), opts_(opts) {
  // Fail fast with a typed, field-naming error instead of letting a
  // malformed configuration surface as UB deep inside the kernel.
  dev_.validate().throw_if_error();
  opts_.validate_for_device(dev_.max_subgroup()).throw_if_error();
}

LocalAssembler::LocalAssembler(simt::DeviceSpec dev, AssemblyOptions opts)
    : LocalAssembler(dev, dev.native_model, opts) {}

namespace {

/// Per-batch simulated device placement for one direction's launch.
struct BatchLayout {
  std::uint64_t reads_seq_base = 0;
  std::uint64_t reads_qual_base = 0;
  std::vector<std::uint64_t> contig_addr;   // per batch position
  std::vector<std::uint64_t> table_addr;
  std::vector<std::uint64_t> walkbuf_addr;
};

BatchLayout layout_batch(const AssemblyInput& in, const Batch& batch,
                         const AssemblyOptions& opts, Side side,
                         const bio::ReadSet& reads) {
  BatchLayout lay;
  memsim::AddressSpace as;
  lay.reads_seq_base = as.allocate(reads.total_bases());
  lay.reads_qual_base = as.allocate(reads.total_bases());
  lay.contig_addr.reserve(batch.contig_ids.size());
  lay.table_addr.reserve(batch.contig_ids.size());
  lay.walkbuf_addr.reserve(batch.contig_ids.size());
  const std::uint32_t floor_mer = ladder_min_mer(in.kmer_len, opts);
  for (std::uint32_t id : batch.contig_ids) {
    const auto& ids = side == Side::kRight ? in.right_reads[id]
                                           : in.left_reads[id];
    const std::uint64_t ins = side_insertions_at(in, ids, floor_mer);
    const std::uint32_t slots =
        ins == 0 ? 0
                 : LocHashTable::estimate_slots(ins, opts.table_load_factor);
    lay.contig_addr.push_back(as.allocate(in.contigs[id].length()));
    lay.table_addr.push_back(
        as.allocate(static_cast<std::uint64_t>(slots) * kEntryBytes, 128));
    lay.walkbuf_addr.push_back(as.allocate(
        in.kmer_len + opts.mer_ladder_step * opts.max_mer_rungs +
        opts.max_walk_len + 1));
  }
  return lay;
}

const char* side_name(Side s) noexcept {
  return s == Side::kRight ? "right" : "left";
}

const char* bound_name(simt::TimeBreakdown::Bound b) noexcept {
  switch (b) {
    case simt::TimeBreakdown::Bound::kIssue: return "issue";
    case simt::TimeBreakdown::Bound::kMemory: return "memory";
    case simt::TimeBreakdown::Bound::kLatency: break;
  }
  return "latency";
}

/// Reconstructs one launch's simulated-device timeline and records the
/// per-warp distributions. Runs on the driver thread after the
/// deterministic merge, from modelled cycle counts only — so the emitted
/// sim spans are bit-identical across host thread counts.
void emit_launch_trace(trace::Tracer& tracer, const simt::DeviceSpec& dev,
                       const LaunchBreakdown& launch,
                       const std::vector<WarpResult>& outcomes,
                       const trace::CounterVector& cv) {
  const std::size_t n_tasks = outcomes.size();
  trace::MetricsRegistry& reg = tracer.metrics();
  trace::Histogram& probe_hist = reg.histogram(
      trace::names::kHistProbeRounds, trace::Histogram::pow2_bounds(0, 7));
  trace::Histogram& walk_hist = reg.histogram(
      trace::names::kHistWalkLen, trace::Histogram::pow2_bounds(0, 9));
  trace::Histogram& rung_hist = reg.histogram(
      trace::names::kHistRungsPerTask, trace::Histogram::pow2_bounds(0, 4));

  // Place every warp onto an SM-equivalent lane (greedy earliest-finish in
  // merge order), then scale the makespan onto the modelled launch time.
  const std::string process = "sim:" + dev.name;
  const std::uint32_t max_lanes = static_cast<std::uint32_t>(
      std::clamp<std::uint64_t>(n_tasks, 1, dev.num_cus));
  trace::SimTimeline tl(tracer, process, max_lanes);
  std::vector<trace::SimTimeline::Placement> places;
  places.reserve(n_tasks);
  for (const WarpResult& wr : outcomes) {
    places.push_back(tl.place(wr.counters.cycles));
  }
  tl.seal(launch.time.total_s * 1e6);

  const std::string launch_name = std::string("launch ") +
                                  side_name(launch.side) + " batch " +
                                  std::to_string(launch.batch);
  trace::Event ev;
  ev.kind = trace::Event::Kind::kComplete;
  ev.track = tracer.track(process, "launches");
  ev.name = launch_name;
  ev.cat = "sim";
  ev.ts_us = tl.start_us();
  ev.dur_us = tl.end_us() - tl.start_us();
  ev.args = trace::counter_args(cv);
  ev.args.push_back(trace::Arg::s("bound", bound_name(launch.time.bound)));
  ev.args.push_back(trace::Arg::n("modeled_us", launch.time.total_s * 1e6));
  tracer.record(std::move(ev));

  for (std::size_t pos = 0; pos < n_tasks; ++pos) {
    const WarpResult& wr = outcomes[pos];
    const trace::SimTimeline::Placement& p = places[pos];
    const std::uint32_t track = tl.lane_track(p.lane);
    const double warp_ts = tl.to_us(p.start_cycles);
    const double warp_end = tl.to_us(p.start_cycles + wr.counters.cycles);
    trace::Event warp;
    warp.track = track;
    warp.name = "warp " + std::to_string(pos);
    warp.ts_us = warp_ts;
    warp.dur_us = warp_end - warp_ts;
    warp.args = {
        trace::Arg::n("cycles", static_cast<double>(wr.counters.cycles)),
        trace::Arg::n("probes", static_cast<double>(wr.counters.probes)),
        trace::Arg::s("outcome", walk_state_name(wr.final_state)),
        trace::Arg::n("mer", wr.accepted_mer),
    };
    tracer.record(std::move(warp));

    if (wr.trace == nullptr) continue;
    rung_hist.observe(wr.trace->rungs.size());
    for (const WarpTaskTrace::Rung& rung : wr.trace->rungs) {
      probe_hist.observe(rung.probe_rounds);
      walk_hist.observe(rung.walk_len);
      reg.counter(std::string(trace::names::kWalkOutcomePrefix) +
                  walk_state_name(rung.state))
          .add();

      const double rung_ts = tl.to_us(p.start_cycles + rung.start_cycles);
      const double mid =
          tl.to_us(p.start_cycles + rung.construct_end_cycles);
      const double rung_end = tl.to_us(p.start_cycles + rung.end_cycles);
      trace::Event re;
      re.track = track;
      re.name = "rung mer=" + std::to_string(rung.mer);
      re.ts_us = rung_ts;
      re.dur_us = rung_end - rung_ts;
      re.args = {
          trace::Arg::n("probe_rounds",
                        static_cast<double>(rung.probe_rounds)),
          trace::Arg::n("walk_len", rung.walk_len),
          trace::Arg::s("state", walk_state_name(rung.state)),
      };
      tracer.record(std::move(re));
      trace::Event ce;
      ce.track = track;
      ce.name = "construct";
      ce.ts_us = rung_ts;
      ce.dur_us = mid - rung_ts;
      tracer.record(std::move(ce));
      trace::Event we;
      we.track = track;
      we.name = "walk";
      we.ts_us = mid;
      we.dur_us = rung_end - mid;
      tracer.record(std::move(we));
    }
  }
}

}  // namespace

trace::CounterVector counter_vector(const simt::LaunchStats& stats,
                                    double sim_time_s) {
  trace::CounterVector cv;
  const simt::WarpCounters& t = stats.totals;
  cv.cycles = t.cycles;
  cv.instructions = t.instructions;
  cv.intops = t.intops;
  cv.issue_slots = t.issue_slots;
  cv.probes = t.probes;
  cv.insertions = t.insertions;
  cv.walk_steps = t.walk_steps;
  cv.atomics = t.atomics;
  cv.mer_retries = t.mer_retries;
  cv.mem_rounds = t.mem_rounds;
  const memsim::TrafficStats& m = stats.traffic;
  cv.mem_accesses = m.accesses;
  cv.lines_touched = m.lines_touched;
  cv.l1_hits = m.l1_hits;
  cv.l2_hits = m.l2_hits;
  cv.l1_evictions = m.l1_evictions;
  cv.l2_evictions = m.l2_evictions;
  cv.hbm_lines = m.hbm_lines;
  cv.hbm_read_bytes = m.hbm_read_bytes;
  cv.hbm_write_bytes = m.hbm_write_bytes;
  cv.warps = stats.num_warps;
  cv.sim_time_s = sim_time_s;
  return cv;
}

void record_run_metrics(const AssemblyResult& result,
                        trace::MetricsRegistry& registry) {
  const simt::WarpCounters& t = result.stats.totals;
  registry.counter(trace::names::kInstructions).add(t.instructions);
  registry.counter(trace::names::kIntops).add(result.stats.intop_count());
  registry.counter(trace::names::kIssueSlots).add(t.issue_slots);
  registry.counter(trace::names::kCycles).add(t.cycles);
  registry.counter(trace::names::kProbes).add(t.probes);
  registry.counter(trace::names::kInsertions).add(t.insertions);
  registry.counter(trace::names::kWalkSteps).add(t.walk_steps);
  registry.counter(trace::names::kAtomics).add(t.atomics);
  registry.counter(trace::names::kMerRetries).add(t.mer_retries);
  registry.counter(trace::names::kMemRounds).add(t.mem_rounds);

  const memsim::TrafficStats& m = result.stats.traffic;
  registry.counter(trace::names::kMemAccesses).add(m.accesses);
  registry.counter(trace::names::kMemLinesTouched).add(m.lines_touched);
  registry.counter(trace::names::kMemL1Hits).add(m.l1_hits);
  registry.counter(trace::names::kMemL2Hits).add(m.l2_hits);
  registry.counter(trace::names::kMemL1Evictions).add(m.l1_evictions);
  registry.counter(trace::names::kMemL2Evictions).add(m.l2_evictions);
  registry.counter(trace::names::kMemHbmLines).add(m.hbm_lines);
  registry.counter(trace::names::kMemHbmReadBytes).add(m.hbm_read_bytes);
  registry.counter(trace::names::kMemHbmWriteBytes).add(m.hbm_write_bytes);
  if (m.lines_touched > 0) {
    registry.gauge(trace::names::kMemL1HitRate)
        .set(static_cast<double>(m.l1_hits) /
             static_cast<double>(m.lines_touched));
    registry.gauge(trace::names::kMemL2HitRate)
        .set(static_cast<double>(m.l2_hits) /
             static_cast<double>(m.lines_touched));
  }

  registry.counter(trace::names::kLaunches)
      .add(result.launches.empty() ? result.stats.num_kernel_launches
                                   : result.launches.size());
  registry.counter(trace::names::kLaunchWarps).add(result.stats.num_warps);

  trace::Histogram& cycles_hist = registry.histogram(
      trace::names::kHistWarpCycles, trace::Histogram::pow2_bounds(8, 24));
  for (std::uint64_t c : result.stats.warp_cycles) cycles_hist.observe(c);
}

std::unique_ptr<WarpExecutionEngine> LocalAssembler::make_engine() const {
  return std::make_unique<WarpExecutionEngine>(
      dev_, pm_, opts_, resolve_threads(opts_.n_threads));
}

AssemblyResult LocalAssembler::run(const AssemblyInput& in,
                                   WarpExecutionEngine* external) const {
  if (in.left_reads.size() != in.contigs.size() ||
      in.right_reads.size() != in.contigs.size()) {
    throw std::invalid_argument(
        "LocalAssembler::run: read mapping size does not match contigs");
  }

  AssemblyResult result;
  result.extensions.resize(in.contigs.size());
  for (std::size_t i = 0; i < in.contigs.size(); ++i) {
    result.extensions[i].contig_id = in.contigs[i].id;
  }

  const std::vector<Batch> batches = make_batches(in, opts_);

  // Left extensions walk the reverse complement: reads aligned to the left
  // end, reverse complemented, extend the reverse complemented contig to
  // the right. Index correspondence with in.reads is preserved.
  bool any_left = false;
  for (const auto& v : in.left_reads) any_left = any_left || !v.empty();
  const bio::ReadSet rc_reads =
      any_left ? in.reads.reverse_complemented() : bio::ReadSet{};

  // Host-side execution engine (one pool for the whole run, both sides,
  // all batches). n_threads == 1 keeps the original single-context serial
  // path as the oracle. Host threading only changes who drives the
  // simulated warps — every task's result and every merged counter is
  // bit-identical either way, so the modelled time is too.
  //
  // An armed fault plan switches every launch onto the engine's isolated
  // path (even at one thread, where the engine runs caller-only — equal to
  // the serial oracle by the context reconfigure-equivalence contract), so
  // task exceptions quarantine instead of crashing the run.
  const resilience::FaultPlan* const plan = opts_.fault_plan;
  const bool armed = plan != nullptr;
  const unsigned n_threads = resolve_threads(opts_.n_threads);
  std::unique_ptr<WarpExecutionEngine> owned;
  WarpExecutionEngine* engine = nullptr;
  if (armed || (n_threads > 1 && in.contigs.size() > 1)) {
    // Prefer the caller's shared pool (made by make_engine(), so its
    // configuration matches); otherwise spin up a run-local one. Either
    // way an armed kPoolStart seam has already degraded the pool at its
    // construction — a pure function of the plan, so shared and run-local
    // pools degrade identically.
    if (external != nullptr) {
      engine = external;
    } else {
      owned = make_engine();
      engine = owned.get();
    }
    result.failures.serial_fallback = engine->degraded();
  }

  // Observability is strictly read-only: spans and metrics are recorded
  // from counters the run produces anyway, after the deterministic merge,
  // so every modelled number is bit-identical with tracing on or off.
  trace::Tracer* const tracer = opts_.trace;
  const std::uint32_t driver_track =
      tracer != nullptr ? tracer->track("host", "driver") : 0;

  // Counter attribution mirrors the span hierarchy: one "assembly" span
  // per run, one per side, one per launch — all opened/closed on the
  // driver thread, fed from the post-barrier merged counters, so it can
  // never perturb modelled numbers.
  trace::AttributionProfile* const profile =
      tracer != nullptr ? &tracer->attribution() : nullptr;
  const trace::Span run_span(tracer, driver_track, "assembly");

  // Launch ordinals for the device-loss seam: each completed (side, batch)
  // launch counts one; a scheduled loss fires between launches, exactly
  // like a device dropping out between kernel invocations.
  std::uint32_t batch_ordinal = 0;
  bool lost = false;

  for (Side side : {Side::kRight, Side::kLeft}) {
    if (lost) break;
    const bio::ReadSet& reads = side == Side::kRight ? in.reads : rc_reads;
    if (side == Side::kLeft && !any_left) continue;
    const trace::Span side_span(tracer, driver_track,
                                std::string("side ") + side_name(side));

    for (std::uint32_t b = 0; b < batches.size(); ++b) {
      const Batch& batch = batches[b];
      const std::size_t n_tasks = batch.contig_ids.size();
      const BatchLayout lay = layout_batch(in, batch, opts_, side, reads);
      trace::Span launch_span(tracer, driver_track,
                              std::string("launch ") + side_name(side) +
                                  " batch " + std::to_string(b));

      const std::uint64_t concurrency = std::max<std::uint64_t>(
          std::min<std::uint64_t>(n_tasks, dev_.max_concurrent_warps()), 1);

      LaunchBreakdown launch;
      launch.side = side;
      launch.batch = b;
      launch.stats.num_kernel_launches = 1;

      // Materialise the launch's tasks up front (the GPU driver stages the
      // whole batch before the kernel goes up). rc_contigs keeps the
      // reverse-complemented sequences alive behind the tasks' views.
      std::vector<WarpTask> tasks(n_tasks);
      std::vector<std::string> rc_contigs;
      if (side == Side::kLeft) rc_contigs.resize(n_tasks);
      for (std::size_t pos = 0; pos < n_tasks; ++pos) {
        const std::uint32_t id = batch.contig_ids[pos];
        WarpTask& task = tasks[pos];
        if (side == Side::kRight) {
          task.contig = in.contigs[id].seq;
        } else {
          rc_contigs[pos] = bio::reverse_complement(in.contigs[id].seq);
          task.contig = rc_contigs[pos];
        }
        task.contig_sim_addr = lay.contig_addr[pos];
        task.reads = &reads;
        task.read_ids = side == Side::kRight ? in.right_reads[id]
                                             : in.left_reads[id];
        task.reads_sim_base = lay.reads_seq_base;
        task.quals_sim_base = lay.reads_qual_base;
        task.table_sim_base = lay.table_addr[pos];
        task.walkbuf_sim_addr = lay.walkbuf_addr[pos];
        task.kmer_len = in.kmer_len;
        // Keyed by the contig's stable id (not its position), so fault
        // decisions survive re-partitioning — a device-loss recovery rerun
        // of this contig on another rank sees identical injections.
        task.fault_key =
            resilience::contig_fault_key(in.contigs[id].id,
                                         side == Side::kRight);
      }

      // Per-position warp outcomes; the extension strings are moved into
      // their pre-assigned result slots by whichever worker ran the task
      // (slots are disjoint — contig independence), while counters and
      // traffic stay here for the deterministic post-barrier merge.
      std::vector<WarpResult> outcomes(n_tasks);
      const auto process_attempt = [&](std::size_t pos,
                                       WarpKernelContext& ctx,
                                       unsigned attempt) {
        WarpResult wr = ctx.run(tasks[pos], attempt);
        bio::ContigExtension& ext =
            result.extensions[batch.contig_ids[pos]];
        if (side == Side::kRight) {
          ext.right = std::move(wr.extension);
          ext.right_mer_len = wr.accepted_mer;
        } else {
          ext.left = bio::reverse_complement(wr.extension);
          ext.left_mer_len = wr.accepted_mer;
          wr.extension.clear();
        }
        outcomes[pos] = std::move(wr);
      };
      const auto process = [&](std::size_t pos, WarpKernelContext& ctx) {
        process_attempt(pos, ctx, 0);
      };

      const std::size_t faults_before = result.failures.faults.size();
      if (armed) {
        // Isolated path: a throwing task (injected or organic) quarantines
        // after bounded retries instead of failing the launch; unaffected
        // tasks are untouched (disjoint slots, deterministic schedule).
        engine->run_batch_isolated(
            n_tasks, concurrency, process_attempt,
            [&](std::size_t pos) { return tasks[pos].fault_key; }, plan,
            opts_.max_task_retries, batch_ordinal, result.failures);
      } else if (engine != nullptr) {
        engine->run_batch(n_tasks, concurrency, process);
      } else {
        WarpKernelContext ctx(dev_, pm_, opts_, concurrency);
        for (std::size_t pos = 0; pos < n_tasks; ++pos) process(pos, ctx);
      }
      if (armed) {
        for (const WarpResult& wr : outcomes) {
          result.failures.mem_faults += wr.mem_faults;
          result.failures.walks_aborted += wr.walk_aborts;
        }
        if (tracer != nullptr) {
          for (std::size_t f = faults_before;
               f < result.failures.faults.size(); ++f) {
            const resilience::TaskFault& tf = result.failures.faults[f];
            tracer->instant(
                driver_track,
                tf.quarantined ? "task quarantined" : "task retried",
                "resilience",
                {trace::Arg::n("fault_key",
                               static_cast<double>(tf.fault_key)),
                 trace::Arg::n("batch", static_cast<double>(tf.batch)),
                 trace::Arg::n("attempts", tf.attempts),
                 trace::Arg::s("code", error_code_name(tf.code))});
          }
        }
      }

      // Merge in batch position (ascending contig-id within the batch's
      // schedule) order — byte-for-byte the serial merge, so totals,
      // warp_cycles and traffic are independent of which worker ran what.
      for (std::size_t pos = 0; pos < n_tasks; ++pos) {
        const WarpResult& wr = outcomes[pos];
        launch.stats.totals.merge(wr.counters);
        launch.stats.warp_cycles.push_back(wr.counters.cycles);
        launch.stats.traffic.add(wr.traffic);
        ++launch.stats.num_warps;
      }

      launch.time = simt::estimate_time(dev_, launch.stats);
      if (profile != nullptr) {
        profile->add(counter_vector(launch.stats, launch.time.total_s));
      }
      const trace::CounterVector launch_cv = launch_span.close();
      if (tracer != nullptr) {
        emit_launch_trace(*tracer, dev_, launch, outcomes, launch_cv);
      }
      result.stats.merge(launch.stats);
      result.launches.push_back(std::move(launch));
      ++batch_ordinal;

      // Device-loss seam: the simulated device drops out between kernel
      // launches. Completed launches' extensions were already copied back
      // (the real driver stages results per batch), so the run returns
      // early with them intact and lists what is left unfinished.
      if (armed && plan->device_lost(opts_.fault_rank, batch_ordinal)) {
        lost = true;
        result.device_lost = true;
        ++result.failures.devices_lost;
        (void)log::Logger::instance().incident(
            "device_lost",
            {trace::Arg::s("seam", "device_loss"),
             trace::Arg::n("rank", opts_.fault_rank),
             trace::Arg::n("after_batch", batch_ordinal)});
        if (tracer != nullptr) {
          tracer->instant(driver_track, "device lost", "resilience",
                          {trace::Arg::n("rank", opts_.fault_rank),
                           trace::Arg::n("after_batch", batch_ordinal)});
        }
        break;
      }
    }
  }
  // Batches are offloaded asynchronously (the MetaHipMer GPU driver keeps
  // multiple bins in flight), so the run executes as one scheduling pool:
  // the modelled total uses the merged warp stream, not the sum of
  // per-launch times (which would serialise every bin's straggler).
  result.completed_batches = batch_ordinal;
  if (lost) {
    // A contig is final only when every one of its launches completed.
    // Left launches (when present) run after all right launches, so a
    // batch's last ordinal is n_batches + b (or just b with no left side).
    for (std::uint32_t b = 0;
         b < static_cast<std::uint32_t>(batches.size()); ++b) {
      const std::uint32_t last_ordinal =
          any_left ? static_cast<std::uint32_t>(batches.size()) + b : b;
      if (last_ordinal < batch_ordinal) continue;
      for (std::uint32_t id : batches[b].contig_ids) {
        result.unfinished_contigs.push_back(id);
      }
    }
    std::sort(result.unfinished_contigs.begin(),
              result.unfinished_contigs.end());
  }

  result.time = simt::estimate_time(dev_, result.stats);
  result.total_time_s = result.time.total_s;
  if (armed && !result.failures.clean()) {
    const resilience::FailureReport& fr = result.failures;
    log::info("core", "run_faults",
              {trace::Arg::n("faults", static_cast<double>(fr.faults.size())),
               trace::Arg::n("retried",
                             static_cast<double>(fr.tasks_retried)),
               trace::Arg::n("quarantined",
                             static_cast<double>(fr.tasks_quarantined)),
               trace::Arg::n("mem_faults",
                             static_cast<double>(fr.mem_faults)),
               trace::Arg::n("walks_aborted",
                             static_cast<double>(fr.walks_aborted)),
               trace::Arg::n("devices_lost",
                             static_cast<double>(fr.devices_lost))});
  }
  if (tracer != nullptr) record_run_metrics(result, tracer->metrics());
  if (tracer != nullptr && armed) {
    trace::MetricsRegistry& reg = tracer->metrics();
    const resilience::FailureReport& fr = result.failures;
    reg.counter(trace::names::kResilienceFaultsInjected)
        .add(fr.faults.size() + fr.mem_faults + fr.walks_aborted +
             fr.devices_lost);
    reg.counter(trace::names::kResilienceTasksRetried).add(fr.tasks_retried);
    reg.counter(trace::names::kResilienceTasksQuarantined)
        .add(fr.tasks_quarantined);
    reg.counter(trace::names::kResilienceWalksAborted).add(fr.walks_aborted);
    reg.counter(trace::names::kResilienceMemFaults).add(fr.mem_faults);
    reg.counter(trace::names::kResilienceDevicesLost).add(fr.devices_lost);
  }
  return result;
}

void LocalAssembler::apply(AssemblyInput& in, const AssemblyResult& result) {
  if (result.extensions.size() != in.contigs.size()) {
    throw std::invalid_argument(
        "LocalAssembler::apply: result does not match input contigs");
  }
  for (std::size_t i = 0; i < in.contigs.size(); ++i) {
    apply_extension(in.contigs[i], result.extensions[i]);
  }
}

}  // namespace lassm::core
