#include "core/kernel.hpp"

#include <algorithm>
#include <cstring>

#include "bio/murmur.hpp"
#include "bio/quality.hpp"
#include "resilience/fault_plan.hpp"

namespace lassm::core {

using memsim::ServiceLevel;

WarpKernelContext::WarpKernelContext(const simt::DeviceSpec& dev,
                                     simt::ProgrammingModel pm,
                                     const AssemblyOptions& opts,
                                     std::uint64_t concurrency)
    : dev_(dev),
      pm_(pm),
      opts_(opts),
      width_(opts.subgroup_override != 0 ? opts.subgroup_override
                                         : dev.warp_width),
      l1_cfg_(dev.l1_slice_config()),
      l2_cfg_(dev.l2_slice_config(concurrency)),
      mem_(l1_cfg_, l2_cfg_) {
  lanes_.resize(width_);
}

void WarpKernelContext::reconfigure(std::uint64_t concurrency) {
  l2_cfg_ = dev_.l2_slice_config(concurrency);
  mem_.reshape(l1_cfg_, l2_cfg_);
}

void WarpKernelContext::validate_task(const WarpTask& task) const {
  const auto corrupt = [&](std::string what) {
    return StatusError(Error(ErrorCode::kCorruptInput,
                             "WarpKernelContext: " + std::move(what),
                             SourceContext{"task", 0, task.fault_key}));
  };
  if (task.reads == nullptr) throw corrupt("null read set");
  const std::size_t n_reads = task.reads->size();
  for (std::uint32_t rid : task.read_ids) {
    if (rid >= n_reads)
      throw corrupt("read id " + std::to_string(rid) + " out of range (" +
                    std::to_string(n_reads) + " reads)");
  }
  if (task.kmer_len == 0) throw corrupt("zero kmer_len");
}

WarpResult WarpKernelContext::run(const WarpTask& task, unsigned attempt) {
  const resilience::FaultPlan* plan = opts_.fault_plan;
  if (plan != nullptr) {
    // Hardened entry: reject genuinely malformed payloads, then the
    // injected bad-input seam (persistent — the "same" malformed task
    // fails its retries too and ends up quarantined).
    validate_task(task);
    if (plan->fires(resilience::Seam::kBadInput, task.fault_key, attempt)) {
      throw StatusError(
          Error(ErrorCode::kCorruptInput,
                "injected malformed task payload",
                SourceContext{"task", 0, task.fault_key}));
    }
  }
  // Reset contract (see header): clear every piece of cross-task scratch
  // this call reads before the task's own writes — the hierarchy here, the
  // lanes here (insert_lockstep reads only lanes it first overwrites, but a
  // defined state keeps the invariant checkable), the table per rung and
  // the walk buffer per walk below.
  mem_.reset();
  std::fill(lanes_.begin(), lanes_.end(), LaneState{});

  WarpResult res;
  memsim::TieredMemory& mem = mem_;
  simt::WarpCounters& ctr = res.counters;

  const std::uint32_t floor_mer = ladder_min_mer(task.kmer_len, opts_);
  std::uint64_t max_insertions = 0;
  for (std::uint32_t rid : task.read_ids) {
    max_insertions += bio::kmer_count((*task.reads)[rid].len, floor_mer);
  }
  if (max_insertions == 0 || task.contig.size() < floor_mer) {
    return res;  // no reads or contig shorter than every rung
  }

  // Pre-processing reserved the upper-limit table once (sized for the
  // smallest mer, which produces the most k-mers); every ladder rung
  // reuses the same allocation.
  const std::uint32_t slots =
      LocHashTable::estimate_slots(max_insertions, opts_.table_load_factor);

  std::string best;
  WalkState best_state = WalkState::kMissing;
  std::uint32_t best_mer = 0;
  bool have_result = false;

  // Tracing reads the task's own modelled counters and never writes them,
  // so traced runs are bit-identical to untraced ones.
  if (opts_.trace != nullptr) res.trace = std::make_unique<WarpTaskTrace>();

  // Iterative walks (the artifact's iterative_walks_kernel): reconstruct
  // and walk at every rung of the descending mer ladder, keeping the
  // longest accepted walk; the largest mer wins ties (highest confidence).
  bool first_rung = true;
  for (std::uint32_t mer : mer_ladder(task.kmer_len, opts_)) {
    if (mer > task.contig.size() || mer >= bio::kMaxK) continue;
    if (!first_rung) ++ctr.mer_retries;
    first_rung = false;

    const std::uint64_t rung_start_cycles = ctr.cycles;
    const std::uint64_t rung_start_probes = ctr.probes;

    // Injected seams, keyed per (task, rung) so different rungs of one
    // contig fault independently but deterministically. mer < 256, so the
    // shifted key cannot collide across tasks.
    bool inject_hang = false;
    if (plan != nullptr) {
      const std::uint64_t rung_key = (task.fault_key << 8) ^ mer;
      if (plan->fires(resilience::Seam::kMemStall, rung_key, attempt)) {
        // Transient tier interruption: dirty lines written back, caches
        // dropped — the rung's remaining accesses re-fetch from HBM.
        mem.fault_interrupt();
        ++res.mem_faults;
      }
      inject_hang =
          plan->fires(resilience::Seam::kWalkHang, rung_key, attempt);
    }

    table_.reset(slots, task.table_sim_base);
    construct(task, mer, mem, ctr);
    const std::uint64_t construct_end_cycles = ctr.cycles;
    WalkOutcome walk = merwalk(task, mer, mem, ctr, inject_hang);
    if (walk.state == WalkState::kAborted) ++res.walk_aborts;

    if (res.trace != nullptr) {
      WarpTaskTrace::Rung r;
      r.mer = mer;
      r.start_cycles = rung_start_cycles;
      r.construct_end_cycles = construct_end_cycles;
      r.end_cycles = ctr.cycles;
      r.probe_rounds = ctr.probes - rung_start_probes;
      r.walk_len = static_cast<std::uint32_t>(walk.walk.size());
      r.state = walk.state;
      res.trace->rungs.push_back(r);
    }

    // Longest walk wins; ties keep the earlier (larger, higher-confidence)
    // mer. A fork- or loop-terminated walk still contributes its bases up
    // to the ambiguity point.
    const bool accepted = walk_accepted(walk.state) && !walk.walk.empty();
    if (!have_result || walk.walk.size() > best.size()) {
      best = std::move(walk.walk);
      best_state = walk.state;
      best_mer = mer;
      have_result = true;
    }
    // Fig. 4: the ladder only continues while the walk is "not accepted"
    // (fork, loop, or no extension found at this mer size).
    if (accepted) break;
  }

  res.extension = std::move(best);
  res.final_state = best_state;
  res.accepted_mer = best_mer;
  mem.flush();
  res.traffic = mem.stats();
  return res;
}

void WarpKernelContext::construct(const WarpTask& task, std::uint32_t mer,
                                  memsim::TieredMemory& mem,
                                  simt::WarpCounters& ctr) {
  // Table (re-)initialisation: streaming full-line stores over the slab,
  // marking every slot EMPTY. All lanes participate. The bulk call bills
  // one logical access per line, exactly like the per-line loop it
  // replaced (see TieredMemory::stream_write_range).
  const std::uint64_t table_bytes = table_.footprint_bytes();
  const std::uint32_t line = mem.line_bytes();
  mem.stream_write_range(task.table_sim_base, table_bytes);
  const std::uint64_t init_ops =
      (table_.slots() * ops::kTableInitPerSlot + width_ - 1) / width_;
  ctr.add_ops(init_ops, width_, width_);
  // Store issue throughput: ~4 lines per cycle per warp slice.
  ctr.cycles += table_bytes / line / 4;

  const std::uint32_t n = table_.slots();
  for (std::uint32_t rid : task.read_ids) {
    const std::uint32_t len = (*task.reads)[rid].len;
    if (len < mer) continue;
    const std::uint32_t nk = len - mer + 1;
    // Rolling slot precomputation: hash every overlapping k-mer of the
    // read once, in one tight pass over the sequence bytes, instead of
    // re-deriving views lane by lane inside the lockstep rounds. Values
    // are identical to murmur_slot(km.ptr, mer, n) — n is a power of two,
    // so the mask equals the modulo — and the modelled hash_call_intops
    // are still charged per lane in insert_lockstep.
    const char* seq = (*task.reads).seq(rid).data();
    slot_pre_.resize(nk);
    for (std::uint32_t pos = 0; pos < nk; ++pos) {
      slot_pre_[pos] = bio::murmur_hash_aligned2(seq + pos, mer) & (n - 1);
    }
    for (std::uint32_t base = 0; base < nk; base += width_) {
      const std::uint32_t active = std::min(width_, nk - base);
      for (std::uint32_t lane = 0; lane < active; ++lane) {
        lanes_[lane] = LaneState{rid, base + lane, 0, false, true};
      }
      insert_lockstep(task, mer, active, mem, ctr);
    }
  }
}

void WarpKernelContext::insert_lockstep(const WarpTask& task,
                                        std::uint32_t mer,
                                        std::uint32_t active,
                                        memsim::TieredMemory& mem,
                                        simt::WarpCounters& ctr) {
  const bio::ReadSet& reads = *task.reads;
  const std::uint32_t n = table_.slots();
  const std::uint32_t slot_mask = n - 1;  // n is a power of two

  // Round 1 (overlapped across lanes): fetch k-mer characters and the
  // corresponding quality bytes — the 2k bytes of the paper's B1 model.
  ServiceLevel fetch_lvl = ServiceLevel::kL1;
  for (std::uint32_t lane = 0; lane < active; ++lane) {
    const LaneState& ls = lanes_[lane];
    const bio::KmerView km =
        reads.kmer(ls.read_id, ls.pos, mer, task.reads_sim_base);
    fetch_lvl = std::max(fetch_lvl, mem.read_range(km.sim_addr, mer));
    const std::uint64_t qaddr =
        task.quals_sim_base + reads[ls.read_id].seq_off + ls.pos;
    fetch_lvl = std::max(fetch_lvl, mem.read_range(qaddr, mer));
  }
  ctr.add_ops(ops::kInsertSetup, active, width_);
  ctr.add_mem_round(dev_.perf, fetch_lvl);

  // Hash round: MurmurHashAligned2 per lane (Table V op counts). The slot
  // values were precomputed per read in construct(); the modelled cost is
  // unchanged.
  ctr.add_ops(bio::hash_call_intops(mer), active, width_);
  for (std::uint32_t lane = 0; lane < active; ++lane) {
    LaneState& ls = lanes_[lane];
    ls.slot = slot_pre_[ls.pos];
  }

  // Lockstep probe loop: semantics identical across programming models
  // (same slots, same collisions); per-round collective costs differ
  // (Appendix A: __match_any_sync+__syncwarp vs done-flag __all vs
  // sub-group barrier).
  std::uint32_t undone = active;
  while (undone > 0) {
    const std::uint32_t round_active = undone;
    ServiceLevel entry_lvl = ServiceLevel::kL1;
    ServiceLevel key_lvl = ServiceLevel::kL1;
    bool compared = false;

    for (std::uint32_t lane = 0; lane < active; ++lane) {
      LaneState& ls = lanes_[lane];
      if (ls.done || !ls.valid) continue;
      HtEntry& e = table_.entry(ls.slot);
      const std::uint64_t slot_addr = table_.slot_addr(ls.slot);
      entry_lvl = std::max(
          entry_lvl, mem.read(slot_addr + kEntryKeyOff, kEntryKeyBytes));
      ctr.add_atomic(dev_.perf);  // atomicCAS on key.length every round

      const bio::KmerView km =
          reads.kmer(ls.read_id, ls.pos, mer, task.reads_sim_base);
      if (e.empty()) {
        // CAS won an empty slot: publish the key (pointer into the read
        // arena — the key bytes themselves are never copied).
        e.key_ptr = km.ptr;
        e.key_len = mer;
        e.key_sim_addr = km.sim_addr;
        mem.write(slot_addr + kEntryKeyOff, kEntryKeyBytes);
        ls.done = true;
        --undone;
      } else {
        compared = true;
        key_lvl = std::max(key_lvl, mem.read_range(e.key_sim_addr, e.key_len));
        if (e.key_len == mer && std::memcmp(e.key_ptr, km.ptr, mer) == 0) {
          ls.done = true;  // thread or cross-read collision on same k-mer
          --undone;
        } else {
          ls.slot = (ls.slot + 1) & slot_mask;  // linear probing
        }
      }
    }

    ctr.probes += round_active;
    ctr.add_ops(ops::kProbeRound + ops::key_compare(mer), round_active, width_);
    switch (pm_) {
      case simt::ProgrammingModel::kCuda:
        ctr.add_ops(ops::kMatchAny + ops::kSyncWarp, round_active, width_);
        break;
      case simt::ProgrammingModel::kHip:
        // The done-flag loop keeps every lane of the wavefront in the
        // __all reduction each round.
        ctr.add_ops(ops::kAllReduce, width_, width_);
        break;
      case simt::ProgrammingModel::kSycl:
        ctr.add_ops(ops::kSgBarrier, width_, width_);
        ctr.cycles += kSgBarrierLatencyCycles;
        break;
    }
    ctr.add_mem_round(dev_.perf, entry_lvl);
    if (compared) ctr.add_mem_round(dev_.perf, key_lvl);
  }
  if (pm_ == simt::ProgrammingModel::kHip) {
    // Trailing `if (__all(done)) return` evaluation.
    ctr.add_ops(ops::kAllReduce, width_, width_);
  }

  // Vote-update round: each lane atomically accumulates its extension
  // nucleotide's quality bucket in the claimed/matched entry.
  ServiceLevel vote_lvl = ServiceLevel::kL1;
  for (std::uint32_t lane = 0; lane < active; ++lane) {
    const LaneState& ls = lanes_[lane];
    HtEntry& e = table_.entry(ls.slot);
    const std::uint32_t ext_pos = ls.pos + mer;
    if (ext_pos < reads[ls.read_id].len) {
      const char ext = reads.seq(ls.read_id)[ext_pos];
      const int code = bio::base_to_code(ext);
      if (code >= 0) {
        const int q = bio::ascii_to_phred(reads.qual_at(ls.read_id, ext_pos));
        if (q >= opts_.hi_qual_threshold) {
          saturating_inc(e.hi_q_exts[code]);
        } else {
          saturating_inc(e.low_q_exts[code]);
        }
      }
    }
    saturating_inc(e.count);
    vote_lvl = std::max(vote_lvl,
                        mem.write(table_.slot_addr(ls.slot) + kEntryValOff,
                                  kEntryValBytes));
    ctr.add_atomic(dev_.perf);
  }
  ctr.add_ops(ops::kVoteUpdate, active, width_);
  ctr.add_mem_round(dev_.perf, vote_lvl);
  ctr.insertions += active;
}

WarpKernelContext::WalkOutcome WarpKernelContext::merwalk(
    const WarpTask& task, std::uint32_t mer, memsim::TieredMemory& mem,
    simt::WarpCounters& ctr, bool inject_hang) {
  WalkOutcome out;
  if (task.contig.size() < mer) return out;  // kMissing
  const std::uint32_t n = table_.slots();
  const std::uint32_t slot_mask = n - 1;

  // Seed the walk buffer with the contig's terminal mer (single lane).
  walkbuf_.clear();
  walkbuf_.reserve(mer + opts_.max_walk_len + 1);
  walkbuf_.append(task.contig.substr(task.contig.size() - mer));
  {
    ServiceLevel lvl =
        mem.read_range(task.contig_sim_addr + task.contig.size() - mer, mer);
    mem.stream_write(task.walkbuf_sim_addr, mer);
    ctr.add_ops(ops::kWalkStep, 1, width_);
    ctr.add_mem_round(dev_.perf, lvl);
  }
  ++walk_epoch_;

  out.state = WalkState::kRunning;
  std::uint32_t step = 0;
  // Watchdog: a healthy walk either terminates or grows by one base per
  // iteration, so it can pass the kLimit check at most max_walk_len times.
  // The budget therefore never trips on a healthy walk (observation only —
  // a local counter, nothing modelled is charged), but bounds every walk
  // that stops making progress, injected or organic.
  std::uint64_t iterations = 0;
  const std::uint64_t watchdog_budget =
      static_cast<std::uint64_t>(opts_.max_walk_len) + 2;
  while (out.state == WalkState::kRunning) {
    if (out.walk.size() >= opts_.max_walk_len) {
      out.state = WalkState::kLimit;
      break;
    }
    if (++iterations > watchdog_budget) {
      // Runaway walk: cancel and discard the partial extension — an
      // aborted walk must not contribute bases the ladder could accept.
      out.state = WalkState::kAborted;
      out.walk.clear();
      break;
    }
    ++ctr.walk_steps;
    ctr.add_ops(bio::hash_call_intops(mer) + ops::kWalkStep + ops::kLoopCheck, 1,
                width_);

    const bio::KmerView km{walkbuf_.data() + step, mer,
                           task.walkbuf_sim_addr + step};
    std::uint32_t slot = bio::murmur_slot(km.ptr, mer, n);
    HtEntry* found = nullptr;
    for (std::uint32_t probe = 0; probe < n; ++probe) {
      HtEntry& e = table_.entry(slot);
      const std::uint64_t slot_addr = table_.slot_addr(slot);
      ++ctr.probes;
      ctr.add_ops(ops::kProbeRound, 1, width_);
      ctr.add_mem_round(dev_.perf,
                        mem.read(slot_addr + kEntryKeyOff, kEntryKeyBytes));
      if (e.empty()) break;
      ctr.add_ops(ops::key_compare(mer), 1, width_);
      ctr.add_mem_round(dev_.perf, mem.read_range(e.key_sim_addr, e.key_len));
      if (e.key_len == mer && std::memcmp(e.key_ptr, km.ptr, mer) == 0) {
        found = &e;
        break;
      }
      slot = (slot + 1) & slot_mask;
    }

    if (found == nullptr) {
      // Dead end: the graph has no node for this mer. At step 0 the
      // contig's own terminal mer is uncovered by reads (kMissing).
      out.state = step == 0 ? WalkState::kMissing : WalkState::kEnd;
      break;
    }
    if (found->visit_epoch == walk_epoch_) {
      out.state = WalkState::kLoop;  // cycle in the de Bruijn graph
      break;
    }
    found->visit_epoch = walk_epoch_;

    ctr.add_mem_round(dev_.perf, mem.read(table_.slot_addr(slot) + kEntryValOff,
                                          kEntryValBytes));
    const ExtChoice choice = choose_extension(*found, opts_);
    ctr.add_ops(16, 1, width_);  // vote scan across the four bases
    if (choice.state != WalkState::kRunning) {
      out.state = choice.state;
      break;
    }

    if (inject_hang) {
      // Injected hang: the chosen base is discarded and the node unmarked,
      // so the next iteration repeats this one exactly — no progress, no
      // termination. Only the watchdog above gets the walk out.
      found->visit_epoch = walk_epoch_ - 1;
      continue;
    }

    walkbuf_.push_back(choice.ext);
    out.walk.push_back(choice.ext);
    mem.write(task.walkbuf_sim_addr + mer + step, 1);
    // The walking thread broadcasts the running state to the warp.
    ctr.add_ops(ops::kShflBroadcast, width_, width_);
    ++step;
  }

  // Terminal state broadcast (accepted / retry decision is warp-wide).
  ctr.add_ops(ops::kShflBroadcast, width_, width_);
  return out;
}

}  // namespace lassm::core
