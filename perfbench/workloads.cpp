// The batch workloads: read assembly at 1 and 4 ranks (reads_1rank,
// reads_4rank) and the paper's kernel grid (paper_grid). Each job runs
// once through the public entry point, untraced, and once composed from
// the layers' public calls with every call in a span.

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "bench.hpp"
#include "bio/dna.hpp"
#include "bio/rng.hpp"
#include "core/assembler.hpp"
#include "core/exec.hpp"
#include "dist/dist_table.hpp"
#include "dist/frontend.hpp"
#include "dist/pipeline.hpp"
#include "pipeline/multi_gpu.hpp"
#include "pipeline/pipeline.hpp"
#include "simt/device.hpp"
#include "workload/dataset.hpp"

namespace perfbench {
namespace {

using namespace lassm;

void add_extension(Digest& d, const bio::ContigExtension& e) {
  d.add(e.contig_id);
  d.add(e.left);
  d.add(e.right);
  d.add(std::uint64_t{e.left_mer_len} << 32 | e.right_mer_len);
}

/// Contigs, graph and k-mer summaries, and every round's report except
/// its wall-clock field.
std::uint64_t pipeline_digest(const pipeline::PipelineResult& r) {
  Digest d;
  for (const bio::Contig& c : r.contigs) {
    d.add(c.id);
    d.add(c.seq);
    d.add(c.depth);
  }
  for (std::uint64_t v : {r.dbg.nodes, r.dbg.forks, r.dbg.dead_ends,
                          r.dbg.contigs, r.kmers_total, r.kmers_filtered}) {
    d.add(v);
  }
  for (const pipeline::IterationReport& it : r.iterations) {
    for (std::uint64_t v : {std::uint64_t{it.k}, it.contigs, it.total_bases,
                            it.n50, it.mapped_reads, it.extension_bases}) {
      d.add(v);
    }
    d.add(it.kernel_time_s);
  }
  return d.value();
}

/// Extensions, modelled time and every modelled counter of one run.
void add_assembly(Digest& d, const core::AssemblyResult& r) {
  for (const bio::ContigExtension& e : r.extensions) add_extension(d, e);
  d.add(r.total_time_s);
  const simt::WarpCounters& t = r.stats.totals;
  const memsim::TrafficStats& m = r.stats.traffic;
  for (std::uint64_t v :
       {t.cycles, t.intops, t.issue_slots, t.instructions, t.probes,
        t.insertions, t.walk_steps, t.atomics, t.mer_retries, t.mem_rounds,
        r.stats.num_warps, r.stats.num_kernel_launches, m.accesses,
        m.lines_touched, m.l1_hits, m.l2_hits, m.l1_evictions,
        m.l2_evictions, m.hbm_lines, m.hbm_read_bytes, m.hbm_write_bytes}) {
    d.add(v);
  }
}

/// Kernel work counted by the traced jobs; the traced run derives the
/// core/memsim rates from these and the core.run span.
void add_kernel_counts(Counts& counts, const core::AssemblyResult& r) {
  counts["core.warp_tasks"] += static_cast<double>(r.stats.num_warps);
  counts["memsim.lines_touched"] +=
      static_cast<double>(r.stats.traffic.lines_touched);
  counts["simt.intops"] += static_cast<double>(r.stats.totals.intops);
}

pipeline::IterationReport round_report(std::uint32_t k,
                                       const pipeline::AlignStats& a,
                                       const bio::ContigSet& contigs,
                                       std::uint64_t extension_bases,
                                       double kernel_time_s) {
  pipeline::IterationReport rep;
  rep.k = k;
  rep.mapped_reads = a.aligned_left + a.aligned_right;
  rep.extension_bases = extension_bases;
  rep.kernel_time_s = kernel_time_s;
  rep.contigs = contigs.size();
  rep.total_bases = bio::total_contig_bases(contigs);
  rep.n50 = bio::n50(contigs);
  return rep;
}

/// Shotgun reads of a seeded uniform-random genome: 130 bp at 12x with
/// 0.2% substitutions, so the count filter and the graph see error k-mers.
bio::ReadSet make_reads(std::uint64_t seed, std::size_t genome_len) {
  bio::Xoshiro256 rng(seed);
  std::string genome(genome_len, 'A');
  for (char& c : genome) c = bio::code_to_base(static_cast<int>(rng.below(4)));
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

/// reads_1rank / reads_4rank: the mini-MetaHipMer pipeline on a simulated
/// A100 over the k ladder {21, 33, 55, 77}, at one rank through
/// pipeline::run_pipeline or at `ranks` ranks through dist::run_distributed.
class ReadsWorkload final : public BatchWorkload {
 public:
  ReadsWorkload(const Settings& s, unsigned ranks)
      : seed_(s.seed),
        genome_len_(s.tiny ? 60000 : 200000),
        ranks_(ranks),
        device_(simt::DeviceSpec::a100()) {}

  void setup(SpanLog* spans, int parent) override {
    // run_pipeline and run_distributed start their own pool per call, so
    // set-up is input generation only.
    const int id =
        spans != nullptr ? spans->begin("workload.generate", parent) : -1;
    // The old reads go first, so every set-up allocates the same way.
    reads_ = bio::ReadSet{};
    reads_ = make_reads(seed_, genome_len_);
    if (spans != nullptr) spans->end(id);
  }

  Output run(unsigned threads) override {
    pipeline::PipelineOptions opts;
    opts.assembly.n_threads = threads;
    if (ranks_ == 1) {
      return {pipeline_digest(pipeline::run_pipeline(reads_, device_, opts)),
              0};
    }
    dist::DistOptions dopts;
    dopts.ranks = ranks_;
    dopts.pipeline = opts;
    const dist::DistResult r = dist::run_distributed(reads_, device_, dopts);
    Digest extra;
    const dist::TrafficStats& t = r.traffic;
    for (std::uint64_t v : {t.msgs, t.bytes, t.batches, t.drops,
                            t.retransmits, t.flushes, r.count_windows,
                            r.count_remote_msgs}) {
      extra.add(v);
    }
    extra.add(t.network_s);
    return {pipeline_digest(r.pipeline), extra.value()};
  }

  std::uint64_t run_traced(SpanLog& spans, int parent, unsigned threads,
                           Counts& counts) override {
    pipeline::PipelineOptions opts;
    opts.assembly.n_threads = threads;
    return ranks_ == 1 ? traced_1rank(spans, parent, opts, counts)
                       : traced_dist(spans, parent, opts, counts);
  }

 private:
  /// The stages run_pipeline runs, in its order, on one shared pool.
  std::uint64_t traced_1rank(SpanLog& spans, int parent,
                             const pipeline::PipelineOptions& opts,
                             Counts& counts) {
    const core::LocalAssembler assembler(device_, opts.assembly);
    std::unique_ptr<core::WarpExecutionEngine> pool;
    if (core::resolve_threads(opts.assembly.n_threads) > 1) {
      ScopedSpan span(spans, "core.pool_start", parent);
      pool = assembler.make_engine();
    }
    pipeline::PipelineResult result;
    pipeline::KmerCounts kmers;
    int count_id = -1;
    {
      ScopedSpan span(spans, "pipeline.count", parent);
      count_id = span.id();
      kmers = pipeline::count_kmers(reads_, opts.contig_k, false, pool.get());
    }
    result.kmers_total = kmers.size();
    std::uint64_t windows = 0;
    for (std::size_t i = 0; i < reads_.size(); ++i) {
      const std::size_t len = reads_.seq(i).size();
      if (len >= opts.contig_k) windows += len - opts.contig_k + 1;
    }
    counts["pipeline.count_mkmers_per_s"] =
        static_cast<double>(windows) / spans.seconds(count_id) / 1e6;
    {
      ScopedSpan span(spans, "pipeline.filter", parent);
      result.kmers_filtered =
          pipeline::filter_low_count(kmers, opts.min_kmer_count, pool.get());
    }
    {
      ScopedSpan span(spans, "pipeline.dbg", parent);
      result.contigs =
          pipeline::generate_contigs(kmers, opts.contig_k, opts.min_contig_len,
                                     &result.dbg, pool.get());
    }
    counts["pipeline.distinct_kmers"] = static_cast<double>(result.kmers_total);
    counts["pipeline.kmers_filtered"] =
        static_cast<double>(result.kmers_filtered);
    counts["pipeline.dbg_nodes"] = static_cast<double>(result.dbg.nodes);

    std::uint64_t mapped = 0;
    for (const std::uint32_t k : opts.k_iterations) {
      pipeline::AlignStats astats;
      core::AssemblyInput input;
      {
        ScopedSpan span(spans, "pipeline.align", parent);
        input = pipeline::align_reads_to_ends(std::move(result.contigs),
                                              reads_, k, opts.aligner,
                                              &astats, pool.get());
      }
      core::AssemblyResult ar;
      {
        ScopedSpan span(spans, "core.run", parent);
        ar = assembler.run(input, pool.get());
      }
      add_kernel_counts(counts, ar);
      core::LocalAssembler::apply(input, ar);
      result.contigs = std::move(input.contigs);
      result.iterations.push_back(round_report(
          k, astats, result.contigs, ar.total_extension_bases(),
          ar.total_time_s));
      mapped += result.iterations.back().mapped_reads;
    }
    counts["pipeline.mapped_ratio"] =
        static_cast<double>(mapped) /
        static_cast<double>(reads_.size() * opts.k_iterations.size());
    return pipeline_digest(result);
  }

  /// The stages run_distributed runs on `ranks_` live ranks with no fault
  /// plan: the dist front end, then per round the shared aligner and the
  /// multi-device assembly. The round scatter/gather billing is left out;
  /// it changes traffic only, which the result digest does not cover.
  std::uint64_t traced_dist(SpanLog& spans, int parent,
                            const pipeline::PipelineOptions& opts,
                            Counts& counts) {
    dist::ShardMap map(ranks_);
    dist::MessageLayer msg(map.n_ranks(), dist::DistKmerTable::kNumChannels,
                           device_.net);
    dist::DistKmerTable table(map, msg);
    const core::LocalAssembler assembler(device_, opts.assembly);
    std::unique_ptr<core::WarpExecutionEngine> pool;
    if (core::resolve_threads(opts.assembly.n_threads) > 1) {
      ScopedSpan span(spans, "core.pool_start", parent);
      pool = assembler.make_engine();
    }
    pipeline::PipelineResult result;
    dist::CountStats cstats;
    {
      ScopedSpan span(spans, "dist.count", parent);
      cstats = dist::count_kmers_dist(table, reads_, opts.contig_k,
                                      ~std::uint64_t{0}, pool.get());
      result.kmers_total = table.total_size();
    }
    {
      ScopedSpan span(spans, "dist.filter", parent);
      result.kmers_filtered =
          dist::filter_low_count_dist(table, opts.min_kmer_count, pool.get());
    }
    {
      ScopedSpan span(spans, "dist.dbg", parent);
      result.contigs = dist::generate_contigs_dist(
          table, opts.contig_k, opts.min_contig_len, &result.dbg, pool.get());
    }
    const dist::TrafficStats& t = msg.traffic();
    counts["dist.remote_msgs"] = static_cast<double>(t.msgs);
    counts["dist.msg_bytes"] = static_cast<double>(t.bytes);
    counts["dist.msgs_per_kmer"] =
        static_cast<double>(t.msgs) / static_cast<double>(cstats.windows);
    counts["dist.network_s"] = t.network_s;

    const std::vector<std::uint32_t> live = map.live_ranks();
    const std::vector<simt::DeviceSpec> devices(live.size(), device_);
    std::uint64_t mapped = 0;
    ScopedSpan assemble(spans, "dist.assemble", parent);
    for (const std::uint32_t k : opts.k_iterations) {
      pipeline::AlignStats astats;
      core::AssemblyInput input;
      {
        ScopedSpan span(spans, "pipeline.align", assemble.id());
        input = pipeline::align_reads_to_ends(std::move(result.contigs),
                                              reads_, k, opts.aligner,
                                              &astats, pool.get());
      }
      pipeline::MultiGpuResult mgr;
      {
        ScopedSpan span(spans, "core.run", assemble.id());
        mgr = pipeline::run_multi_gpu_resilient(input, devices, opts.assembly,
                                                nullptr, &live);
      }
      std::uint64_t ext_bases = 0;
      for (std::size_t i = 0; i < input.contigs.size(); ++i) {
        ext_bases +=
            mgr.extensions[i].left.size() + mgr.extensions[i].right.size();
        bio::apply_extension(input.contigs[i], mgr.extensions[i]);
      }
      result.contigs = std::move(input.contigs);
      result.iterations.push_back(round_report(k, astats, result.contigs,
                                               ext_bases, mgr.makespan_s));
      mapped += result.iterations.back().mapped_reads;
    }
    counts["pipeline.mapped_ratio"] =
        static_cast<double>(mapped) /
        static_cast<double>(reads_.size() * opts.k_iterations.size());
    return pipeline_digest(result);
  }

  std::uint64_t seed_;
  std::size_t genome_len_;
  unsigned ranks_;
  simt::DeviceSpec device_;
  bio::ReadSet reads_;
};

/// paper_grid: the Table II datasets on the three study devices with their
/// native programming models, k = 21/33/55/77 — 12 LocalAssembler::run
/// calls per job, each device on its own pool started at set-up.
class GridWorkload final : public BatchWorkload {
 public:
  explicit GridWorkload(const Settings& s)
      : seed_(s.seed), scale_(s.tiny ? 0.03 : 0.2), threads_(s.threads) {}

  void setup(SpanLog* spans, int parent) override {
    {
      const int id =
          spans != nullptr ? spans->begin("workload.generate", parent) : -1;
      const auto scaled = [&](std::uint32_t n, std::uint32_t floor) {
        return std::max<std::uint32_t>(
            floor, static_cast<std::uint32_t>(std::llround(n * scale_)));
      };
      datasets_.clear();
      for (const std::uint32_t k : workload::kTable2Ks) {
        workload::DatasetParams p = workload::table2_params(k);
        p.num_contigs = scaled(p.num_contigs, 8);
        p.num_reads = scaled(p.num_reads, 16);
        datasets_.push_back(workload::generate_dataset(p, seed_));
      }
      if (spans != nullptr) spans->end(id);
    }
    const int id =
        spans != nullptr ? spans->begin("core.pool_start", parent) : -1;
    devices_.clear();
    core::AssemblyOptions opts;
    opts.n_threads = threads_;
    core::AssemblyOptions serial_opts;
    serial_opts.n_threads = 1;
    for (const simt::DeviceSpec& dev : simt::DeviceSpec::study_devices()) {
      // The engine keeps a reference to its assembler's device, so each
      // Device stays at one address.
      auto d = std::make_unique<Device>(Device{
          core::LocalAssembler(dev, dev.native_model, opts),
          core::LocalAssembler(dev, dev.native_model, serial_opts), nullptr});
      d->engine = d->pooled.make_engine();
      devices_.push_back(std::move(d));
    }
    if (spans != nullptr) spans->end(id);
  }

  Output run(unsigned threads) override {
    Digest d;
    for (const auto& dev : devices_) {
      const core::LocalAssembler& a = threads == 1 ? dev->serial : dev->pooled;
      for (const core::AssemblyInput& in : datasets_) {
        add_assembly(d, a.run(in, threads == 1 ? nullptr : dev->engine.get()));
      }
    }
    return {d.value(), 0};
  }

  std::uint64_t run_traced(SpanLog& spans, int parent, unsigned threads,
                           Counts& counts) override {
    Digest d;
    for (const auto& dev : devices_) {
      const core::LocalAssembler& a = threads == 1 ? dev->serial : dev->pooled;
      for (const core::AssemblyInput& in : datasets_) {
        core::AssemblyResult r;
        {
          ScopedSpan span(spans, "core.run", parent);
          r = a.run(in, threads == 1 ? nullptr : dev->engine.get());
        }
        add_kernel_counts(counts, r);
        add_assembly(d, r);
      }
    }
    return d.value();
  }

 private:
  struct Device {
    core::LocalAssembler pooled;
    core::LocalAssembler serial;  ///< the 1-thread reference, no pool
    std::unique_ptr<core::WarpExecutionEngine> engine;
  };

  std::uint64_t seed_;
  double scale_;
  unsigned threads_;
  std::vector<core::AssemblyInput> datasets_;
  std::vector<std::unique_ptr<Device>> devices_;
};

}  // namespace

std::unique_ptr<BatchWorkload> make_reads_workload(const Settings& s,
                                                   unsigned ranks) {
  return std::make_unique<ReadsWorkload>(s, ranks);
}

std::unique_ptr<BatchWorkload> make_grid_workload(const Settings& s) {
  return std::make_unique<GridWorkload>(s);
}

}  // namespace perfbench
