// Distributed weak-scaling bench: run the sharded multi-rank pipeline
// (dist::run_distributed) at 1/2/4/8 simulated ranks with the genome —
// and so the k-mer load — growing proportionally, and record the
// partition quality and message-layer accounting the design promises:
// per-rank k-mer spread within 10% (the two-level hash partition is
// near-uniform), measured remote insert traffic within 5% of the
// analytic (R-1)/R prediction, and the modelled network seconds billed
// by the MessageLayer. Everything here is modelled/seeded and therefore
// deterministic. Writes results/distributed.csv; the exit code is the
// spread and traffic bars (also asserted by the ctest
// DistPipeline.WeakScalingKeepsPartitionAndTrafficBars).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <string>

#include "bench/common.hpp"
#include "bio/rng.hpp"
#include "dist/pipeline.hpp"
#include "model/ascii_plot.hpp"
#include "model/csv.hpp"

namespace {

std::string random_seq(std::uint64_t seed, std::size_t len) {
  lassm::bio::Xoshiro256 rng(seed);
  std::string s(len, 'A');
  for (char& c : s) {
    c = lassm::bio::code_to_base(static_cast<int>(rng.below(4)));
  }
  return s;
}

lassm::bio::ReadSet shotgun(const std::string& genome, double coverage,
                            std::uint32_t read_len, std::uint64_t seed) {
  lassm::bio::Xoshiro256 rng(seed);
  lassm::bio::ReadSet reads;
  const auto n = static_cast<std::uint64_t>(
      coverage * static_cast<double>(genome.size()) / read_len);
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t start = rng.below(genome.size() - read_len);
    reads.append(genome.substr(start, read_len), 35);
  }
  return reads;
}

}  // namespace

int main() {
  using namespace lassm;
  std::cout << "== Distributed weak scaling (k=21, A100 network model) ==\n\n";

  const auto device = simt::DeviceSpec::a100();
  model::TextTable t({"ranks", "reads", "kmers", "spread", "remote msgs",
                      "model err", "msgs/kmer", "net (ms)"});
  model::CsvWriter csv = bench::bench_csv(
      "distributed", {"ranks", "reads", "kmers", "kmer_spread_pct",
                      "remote_msgs", "remote_msgs_model", "model_err_pct",
                      "msgs_per_kmer", "network_ms", "batches"});

  bool spread_ok = true, model_ok = true;

  for (const std::uint32_t ranks : {1u, 2u, 4u, 8u}) {
    // Weak scaling: genome (and with it the distinct-k-mer load) grows
    // with the fleet, so per-rank work stays roughly constant.
    const bio::ReadSet reads =
        shotgun(random_seq(31, 1500 * ranks), 8.0, 100, 32 + ranks);

    dist::DistOptions opts;
    opts.ranks = ranks;
    opts.pipeline.k_iterations = {21};
    const dist::DistResult r = dist::run_distributed(reads, device, opts);

    std::uint64_t kmers = 0, kmin = UINT64_MAX, kmax = 0;
    for (const auto& rr : r.ranks) {
      kmers += rr.kmers;
      kmin = std::min(kmin, rr.kmers);
      kmax = std::max(kmax, rr.kmers);
    }
    const double mean =
        static_cast<double>(kmers) / static_cast<double>(r.ranks.size());
    const double spread_pct =
        mean > 0.0 ? 100.0 * static_cast<double>(kmax - kmin) / mean : 0.0;
    const double err_pct =
        r.count_remote_msgs_model > 0.0
            ? 100.0 *
                  std::abs(static_cast<double>(r.count_remote_msgs) -
                           r.count_remote_msgs_model) /
                  r.count_remote_msgs_model
            : 0.0;
    const double msgs_per_kmer =
        kmers > 0 ? static_cast<double>(r.traffic.msgs) /
                        static_cast<double>(kmers)
                  : 0.0;

    t.add_row({std::to_string(ranks), std::to_string(reads.size()),
               std::to_string(kmers),
               model::TextTable::fmt(spread_pct, 2) + "%",
               std::to_string(r.traffic.msgs),
               model::TextTable::fmt(err_pct, 2) + "%",
               model::TextTable::fmt(msgs_per_kmer, 3),
               model::TextTable::fmt(r.network_s * 1e3, 3)});
    csv.row(ranks, reads.size(), kmers, spread_pct, r.count_remote_msgs,
            r.count_remote_msgs_model, err_pct, msgs_per_kmer,
            r.network_s * 1e3, r.traffic.batches);

    if (ranks > 1) {
      // The design's acceptance bars, enforced on every fleet size.
      if (spread_pct > 10.0) {
        std::cerr << "FAIL: per-rank k-mer spread " << spread_pct
                  << "% > 10% at " << ranks << " ranks\n";
        spread_ok = false;
      }
      if (err_pct > 5.0) {
        std::cerr << "FAIL: remote-insert traffic off the analytic model "
                  << "by " << err_pct << "% > 5% at " << ranks
                  << " ranks\n";
        model_ok = false;
      }
    }
  }
  t.render(std::cout);
  std::cout << "\nexpected: spread and msgs/kmer flat across fleet sizes "
               "(weak scaling), remote traffic tracking the (R-1)/R "
               "analytic model\n";

  bench::write_artifacts(std::cout, csv);
  return (spread_ok && model_ok) ? 0 : 1;
}
