#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>

#include "core/input.hpp"
#include "resilience/status.hpp"

namespace lassm::workload {

/// Parameters of a synthetic local-assembly dataset. The four presets in
/// table2_params() match the paper's Table II: read/contig counts and the
/// uniform read length reproduce the reported totals exactly (insertions
/// factor as reads x (len - k + 1)); extension lengths are matched through
/// read placement around the contig junctions.
struct DatasetParams {
  std::uint32_t kmer_len = 21;
  std::uint32_t num_contigs = 1000;
  std::uint32_t num_reads = 5000;
  std::uint32_t read_len = 155;
  double target_avg_extn = 48.0;  ///< Table II "average extn length"

  std::uint32_t contig_len_mean = 500;
  std::uint32_t contig_len_min = 200;

  /// Duplicated "ambiguity motifs" planted in each extension region. A
  /// motif of length L >= mer makes the walk FORK where the first
  /// occurrence ends; ladder rungs with mer > L resolve it (the paper's
  /// Fig. 1 story). Motif lengths straddle the production k ladder, which
  /// is what makes small-k walks short and large-k walks long (Table II's
  /// rising average extension length).
  std::uint32_t ambiguity_motifs_per_side = 2;
  std::uint32_t motif_len_min = 18;
  std::uint32_t motif_len_max = 64;
  /// Fraction of contig ends whose extension region carries a divergent
  /// SNP haplotype, producing an unresolvable FORK.
  double fork_prob = 0.02;
  /// Fraction of contig ends with a tandem repeat longer than the mer,
  /// producing a LOOP during the mer-walk.
  double loop_prob = 0.03;
  /// Fraction of read bases emitted with low (sub-threshold) quality.
  double low_qual_frac = 0.05;
  /// Per-base substitution error probability for high-quality bases (low
  /// quality bases err at a capped rate their Phred score implies).
  double base_error_rate = 0.0005;
  /// Skew of reads-per-contig assignment (sigma of the lognormal weight);
  /// 0 distributes uniformly. Non-zero skew is what makes contig binning
  /// worthwhile.
  double read_skew_sigma = 0.6;
};

/// Table II presets for k in {21, 33, 55, 77}; throws for other k.
DatasetParams table2_params(std::uint32_t k);

/// All four Table II k values, in paper order.
inline constexpr std::array<std::uint32_t, 4> kTable2Ks = {21, 33, 55, 77};

/// Deterministically synthesises a dataset (same seed => same dataset).
core::AssemblyInput generate_dataset(const DatasetParams& params,
                                     std::uint64_t seed);

/// Measured characteristics of a dataset, i.e. one row of Table II.
/// total_extns / avg_extn_len are outputs of assembly; fill_extension_stats
/// computes them with the CPU reference.
struct DatasetStats {
  std::uint32_t kmer_len = 0;
  std::uint64_t total_contigs = 0;
  std::uint64_t total_reads = 0;
  double avg_read_length = 0.0;
  std::uint64_t total_hash_insertions = 0;
  double avg_extn_length = 0.0;   ///< extension bases per contig
  std::uint64_t total_extns = 0;  ///< total extension bases
};

/// Static characteristics (no assembly).
DatasetStats dataset_stats(const core::AssemblyInput& in);

/// Runs the CPU reference to fill total_extns / avg_extn_length.
void fill_extension_stats(const core::AssemblyInput& in, DatasetStats& stats);

/// Text (de)serialisation of a dataset, standing in for the artifact's
/// `localassm_extend_7-<k>.dat` files.
void save_dataset(std::ostream& os, const core::AssemblyInput& in);
core::AssemblyInput load_dataset(std::istream& is);

}  // namespace lassm::workload
