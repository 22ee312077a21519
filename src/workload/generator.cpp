#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "bio/quality.hpp"
#include "bio/rng.hpp"
#include "workload/dataset.hpp"

namespace lassm::workload {

namespace {

using bio::Xoshiro256;

char random_base(Xoshiro256& rng) {
  return bio::code_to_base(static_cast<int>(rng.below(4)));
}

std::string random_sequence(Xoshiro256& rng, std::size_t len) {
  std::string s(len, 'A');
  for (char& c : s) c = random_base(rng);
  return s;
}

char substitute(Xoshiro256& rng, char base) {
  const int code = bio::base_to_code(base);
  // Pick one of the three other bases uniformly.
  const int other = (code + 1 + static_cast<int>(rng.below(3))) % 4;
  return bio::code_to_base(other);
}

/// Draws read-placement overlap into the already-covered sequence. The
/// number of *novel* bases a read contributes (its overhang past the
/// coverage frontier) follows a geometric law whose mean is fitted so that
/// expected chained coverage matches the dataset's target average
/// extension — this is how Table II's rising extension lengths (9 novel
/// bases/read at k=21 up to ~74 at k=77) are reproduced.
std::uint32_t draw_overlap(Xoshiro256& rng, std::uint32_t k,
                           std::uint32_t read_len, double mean_overhang) {
  const std::uint32_t max_overhang =
      read_len > k + 3 ? read_len - k - 2 : 1;
  const auto overhang = static_cast<std::uint32_t>(std::min<std::uint64_t>(
      rng.geometric(mean_overhang), max_overhang));
  return read_len - std::max<std::uint32_t>(overhang, 1);
}

struct QualSeq {
  std::string seq;
  std::string qual;
};

/// Applies the quality/error model to a perfect fragment.
QualSeq noisify(Xoshiro256& rng, std::string fragment,
                const DatasetParams& p) {
  QualSeq out;
  out.qual.resize(fragment.size());
  for (std::size_t i = 0; i < fragment.size(); ++i) {
    int phred;
    double err;
    if (rng.uniform() < p.low_qual_frac) {
      phred = 2 + static_cast<int>(rng.below(16));          // Q2..Q17
      err = std::min(0.04, bio::phred_error_prob(phred));
    } else {
      phred = 30 + static_cast<int>(rng.below(11));         // Q30..Q40
      err = p.base_error_rate;
    }
    out.qual[i] = bio::phred_to_ascii(phred);
    if (rng.uniform() < err) fragment[i] = substitute(rng, fragment[i]);
  }
  out.seq = std::move(fragment);
  return out;
}

/// Plants one duplicated motif in the extension region on the given side of
/// the junction. The motif is copied from just past the junction to a
/// second site further out, and the bases that follow the two occurrences
/// (in walk direction) are forced to differ — so any walk whose mer is
/// shorter than the motif forks where the first occurrence ends.
void plant_motif(Xoshiro256& rng, std::string& tmpl, std::uint64_t junction,
                 bool right, const DatasetParams& p) {
  const std::uint32_t len =
      p.motif_len_min +
      static_cast<std::uint32_t>(rng.below(
          std::max<std::uint32_t>(1, p.motif_len_max - p.motif_len_min)));
  const std::uint32_t d = 2 + static_cast<std::uint32_t>(rng.below(7));
  const std::uint32_t gap = 4 + static_cast<std::uint32_t>(rng.below(9));
  if (right) {
    const std::uint64_t pos1 = junction + d;
    const std::uint64_t pos2 = pos1 + len + gap;
    if (pos2 + len + 1 >= tmpl.size()) return;
    tmpl.replace(pos2, len, tmpl.substr(pos1, len));
    if (tmpl[pos2 + len] == tmpl[pos1 + len]) {
      tmpl[pos2 + len] = substitute(rng, tmpl[pos1 + len]);
    }
  } else {
    if (junction < static_cast<std::uint64_t>(d) + 2ULL * len + gap + 2) return;
    const std::uint64_t pos1 = junction - d - len;
    const std::uint64_t pos2 = pos1 - gap - len;
    if (pos1 < 1 || pos2 < 1) return;
    tmpl.replace(pos2, len, tmpl.substr(pos1, len));
    if (tmpl[pos2 - 1] == tmpl[pos1 - 1]) {
      tmpl[pos2 - 1] = substitute(rng, tmpl[pos1 - 1]);
    }
  }
}

}  // namespace

core::AssemblyInput generate_dataset(const DatasetParams& p,
                                     std::uint64_t seed) {
  Xoshiro256 rng(seed ^ (0xABCDULL + p.kmer_len));
  core::AssemblyInput in;
  in.kmer_len = p.kmer_len;

  const std::uint32_t n_contigs = p.num_contigs;
  const std::uint32_t k = p.kmer_len;
  const std::uint32_t read_len = p.read_len;

  // 1) Assign reads to (contig, side) with lognormal skew, so some contigs
  //    receive many reads and others none — the non-determinism that makes
  //    MetaHipMer bin contigs by read count.
  std::vector<double> cumw(n_contigs);
  double acc = 0.0;
  for (std::uint32_t c = 0; c < n_contigs; ++c) {
    acc += std::exp(rng.gaussian() * p.read_skew_sigma);
    cumw[c] = acc;
  }
  // Every side gets one read first (a contig end with no aligned reads
  // would not have been shipped to local assembly at all); the remainder
  // is assigned with lognormal skew.
  std::vector<std::uint32_t> n_left(n_contigs, 0), n_right(n_contigs, 0);
  std::uint32_t assigned = 0;
  for (std::uint32_t c = 0; c < n_contigs && assigned < p.num_reads; ++c) {
    ++n_right[c];
    ++assigned;
    if (assigned < p.num_reads) {
      ++n_left[c];
      ++assigned;
    }
  }
  for (std::uint32_t r = assigned; r < p.num_reads; ++r) {
    const double x = rng.uniform() * acc;
    const auto it = std::lower_bound(cumw.begin(), cumw.end(), x);
    const auto c = static_cast<std::uint32_t>(it - cumw.begin());
    if (rng.next() & 1) {
      ++n_right[c];
    } else {
      ++n_left[c];
    }
  }

  // 2) Build each contig's hidden template and tile reads along both
  //    junctions in overlapping chains.
  in.reads.reserve_bases(static_cast<std::uint64_t>(p.num_reads) * read_len);
  in.contigs.reserve(n_contigs);
  in.left_reads.resize(n_contigs);
  in.right_reads.resize(n_contigs);

  // Mean per-read overhang fitted to the target average extension: a side
  // with the mean read count chains to ~target/2 novel bases. The overhang
  // is drawn geometric but truncated at read_len - k - 2, so invert the
  // truncated mean E[min(Geom(m), M)] ~= m(1 - e^(-M/m)) by fixed point.
  const double mean_reads_per_side =
      static_cast<double>(p.num_reads) /
      (2.0 * std::max<std::uint32_t>(1, n_contigs));
  const double target_overhang = std::max(
      2.0, p.target_avg_extn / 1.7 / std::max(0.5, mean_reads_per_side));
  const double max_overhang =
      read_len > k + 3 ? static_cast<double>(read_len - k - 2) : 1.0;
  double mean_overhang = target_overhang;
  for (int it = 0; it < 4; ++it) {
    const double achieved =
        mean_overhang * (1.0 - std::exp(-max_overhang / mean_overhang));
    if (achieved <= 0.0) break;
    mean_overhang = std::min(mean_overhang * target_overhang / achieved,
                             8.0 * max_overhang);
  }

  for (std::uint32_t c = 0; c < n_contigs; ++c) {
    const std::uint32_t clen = std::max<std::uint32_t>(
        p.contig_len_min,
        static_cast<std::uint32_t>(
            std::max(1.0, p.contig_len_mean * (1.0 + 0.3 * rng.gaussian()))));

    const std::uint64_t lext = static_cast<std::uint64_t>(read_len) *
                               (1 + n_left[c]);
    const std::uint64_t rext = static_cast<std::uint64_t>(read_len) *
                               (1 + n_right[c]);
    std::string tmpl = random_sequence(rng, lext + clen + rext);
    const std::uint64_t cbegin = lext;
    const std::uint64_t cend = lext + clen;

    // Ambiguity motifs on both sides (see plant_motif).
    for (std::uint32_t m = 0; m < p.ambiguity_motifs_per_side; ++m) {
      if (n_right[c] > 0) plant_motif(rng, tmpl, cend, /*right=*/true, p);
      if (n_left[c] > 0) plant_motif(rng, tmpl, cbegin, /*right=*/false, p);
    }

    // Optional tandem repeat just past the right junction: its period
    // exceeds the mer, so the walk revisits a node (LOOP) and the ladder
    // retries with a longer mer.
    if (n_right[c] > 0 && rng.uniform() < p.loop_prob) {
      const std::uint32_t unit_len = k + 2 + static_cast<std::uint32_t>(
                                                 rng.below(9));
      const std::uint64_t at = cend + 3;
      if (at + 3ULL * unit_len < tmpl.size()) {
        const std::string unit = tmpl.substr(at, unit_len);
        for (int rep = 1; rep < 3; ++rep) {
          tmpl.replace(at + static_cast<std::uint64_t>(rep) * unit_len,
                       unit_len, unit);
        }
      }
    }

    // Optional divergent variant of the right extension region: reads are
    // drawn from either haplotype, creating a FORK at the divergence point.
    std::string variant;
    std::uint64_t fork_at = 0;
    if (n_right[c] > 1 && rng.uniform() < p.fork_prob) {
      fork_at = cend + 5 + rng.below(36);
      if (fork_at < tmpl.size()) {
        variant = tmpl;
        variant[fork_at] = substitute(rng, tmpl[fork_at]);
      }
    }

    bio::Contig contig;
    contig.id = c;
    contig.seq = tmpl.substr(cbegin, clen);
    contig.depth = 1.0 + static_cast<double>(n_left[c] + n_right[c]) / 2.0;
    in.contigs.push_back(std::move(contig));

    // Right-junction chain: the first read straddles the junction, each
    // subsequent read overlaps the previous by >= k+2 and advances the
    // frontier; the achieved walk length tracks the chained coverage.
    std::int64_t frontier = static_cast<std::int64_t>(cend);
    for (std::uint32_t j = 0; j < n_right[c]; ++j) {
      const std::uint32_t overlap = draw_overlap(rng, k, read_len, mean_overhang);
      const std::int64_t start = frontier - overlap;
      const std::int64_t from = std::max<std::int64_t>(start, 0);
      const std::string& source =
          (!variant.empty() && rng.next() % 2 == 0) ? variant : tmpl;
      std::string frag = source.substr(static_cast<std::uint64_t>(from),
                                       read_len);
      QualSeq qs = noisify(rng, std::move(frag), p);
      const auto idx = in.reads.append(qs.seq, qs.qual);
      in.right_reads[c].push_back(static_cast<std::uint32_t>(idx));
      frontier = from + read_len;
    }

    // Left-junction chain, mirrored: frontier moves leftward.
    frontier = static_cast<std::int64_t>(cbegin);
    for (std::uint32_t j = 0; j < n_left[c]; ++j) {
      const std::uint32_t overlap = draw_overlap(rng, k, read_len, mean_overhang);
      const std::int64_t end = frontier + overlap;
      const std::int64_t from =
          std::max<std::int64_t>(end - static_cast<std::int64_t>(read_len), 0);
      std::string frag = tmpl.substr(static_cast<std::uint64_t>(from),
                                     read_len);
      QualSeq qs = noisify(rng, std::move(frag), p);
      const auto idx = in.reads.append(qs.seq, qs.qual);
      in.left_reads[c].push_back(static_cast<std::uint32_t>(idx));
      frontier = from;
    }
  }
  return in;
}

}  // namespace lassm::workload
