#include "core/reference.hpp"

#include <algorithm>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "bio/dna.hpp"
#include "bio/quality.hpp"
#include "core/ladder.hpp"
#include "core/loc_ht.hpp"

namespace lassm::core {

namespace {

/// Vote record per k-mer; mirrors the value half of HtEntry.
struct Votes {
  std::uint16_t hi[bio::kNumBases] = {};
  std::uint16_t low[bio::kNumBases] = {};
  std::uint16_t count = 0;
};

using KmerTable = std::unordered_map<std::string, Votes>;

KmerTable build_table(const bio::ReadSet& reads,
                      const std::vector<std::uint32_t>& read_ids,
                      std::uint32_t mer, const AssemblyOptions& opts) {
  KmerTable table;
  for (std::uint32_t rid : read_ids) {
    const std::string_view seq = reads.seq(rid);
    const std::string_view qual = reads.qual(rid);
    if (seq.size() < mer) continue;
    for (std::uint32_t pos = 0; pos + mer <= seq.size(); ++pos) {
      Votes& v = table[std::string(seq.substr(pos, mer))];
      const std::uint32_t ext_pos = pos + mer;
      if (ext_pos < seq.size()) {
        const int code = bio::base_to_code(seq[ext_pos]);
        if (code >= 0) {
          if (bio::ascii_to_phred(qual[ext_pos]) >= opts.hi_qual_threshold) {
            saturating_inc(v.hi[code]);
          } else {
            saturating_inc(v.low[code]);
          }
        }
      }
      saturating_inc(v.count);
    }
  }
  return table;
}

struct MerWalk {
  std::string seq;
  WalkState state = WalkState::kMissing;
};

MerWalk do_walk(const KmerTable& table, std::string_view contig,
                std::uint32_t mer, const AssemblyOptions& opts) {
  MerWalk out;
  if (contig.size() < mer) return out;
  std::string window(contig.substr(contig.size() - mer));
  std::unordered_set<std::string> visited;

  out.state = WalkState::kRunning;
  std::uint32_t step = 0;
  while (out.state == WalkState::kRunning) {
    if (out.seq.size() >= opts.max_walk_len) {
      out.state = WalkState::kLimit;
      break;
    }
    const auto it = table.find(window);
    if (it == table.end()) {
      out.state = step == 0 ? WalkState::kMissing : WalkState::kEnd;
      break;
    }
    if (!visited.insert(window).second) {
      out.state = WalkState::kLoop;
      break;
    }
    // Re-use the kernel's vote logic verbatim via a transient entry.
    HtEntry entry;
    for (int b = 0; b < bio::kNumBases; ++b) {
      entry.hi_q_exts[b] = it->second.hi[b];
      entry.low_q_exts[b] = it->second.low[b];
    }
    entry.count = it->second.count;
    const ExtChoice choice = choose_extension(entry, opts);
    if (choice.state != WalkState::kRunning) {
      out.state = choice.state;
      break;
    }
    out.seq.push_back(choice.ext);
    window.erase(0, 1);
    window.push_back(choice.ext);
    ++step;
  }
  return out;
}

/// Right-oriented extension of one contig end with the mer ladder and
/// acceptance rules of Fig. 4 (identical to WarpKernelContext::run).
struct LadderResult {
  std::string extension;
  std::uint32_t accepted_mer = 0;
};

LadderResult extend_side(const bio::ReadSet& reads,
                         const std::vector<std::uint32_t>& read_ids,
                         std::string_view contig, std::uint32_t kmer_len,
                         const AssemblyOptions& opts) {
  LadderResult result;
  const std::uint32_t floor_mer = ladder_min_mer(kmer_len, opts);
  std::uint64_t max_insertions = 0;
  for (std::uint32_t rid : read_ids) {
    max_insertions += bio::kmer_count(reads[rid].len, floor_mer);
  }
  if (max_insertions == 0 || contig.size() < floor_mer) return result;

  bool have = false;
  for (std::uint32_t mer : mer_ladder(kmer_len, opts)) {
    if (mer > contig.size() || mer >= bio::kMaxK) continue;
    const KmerTable table = build_table(reads, read_ids, mer, opts);
    MerWalk walk = do_walk(table, contig, mer, opts);
    const bool accepted = walk_accepted(walk.state) && !walk.seq.empty();
    if (!have || walk.seq.size() > result.extension.size()) {
      result.extension = std::move(walk.seq);
      result.accepted_mer = mer;
      have = true;
    }
    if (accepted) break;
  }
  return result;
}

/// Extends one contig (both ends). Contigs are fully independent, which is
/// what makes both the GPU offload and the parallel CPU path trivial to
/// partition.
bio::ContigExtension extend_one(const AssemblyInput& in,
                                const bio::ReadSet& rc_reads, std::size_t i,
                                const AssemblyOptions& opts) {
  bio::ContigExtension ext;
  ext.contig_id = in.contigs[i].id;

  const LadderResult right = extend_side(
      in.reads, in.right_reads[i], in.contigs[i].seq, in.kmer_len, opts);
  ext.right = right.extension;
  ext.right_mer_len = right.accepted_mer;

  if (!in.left_reads[i].empty()) {
    const std::string rc_contig = bio::reverse_complement(in.contigs[i].seq);
    const LadderResult left = extend_side(rc_reads, in.left_reads[i],
                                          rc_contig, in.kmer_len, opts);
    ext.left = bio::reverse_complement(left.extension);
    ext.left_mer_len = left.accepted_mer;
  }
  return ext;
}

bio::ReadSet make_rc_reads(const AssemblyInput& in) {
  bool any_left = false;
  for (const auto& v : in.left_reads) any_left = any_left || !v.empty();
  return any_left ? in.reads.reverse_complemented() : bio::ReadSet{};
}

}  // namespace

std::vector<bio::ContigExtension> reference_extend(const AssemblyInput& in,
                                                   const AssemblyOptions& opts) {
  std::vector<bio::ContigExtension> out(in.contigs.size());
  const bio::ReadSet rc_reads = make_rc_reads(in);
  for (std::size_t i = 0; i < in.contigs.size(); ++i) {
    out[i] = extend_one(in, rc_reads, i, opts);
  }
  return out;
}

std::vector<bio::ContigExtension> reference_extend_parallel(
    const AssemblyInput& in, const AssemblyOptions& opts,
    unsigned n_threads) {
  if (n_threads == 0) {
    n_threads = std::max(1U, std::thread::hardware_concurrency());
  }
  std::vector<bio::ContigExtension> out(in.contigs.size());
  if (in.contigs.empty()) return out;
  n_threads = std::min<unsigned>(
      n_threads, static_cast<unsigned>(in.contigs.size()));

  const bio::ReadSet rc_reads = make_rc_reads(in);

  // Static block partition: contigs are independent, and writing disjoint
  // ranges of `out` from different threads is race-free.
  std::vector<std::thread> workers;
  workers.reserve(n_threads);
  const std::size_t per_thread =
      (in.contigs.size() + n_threads - 1) / n_threads;
  for (unsigned t = 0; t < n_threads; ++t) {
    const std::size_t begin = static_cast<std::size_t>(t) * per_thread;
    const std::size_t end = std::min(in.contigs.size(), begin + per_thread);
    if (begin >= end) break;
    workers.emplace_back([&, begin, end] {
      for (std::size_t i = begin; i < end; ++i) {
        out[i] = extend_one(in, rc_reads, i, opts);
      }
    });
  }
  for (auto& w : workers) w.join();
  return out;
}

}  // namespace lassm::core
