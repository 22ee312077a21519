#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "bio/kmer.hpp"

namespace lassm::bio {

/// One sequencing read: offsets into the owning ReadSet's arenas.
struct Read {
  std::uint64_t seq_off = 0;   ///< offset of first base in sequence arena
  std::uint32_t len = 0;       ///< number of bases (== number of quals)
  std::uint64_t id = 0;        ///< stable identifier (generator order)
};

/// A set of reads stored in two contiguous arenas (bases and Phred+33
/// qualities). Contiguity matters: the GPU kernel's hash-table keys are
/// pointers into this buffer, and the cache simulator needs stable,
/// realistic addresses. Arenas are append-only; views remain valid because
/// callers `reserve_bases` before taking KmerViews (enforced in debug).
class ReadSet {
 public:
  ReadSet() = default;

  /// Pre-sizes the arenas; call before bulk append when view stability
  /// across appends is required.
  void reserve_bases(std::uint64_t bases);

  /// Appends a read; seq and qual must be equal length, seq must be ACGT.
  /// Returns its index.
  std::size_t append(std::string_view seq, std::string_view qual);

  /// Appends with uniform quality q for every base.
  std::size_t append(std::string_view seq, int uniform_phred);

  std::size_t size() const noexcept { return reads_.size(); }
  bool empty() const noexcept { return reads_.empty(); }
  const Read& operator[](std::size_t i) const noexcept { return reads_[i]; }

  std::string_view seq(std::size_t i) const noexcept {
    const Read& r = reads_[i];
    return {seq_arena_.data() + r.seq_off, r.len};
  }
  std::string_view qual(std::size_t i) const noexcept {
    const Read& r = reads_[i];
    return {qual_arena_.data() + r.seq_off, r.len};
  }

  /// KmerView of read i at base position pos with length k. sim_base is the
  /// simulated device address of the arena start (assigned by the runtime).
  KmerView kmer(std::size_t i, std::uint32_t pos, std::uint32_t k,
                std::uint64_t sim_base) const noexcept {
    const Read& r = reads_[i];
    return {seq_arena_.data() + r.seq_off + pos, k, sim_base + r.seq_off + pos};
  }

  /// Quality character for the base at read i, position pos.
  char qual_at(std::size_t i, std::uint32_t pos) const noexcept {
    return qual_arena_[reads_[i].seq_off + pos];
  }

  std::uint64_t total_bases() const noexcept { return seq_arena_.size(); }
  const char* arena_data() const noexcept { return seq_arena_.data(); }

  /// Sum over reads of max(0, len - k + 1): the number of hash-table
  /// insertions this read set generates at the given k (Table II column
  /// "total hash insertions").
  std::uint64_t total_kmers(std::uint32_t k) const noexcept;

  /// A new ReadSet holding the reverse complement of every read (qualities
  /// reversed accordingly); used by the left-extension kernel.
  ReadSet reverse_complemented() const;

 private:
  std::vector<char> seq_arena_;
  std::vector<char> qual_arena_;
  std::vector<Read> reads_;
};

}  // namespace lassm::bio
