#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>

#include "bio/rng.hpp"
#include "workload/dataset.hpp"

namespace lassm::workload {
namespace {

core::AssemblyInput sample() {
  DatasetParams p = table2_params(21);
  p.num_contigs = 25;
  p.num_reads = 130;
  return generate_dataset(p, 17);
}

TEST(Serialize, RoundTripPreservesEverything) {
  const core::AssemblyInput in = sample();
  std::stringstream ss;
  save_dataset(ss, in);
  const core::AssemblyInput out = load_dataset(ss);

  EXPECT_EQ(out.kmer_len, in.kmer_len);
  ASSERT_EQ(out.contigs.size(), in.contigs.size());
  for (std::size_t c = 0; c < in.contigs.size(); ++c) {
    EXPECT_EQ(out.contigs[c].id, in.contigs[c].id);
    EXPECT_EQ(out.contigs[c].seq, in.contigs[c].seq);
    EXPECT_DOUBLE_EQ(out.contigs[c].depth, in.contigs[c].depth);
  }
  ASSERT_EQ(out.reads.size(), in.reads.size());
  for (std::size_t r = 0; r < in.reads.size(); ++r) {
    EXPECT_EQ(out.reads.seq(r), in.reads.seq(r));
    EXPECT_EQ(out.reads.qual(r), in.reads.qual(r));
  }
  EXPECT_EQ(out.left_reads, in.left_reads);
  EXPECT_EQ(out.right_reads, in.right_reads);
  EXPECT_TRUE(out.validate());
}

TEST(Serialize, RejectsBadMagic) {
  std::stringstream ss("NOT_A_DATASET 1\n");
  EXPECT_THROW(load_dataset(ss), std::runtime_error);
}

TEST(Serialize, RejectsWrongVersion) {
  std::stringstream ss("LASSM_DATASET 999\nk 21\n");
  EXPECT_THROW(load_dataset(ss), std::runtime_error);
}

TEST(Serialize, RejectsTruncatedContigs) {
  std::stringstream ss("LASSM_DATASET 1\nk 21\ncontigs 2\n0 1.0 ACGT\n");
  EXPECT_THROW(load_dataset(ss), std::runtime_error);
}

TEST(Serialize, RejectsOutOfRangeMapping) {
  std::stringstream ss(
      "LASSM_DATASET 1\nk 21\ncontigs 1\n0 1.0 ACGT\nreads 1\nACGT IIII\n"
      "mappings 1\n0 R 5\n");
  EXPECT_THROW(load_dataset(ss), std::runtime_error);
}

TEST(Serialize, RejectsBadSide) {
  std::stringstream ss(
      "LASSM_DATASET 1\nk 21\ncontigs 1\n0 1.0 ACGT\nreads 1\nACGT IIII\n"
      "mappings 1\n0 X 0\n");
  EXPECT_THROW(load_dataset(ss), std::runtime_error);
}

/// A few contigs and reads, so one encoded dataset is a few KB and every
/// prefix of it can be decoded.
std::string small_encoded_dataset() {
  DatasetParams p = table2_params(21);
  p.num_contigs = 3;
  p.num_reads = 12;
  p.read_len = 80;
  const core::AssemblyInput in = generate_dataset(p, 5);
  EXPECT_GT(in.num_mapped_reads(), 0U);
  std::stringstream ss;
  save_dataset(ss, in);
  return ss.str();
}

/// The decoder's contract on untrusted bytes: it throws
/// std::runtime_error, or it returns an input whose mapping lists match
/// its contigs and whose read ids are all in range. Any other exception
/// escapes and fails the test.
void expect_rejected_or_consistent(const std::string& bytes,
                                   const std::string& what) {
  std::istringstream is(bytes);
  core::AssemblyInput out;
  try {
    out = load_dataset(is);
  } catch (const std::runtime_error&) {
    return;
  }
  ASSERT_EQ(out.left_reads.size(), out.contigs.size()) << what;
  ASSERT_EQ(out.right_reads.size(), out.contigs.size()) << what;
  for (const auto* side : {&out.left_reads, &out.right_reads}) {
    for (const auto& ids : *side) {
      for (const std::uint32_t r : ids) {
        ASSERT_LT(r, out.reads.size()) << what;
      }
    }
  }
}

TEST(SerializeFuzz, EveryTruncationIsRejectedOrConsistent) {
  const std::string text = small_encoded_dataset();
  for (std::size_t n = 0; n <= text.size(); ++n) {
    expect_rejected_or_consistent(text.substr(0, n),
                                  "prefix of " + std::to_string(n) + " bytes");
    if (HasFatalFailure()) return;
  }
}

TEST(SerializeFuzz, RandomByteCorruptionIsRejectedOrConsistent) {
  const std::string text = small_encoded_dataset();
  bio::Xoshiro256 rng(2024);
  for (int trial = 0; trial < 3000; ++trial) {
    std::string bytes = text;
    const std::uint64_t flips = 1 + rng.below(4);
    for (std::uint64_t f = 0; f < flips; ++f) {
      const std::size_t at = rng.below(bytes.size());
      // Half the flips write a digit, so counts, ids and depths get
      // plausible-looking wrong values rather than only parse failures.
      bytes[at] = rng.below(2) == 0
                      ? static_cast<char>('0' + rng.below(10))
                      : static_cast<char>(rng.below(256));
    }
    expect_rejected_or_consistent(bytes, "trial " + std::to_string(trial));
    if (HasFatalFailure()) return;
  }
}

TEST(Serialize, EmptyDatasetRoundTrips) {
  core::AssemblyInput in;
  in.kmer_len = 33;
  std::stringstream ss;
  save_dataset(ss, in);
  const core::AssemblyInput out = load_dataset(ss);
  EXPECT_EQ(out.kmer_len, 33U);
  EXPECT_TRUE(out.contigs.empty());
  EXPECT_TRUE(out.reads.empty());
}

}  // namespace
}  // namespace lassm::workload
