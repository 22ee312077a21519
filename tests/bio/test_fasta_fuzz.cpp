// Randomized corruption fuzzing of the text parsers (FASTA, FASTQ and the
// dataset format). The contract under fuzz: any byte stream either parses
// or raises a typed StatusError with kParseError/kCorruptInput — never a
// crash, never an unbounded allocation, never a different exception type.
// Seeds are fixed, so a failure reproduces deterministically.

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>

#include "bio/fasta.hpp"
#include "bio/read.hpp"
#include "bio/rng.hpp"
#include "resilience/status.hpp"
#include "workload/dataset.hpp"

namespace lassm::bio {
namespace {

std::string valid_fasta() {
  return ">contig0 len=12\nACGTACGTACGT\n>contig1\nTTTTGGGG\nCCCCAAAA\n";
}

std::string valid_fastq() {
  std::string s;
  for (int i = 0; i < 8; ++i) {
    s += "@read" + std::to_string(i) + "\nACGTACGTAC\n+\n##########\n";
  }
  return s;
}

std::string valid_dataset() {
  workload::DatasetParams p = workload::table2_params(21);
  p.num_contigs = 6;
  p.num_reads = 30;
  const auto in = workload::generate_dataset(p, 5);
  std::ostringstream ss;
  workload::save_dataset(ss, in);
  return ss.str();
}

/// One deterministic corruption: truncate, flip bytes, or splice garbage.
std::string corrupt(const std::string& base, Xoshiro256& rng) {
  std::string s = base;
  switch (rng.below(3)) {
    case 0:  // truncate mid-stream
      s.resize(rng.below(s.size() + 1));
      break;
    case 1: {  // flip 1..8 bytes to arbitrary values
      const std::uint64_t flips = 1 + rng.below(8);
      for (std::uint64_t f = 0; f < flips && !s.empty(); ++f) {
        s[rng.below(s.size())] =
            static_cast<char>(rng.below(256));
      }
      break;
    }
    default: {  // splice a garbage line somewhere
      const char* junk[] = {"@@@", ">><<", "123 456 789",
                            "ACGTXYZ\tACGT", ""};
      const std::string line = junk[rng.below(5)];
      const std::size_t pos = rng.below(s.size() + 1);
      s.insert(pos, line + "\n");
      break;
    }
  }
  return s;
}

/// Runs one parser over a corrupted input; anything but success or
/// StatusError fails the test.
template <typename Parser>
void expect_parses_or_typed_error(const std::string& input, Parser parse,
                                  std::uint64_t seed) {
  try {
    parse(input);
  } catch (const StatusError& e) {
    const ErrorCode c = e.code();
    EXPECT_TRUE(c == ErrorCode::kParseError || c == ErrorCode::kCorruptInput)
        << "seed " << seed << ": unexpected code "
        << error_code_name(c);
  } catch (const std::exception& e) {
    ADD_FAILURE() << "seed " << seed
                  << ": parser leaked an untyped exception: " << e.what();
  }
}

TEST(FastaFuzz, FastaSurvivesCorruption) {
  const std::string base = valid_fasta();
  for (std::uint64_t seed = 0; seed < 500; ++seed) {
    Xoshiro256 rng(seed);
    expect_parses_or_typed_error(
        corrupt(base, rng),
        [](const std::string& s) {
          std::istringstream is(s);
          (void)read_fasta(is, "fuzz.fa");
        },
        seed);
  }
}

TEST(FastaFuzz, FastqSurvivesCorruption) {
  const std::string base = valid_fastq();
  for (std::uint64_t seed = 0; seed < 500; ++seed) {
    Xoshiro256 rng(seed);
    expect_parses_or_typed_error(
        corrupt(base, rng),
        [](const std::string& s) {
          std::istringstream is(s);
          (void)read_fastq(is, nullptr, "fuzz.fq");
        },
        seed);
  }
}

TEST(FastaFuzz, DatasetSurvivesCorruption) {
  const std::string base = valid_dataset();
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    Xoshiro256 rng(seed);
    expect_parses_or_typed_error(
        corrupt(base, rng),
        [](const std::string& s) {
          std::istringstream is(s);
          (void)workload::load_dataset(is);
        },
        seed);
  }
}

TEST(FastaFuzz, DatasetRoundTripsWhenUncorrupted) {
  // Sanity anchor for the fuzz cases above: the uncorrupted base inputs
  // must parse cleanly.
  std::istringstream fa(valid_fasta());
  EXPECT_EQ(read_fasta(fa).size(), 2U);
  std::istringstream fq(valid_fastq());
  EXPECT_EQ(read_fastq(fq).size(), 8U);
  std::istringstream ds(valid_dataset());
  EXPECT_EQ(workload::load_dataset(ds).contigs.size(), 6U);
}

TEST(FastaFuzz, ErrorsCarrySourceContext) {
  {
    std::istringstream is("ACGT\n>late header\nACGT\n");
    try {
      read_fasta(is, "reads.fa");
      FAIL() << "accepted sequence before first header";
    } catch (const StatusError& e) {
      EXPECT_EQ(e.code(), ErrorCode::kParseError);
      EXPECT_EQ(e.error().context().file, "reads.fa");
      EXPECT_EQ(e.error().context().line, 1U);
    }
  }
  {
    std::istringstream is("@read0\nACGT\n+\n####\n@read1\nACGT\n");
    try {
      read_fastq(is, nullptr, "reads.fq");
      FAIL() << "accepted truncated FASTQ record";
    } catch (const StatusError& e) {
      EXPECT_EQ(e.code(), ErrorCode::kParseError);
      EXPECT_EQ(e.error().context().file, "reads.fq");
      EXPECT_EQ(e.error().context().line, 5U);
      EXPECT_EQ(e.error().context().record, 2U);
    }
  }
}

TEST(FastaFuzz, HugeDatasetHeaderDoesNotPreallocate) {
  // A corrupt count must fail on the missing records, not OOM on the
  // reserve. (The parser clamps reserve() to a sane cap.)
  std::istringstream is("LASSM_DATASET 1\nk 21\ncontigs 99999999999\n");
  EXPECT_THROW(workload::load_dataset(is), StatusError);
}

}  // namespace
}  // namespace lassm::bio
