#include "bio/murmur.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>

namespace lassm::bio {
namespace {

TEST(Murmur, Deterministic) {
  const std::string key = "ACGTACGTACGTACGTACGTA";
  EXPECT_EQ(murmur_hash_aligned2(key.data(), key.size()),
            murmur_hash_aligned2(key.data(), key.size()));
}

TEST(Murmur, SeedChangesHash) {
  const std::string key = "ACGTACGTACGTACGTACGTA";
  EXPECT_NE(murmur_hash_aligned2(key.data(), key.size(), 1),
            murmur_hash_aligned2(key.data(), key.size(), 2));
}

TEST(Murmur, SingleBaseChangeChangesHash) {
  std::string a(33, 'A');
  for (std::size_t i = 0; i < a.size(); ++i) {
    std::string b = a;
    b[i] = 'C';
    EXPECT_NE(murmur_hash_aligned2(a.data(), a.size()),
              murmur_hash_aligned2(b.data(), b.size()))
        << "flip at " << i;
  }
}

TEST(Murmur, TailBytesContribute) {
  // Lengths 5..8 share the first 4-byte block; tails must still matter.
  const std::string base = "ACGTACGT";
  std::set<std::uint32_t> hashes;
  for (std::size_t len = 5; len <= 8; ++len) {
    hashes.insert(murmur_hash_aligned2(base.data(), len));
  }
  EXPECT_EQ(hashes.size(), 4U);
}

TEST(Murmur, SlotWithinTable) {
  const std::string key(55, 'G');
  for (std::uint32_t size : {1U, 2U, 16U, 1024U, 4096U}) {
    EXPECT_LT(murmur_slot(key.data(), key.size(), size), size);
  }
  EXPECT_EQ(murmur_slot(key.data(), key.size(), 0), 0U);
}

TEST(Murmur, SlotsSpreadAcrossTable) {
  std::set<std::uint32_t> slots;
  std::string key(21, 'A');
  for (int i = 0; i < 500; ++i) {
    key[i % 21] = "ACGT"[i % 4];
    key[(i * 7) % 21] = "ACGT"[(i / 4) % 4];
    slots.insert(murmur_slot(key.data(), key.size(), 256));
  }
  EXPECT_GT(slots.size(), 150U);  // well spread over 256 slots
}

// The op-count model must reproduce the paper's Table V exactly. Every field
// is 8 bytes wide so the row has no padding: ctest names each case after the
// row's printed bytes, and padding would put stack garbage in the name.
struct TableVRow {
  std::uint64_t k;
  std::uint64_t mix;
  std::uint64_t intop1;
};

class MurmurTableV : public ::testing::TestWithParam<TableVRow> {};

TEST_P(MurmurTableV, MatchesPaper) {
  const TableVRow row = GetParam();
  EXPECT_EQ(murmur_intops(row.k), 33 + row.mix + 31);
  EXPECT_EQ(hash_call_intops(row.k), row.intop1);
}

INSTANTIATE_TEST_SUITE_P(PaperRows, MurmurTableV,
                         ::testing::Values(TableVRow{21, 125, 215},
                                           TableVRow{33, 200, 305},
                                           TableVRow{55, 325, 457},
                                           TableVRow{77, 475, 635}));

TEST(Murmur, IntopsMonotoneInLength) {
  for (std::size_t len = 1; len < 128; ++len) {
    EXPECT_LE(murmur_intops(len), murmur_intops(len + 1));
    EXPECT_LT(hash_call_intops(len), hash_call_intops(len + 1) + 26);
  }
}

}  // namespace
}  // namespace lassm::bio
