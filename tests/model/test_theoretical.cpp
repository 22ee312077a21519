#include "model/theoretical.hpp"

#include <gtest/gtest.h>

namespace lassm::model {
namespace {

// Every field is 8 bytes wide so the row has no padding: ctest names each
// case after the row's printed bytes, and padding would put stack garbage in
// the name.
struct TableVIRow {
  std::uint64_t k;
  std::uint64_t intops;
  std::uint64_t bytes;
  double ii;
};

class TheoreticalTableVI : public ::testing::TestWithParam<TableVIRow> {};

TEST_P(TheoreticalTableVI, MatchesPaper) {
  const TableVIRow row = GetParam();
  const TheoreticalII t = theoretical_ii(static_cast<std::uint32_t>(row.k));
  EXPECT_EQ(t.intops_per_cycle, row.intops);
  EXPECT_EQ(t.bytes_per_cycle, row.bytes);
  EXPECT_NEAR(t.ii, row.ii, 0.001);
}

// The four rows of Table VI, verbatim.
INSTANTIATE_TEST_SUITE_P(PaperRows, TheoreticalTableVI,
                         ::testing::Values(TableVIRow{21, 430, 89, 4.831},
                                           TableVIRow{33, 610, 125, 4.880},
                                           TableVIRow{55, 914, 191, 4.785},
                                           TableVIRow{77, 1270, 257, 4.942}));

TEST(Theoretical, ByteFormulas) {
  // B1 = 2k + 13, B2 = k + 13 (paper equations 2 and 3).
  EXPECT_EQ(b1_bytes(21), 55U);
  EXPECT_EQ(b2_bytes(21), 34U);
  EXPECT_EQ(b1_bytes(77), 167U);
  EXPECT_EQ(b2_bytes(77), 90U);
}

TEST(Theoretical, HashBreakdownMatchesTableV) {
  const HashOpBreakdown b = hash_op_breakdown(55);
  EXPECT_EQ(b.initialization, 33U);
  EXPECT_EQ(b.mix_loop, 325U);
  EXPECT_EQ(b.cleanup, 31U);
  EXPECT_EQ(b.intop1, 457U);
  EXPECT_EQ(b.initialization + b.mix_loop + b.cleanup + b.key_feed, b.intop1);
}

TEST(Theoretical, IntopsAreTwiceHashCall) {
  for (std::uint32_t k : {21U, 33U, 55U, 77U}) {
    EXPECT_EQ(theoretical_ii(k).intops_per_cycle,
              2 * bio::hash_call_intops(k));
  }
}

TEST(Theoretical, IIStaysNearFive) {
  // The paper observes theoretical II is nearly k-independent (~4.8-4.9).
  for (std::uint32_t k = 15; k <= 127; k += 2) {
    const double ii = theoretical_ii(k).ii;
    EXPECT_GT(ii, 4.2) << "k=" << k;
    EXPECT_LT(ii, 5.4) << "k=" << k;
  }
}

}  // namespace
}  // namespace lassm::model
