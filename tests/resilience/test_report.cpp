// FailureReport bookkeeping: clean(), merge() and the human summary.

#include "resilience/report.hpp"

#include <gtest/gtest.h>

namespace lassm::resilience {
namespace {

TEST(FailureReport, DefaultIsClean) {
  const FailureReport r;
  EXPECT_TRUE(r.clean());
  EXPECT_EQ(r.summary(), "clean");
}

TEST(FailureReport, AnyFieldMakesItDirty) {
  FailureReport r;
  r.walks_aborted = 1;
  EXPECT_FALSE(r.clean());
  r = FailureReport{};
  r.serial_fallback = true;
  EXPECT_FALSE(r.clean());
  r = FailureReport{};
  r.faults.push_back(TaskFault{});
  EXPECT_FALSE(r.clean());
}

TEST(FailureReport, MergeAccumulates) {
  FailureReport a, b;
  a.tasks_retried = 2;
  a.faults.emplace_back().fault_key = 1;
  b.tasks_retried = 3;
  b.tasks_quarantined = 1;
  b.mem_faults = 4;
  b.devices_lost = 1;
  b.serial_fallback = true;
  b.faults.emplace_back().fault_key = 2;
  b.rebalances.emplace_back().lost_rank = 1;
  a.merge(b);
  EXPECT_EQ(a.tasks_retried, 5U);
  EXPECT_EQ(a.tasks_quarantined, 1U);
  EXPECT_EQ(a.mem_faults, 4U);
  EXPECT_EQ(a.devices_lost, 1U);
  EXPECT_TRUE(a.serial_fallback);
  ASSERT_EQ(a.faults.size(), 2U);
  EXPECT_EQ(a.faults[1].fault_key, 2U);
  ASSERT_EQ(a.rebalances.size(), 1U);
}

TEST(FailureReport, SummaryNamesWhatHappened) {
  FailureReport r;
  r.tasks_retried = 2;
  r.tasks_quarantined = 1;
  r.devices_lost = 1;
  const std::string s = r.summary();
  EXPECT_NE(s.find("retried"), std::string::npos);
  EXPECT_NE(s.find("quarantined"), std::string::npos);
  EXPECT_NE(s.find("lost"), std::string::npos);
}

}  // namespace
}  // namespace lassm::resilience
