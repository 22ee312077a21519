// FaultPlan semantics: the pure fires() decision function, transient vs
// persistent seams, device-loss scheduling, and the spec parser behind
// LASSM_FAULTPLAN, fuzzed like the dataset decoder (SerializeFuzz.*).

#include "resilience/fault_plan.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>

#include "bio/rng.hpp"

namespace lassm::resilience {
namespace {

TEST(FaultPlan, EmptyPlanNeverFires) {
  const FaultPlan plan(123);
  EXPECT_TRUE(plan.empty());
  for (std::uint64_t key = 0; key < 1000; ++key) {
    for (std::size_t s = 0; s < kSeamCount; ++s) {
      EXPECT_FALSE(plan.fires(static_cast<Seam>(s), key));
    }
  }
  EXPECT_FALSE(plan.device_lost(0, 0));
}

TEST(FaultPlan, FiresIsDeterministicAndSeedDependent) {
  FaultPlan a(1), b(1), c(2);
  for (FaultPlan* p : {&a, &b, &c}) p->arm(Seam::kTaskException, 0.25);
  int diffs = 0;
  for (std::uint64_t key = 0; key < 4096; ++key) {
    EXPECT_EQ(a.fires(Seam::kTaskException, key),
              b.fires(Seam::kTaskException, key));
    if (a.fires(Seam::kTaskException, key) !=
        c.fires(Seam::kTaskException, key)) {
      ++diffs;
    }
  }
  EXPECT_GT(diffs, 0) << "different seeds must select different keys";
}

TEST(FaultPlan, RateZeroNeverFiresRateOneAlwaysFires) {
  FaultPlan plan(7);
  plan.arm(Seam::kBadInput, 0.0);
  plan.arm(Seam::kWalkHang, 1.0);
  for (std::uint64_t key = 0; key < 256; ++key) {
    EXPECT_FALSE(plan.fires(Seam::kBadInput, key));
    EXPECT_TRUE(plan.fires(Seam::kWalkHang, key));
  }
}

TEST(FaultPlan, RateRoughlyMatchesFiringFraction) {
  FaultPlan plan(99);
  plan.arm(Seam::kTaskException, 0.1);
  int fired = 0;
  constexpr int kKeys = 20000;
  for (std::uint64_t key = 0; key < kKeys; ++key) {
    fired += plan.fires(Seam::kTaskException, key) ? 1 : 0;
  }
  EXPECT_GT(fired, kKeys / 20);      // > 5%
  EXPECT_LT(fired, kKeys * 3 / 20);  // < 15%
}

TEST(FaultPlan, TransientSeamsFireOnlyOnFirstAttempt) {
  FaultPlan plan(5);
  plan.arm(Seam::kTaskException, 1.0);
  plan.arm(Seam::kMemStall, 1.0);
  plan.arm(Seam::kBadInput, 1.0);
  plan.arm(Seam::kWalkHang, 1.0);
  const std::uint64_t key = 17;
  // Transient: a retry of the same key succeeds.
  EXPECT_TRUE(plan.fires(Seam::kTaskException, key, 0));
  EXPECT_FALSE(plan.fires(Seam::kTaskException, key, 1));
  EXPECT_TRUE(plan.fires(Seam::kMemStall, key, 0));
  EXPECT_FALSE(plan.fires(Seam::kMemStall, key, 1));
  // Persistent: retries keep failing (quarantine food).
  EXPECT_TRUE(plan.fires(Seam::kBadInput, key, 0));
  EXPECT_TRUE(plan.fires(Seam::kBadInput, key, 2));
  EXPECT_TRUE(plan.fires(Seam::kWalkHang, key, 0));
  EXPECT_TRUE(plan.fires(Seam::kWalkHang, key, 2));
}

TEST(FaultPlan, SeamsAreIndependent) {
  FaultPlan plan(11);
  plan.arm(Seam::kTaskException, 0.5);
  plan.arm(Seam::kWalkHang, 0.5);
  int both = 0, either = 0;
  for (std::uint64_t key = 0; key < 4096; ++key) {
    const bool a = plan.fires(Seam::kTaskException, key);
    const bool b = plan.fires(Seam::kWalkHang, key);
    both += (a && b) ? 1 : 0;
    either += (a || b) ? 1 : 0;
  }
  // If the seams shared their hash, both == either/... would collapse.
  EXPECT_GT(both, 0);
  EXPECT_LT(both, either);
}

TEST(FaultPlan, DeviceLossMatchesExactBatchCount) {
  FaultPlan plan(3);
  plan.add_device_loss(1, 2);
  EXPECT_FALSE(plan.device_lost(1, 0));
  EXPECT_FALSE(plan.device_lost(1, 1));
  EXPECT_TRUE(plan.device_lost(1, 2));
  EXPECT_FALSE(plan.device_lost(0, 2));
  EXPECT_FALSE(plan.empty());
}

TEST(FaultPlan, ContigFaultKeySeparatesSides) {
  EXPECT_NE(contig_fault_key(7, false), contig_fault_key(7, true));
  EXPECT_NE(contig_fault_key(7, false), contig_fault_key(8, false));
  EXPECT_EQ(contig_fault_key(7, true), contig_fault_key(7, true));
}

TEST(FaultPlanParse, ParsesFullSpec) {
  auto r = FaultPlan::parse(
      "seed=42 task_exception=0.05 bad_input=0.01 device_loss=1@2");
  ASSERT_TRUE(r.is_ok());
  const FaultPlan plan = std::move(r).take();
  EXPECT_EQ(plan.seed(), 42U);
  EXPECT_DOUBLE_EQ(plan.rate(Seam::kTaskException), 0.05);
  EXPECT_DOUBLE_EQ(plan.rate(Seam::kBadInput), 0.01);
  ASSERT_EQ(plan.device_losses().size(), 1U);
  EXPECT_EQ(plan.device_losses()[0].rank, 1U);
  EXPECT_EQ(plan.device_losses()[0].after_batch, 2U);
}

TEST(FaultPlanParse, RoundTripsThroughToSpec) {
  auto r = FaultPlan::parse(
      "seed=7 mem_stall=0.25 walk_hang=0.5 rank_msg_drop=0.125 "
      "rank_loss=0.0625 device_loss=0@1 device_loss=2@3");
  ASSERT_TRUE(r.is_ok());
  const FaultPlan plan = std::move(r).take();
  auto r2 = FaultPlan::parse(plan.to_spec());
  ASSERT_TRUE(r2.is_ok());
  const FaultPlan plan2 = std::move(r2).take();
  EXPECT_EQ(plan.seed(), plan2.seed());
  for (std::size_t s = 0; s < kSeamCount; ++s) {
    EXPECT_DOUBLE_EQ(plan.rate(static_cast<Seam>(s)),
                     plan2.rate(static_cast<Seam>(s)));
  }
  EXPECT_EQ(plan.device_losses().size(), plan2.device_losses().size());
  EXPECT_DOUBLE_EQ(plan2.rate(Seam::kRankMsgDrop), 0.125);
  EXPECT_DOUBLE_EQ(plan2.rate(Seam::kRankLoss), 0.0625);
}

TEST(FaultPlan, RankSeamsArePersistent) {
  // A dropped batch must stay dropped for its (epoch, link, batch) key no
  // matter how often the layer re-evaluates it; retransmission is modelled
  // as extra cost, not as a second draw.
  FaultPlan plan(13);
  plan.arm(Seam::kRankMsgDrop, 1.0);
  plan.arm(Seam::kRankLoss, 1.0);
  EXPECT_TRUE(plan.fires(Seam::kRankMsgDrop, 5, 0));
  EXPECT_TRUE(plan.fires(Seam::kRankMsgDrop, 5, 1));
  EXPECT_TRUE(plan.fires(Seam::kRankLoss, 5, 0));
  EXPECT_TRUE(plan.fires(Seam::kRankLoss, 5, 1));
}

TEST(FaultPlanParse, RejectsMalformedSpecs) {
  for (const char* spec :
       {"seed", "seed=", "seed=x", "task_exception=2notanumber",
        "unknown_seam=0.5", "device_loss=1", "device_loss=@2",
        "device_loss=a@b", "=0.5",
        // uint32 fields must not wrap, and the recovery rank is reserved.
        "device_loss=4294967296@0", "device_loss=1@4294967297",
        "device_loss=4294967295@3"}) {
    auto r = FaultPlan::parse(spec);
    EXPECT_FALSE(r.is_ok()) << spec;
    if (!r.is_ok()) {
      EXPECT_EQ(r.error().code(), ErrorCode::kParseError) << spec;
    }
  }
}

TEST(FaultPlanParse, FromEnvReadsAndValidates) {
  ::setenv("LASSM_FAULTPLAN", "seed=9 walk_hang=0.125", 1);
  auto plan = FaultPlan::from_env();
  ASSERT_TRUE(plan.is_ok());
  ASSERT_TRUE(plan.value().has_value());
  EXPECT_EQ(plan.value()->seed(), 9U);
  EXPECT_DOUBLE_EQ(plan.value()->rate(Seam::kWalkHang), 0.125);

  ::unsetenv("LASSM_FAULTPLAN");
  auto unset = FaultPlan::from_env();
  ASSERT_TRUE(unset.is_ok());
  EXPECT_FALSE(unset.value().has_value());

  ::setenv("LASSM_FAULTPLAN", "", 1);
  auto empty = FaultPlan::from_env();
  ASSERT_TRUE(empty.is_ok());
  EXPECT_FALSE(empty.value().has_value());
  ::unsetenv("LASSM_FAULTPLAN");
}

TEST(FaultPlanParse, FromEnvMalformedIsTypedErrorNamingTheToken) {
  // A typo must become a kParseError carrying the offending token — never
  // a partially armed plan, never a silently disabled one.
  const char* bad_specs[] = {
      "walk_hang=notanumber",
      "seed=9 walk_hang=0.1 task_exceptoin=0.5",  // typo'd seam name
      "seed=-1",                                  // stoull would wrap this
      "task_exception=1.5",
      "device_loss=1@",
  };
  for (const char* spec : bad_specs) {
    ::setenv("LASSM_FAULTPLAN", spec, 1);
    auto plan = FaultPlan::from_env();
    ASSERT_FALSE(plan.is_ok()) << spec;
    EXPECT_EQ(plan.error().code(), ErrorCode::kParseError) << spec;
  }
  // The error message names the bad token, not just "parse failed".
  ::setenv("LASSM_FAULTPLAN", "seed=9 task_exceptoin=0.5", 1);
  auto plan = FaultPlan::from_env();
  ASSERT_FALSE(plan.is_ok());
  EXPECT_NE(plan.error().message().find("task_exceptoin"), std::string::npos)
      << plan.error().to_string();
  ::unsetenv("LASSM_FAULTPLAN");
}

TEST(FaultPlan, SeamNamesAreUniqueAndSnakeCase) {
  for (std::size_t a = 0; a < kSeamCount; ++a) {
    const std::string name = seam_name(static_cast<Seam>(a));
    EXPECT_FALSE(name.empty());
    for (char ch : name) {
      EXPECT_TRUE((ch >= 'a' && ch <= 'z') || ch == '_') << name;
    }
    for (std::size_t b = a + 1; b < kSeamCount; ++b) {
      EXPECT_NE(name, std::string(seam_name(static_cast<Seam>(b))));
    }
  }
}

// ---------------------------------------------------------------------------
// Spec decoder fuzz. LASSM_FAULTPLAN is untrusted text: every prefix of a
// full spec and thousands of seeded corruptions of it must each come back
// as a typed kParseError or as a plan whose canonical spec parses back to
// itself. Nothing may throw.

/// Arms every rate seam and schedules two device losses.
std::string full_spec() {
  std::string spec = "seed=8675309";
  for (std::size_t i = 0; i < kSeamCount; ++i) {
    const Seam seam = static_cast<Seam>(i);
    if (seam == Seam::kDeviceLoss) continue;
    spec += ' ' + std::string(seam_name(seam)) + "=0." +
            std::to_string(i + 1) + "25";
  }
  return spec + " device_loss=1@2 device_loss=3@40";
}

void expect_rejected_or_consistent(const std::string& spec,
                                   const std::string& what) {
  std::optional<Result<FaultPlan>> parsed;
  ASSERT_NO_THROW(parsed.emplace(FaultPlan::parse(spec))) << what;
  if (!parsed->is_ok()) {
    EXPECT_EQ(parsed->error().code(), ErrorCode::kParseError) << what;
    return;
  }
  const std::string canonical = parsed->value().to_spec();
  std::optional<Result<FaultPlan>> again;
  ASSERT_NO_THROW(again.emplace(FaultPlan::parse(canonical))) << what;
  ASSERT_TRUE(again->is_ok()) << what << ": " << canonical;
  EXPECT_EQ(again->value().to_spec(), canonical) << what;
}

TEST(FaultPlanFuzz, FullSpecArmsEverySeam) {
  auto r = FaultPlan::parse(full_spec());
  ASSERT_TRUE(r.is_ok()) << full_spec();
  for (std::size_t i = 0; i < kSeamCount; ++i) {
    const Seam seam = static_cast<Seam>(i);
    if (seam != Seam::kDeviceLoss) {
      EXPECT_GT(r.value().rate(seam), 0.0);
    }
  }
  EXPECT_EQ(r.value().device_losses().size(), 2U);
}

TEST(FaultPlanFuzz, EveryTruncationIsRejectedOrConsistent) {
  const std::string spec = full_spec();
  for (std::size_t n = 0; n <= spec.size(); ++n) {
    expect_rejected_or_consistent(spec.substr(0, n),
                                  "prefix of " + std::to_string(n) + " bytes");
    if (HasFatalFailure()) return;
  }
}

TEST(FaultPlanFuzz, RandomByteCorruptionIsRejectedOrConsistent) {
  const std::string spec = full_spec();
  bio::Xoshiro256 rng(2026);
  for (int trial = 0; trial < 3000; ++trial) {
    std::string bytes = spec;
    const std::uint64_t flips = 1 + rng.below(4);
    for (std::uint64_t f = 0; f < flips; ++f) {
      const std::size_t at = rng.below(bytes.size());
      // Half the flips write a digit, so ranks, batches, seeds and rates
      // get plausible-looking wrong values rather than only parse failures.
      bytes[at] = rng.below(2) == 0
                      ? static_cast<char>('0' + rng.below(10))
                      : static_cast<char>(rng.below(256));
    }
    expect_rejected_or_consistent(bytes, "trial " + std::to_string(trial));
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace lassm::resilience
