#include "core/loc_ht.hpp"

#include <gtest/gtest.h>

#include <string>

namespace lassm::core {
namespace {

TEST(LocHt, EstimateSlotsPowerOfTwoAboveLoad) {
  const AssemblyOptions opts;
  for (std::uint64_t ins : {1ULL, 10ULL, 100ULL, 705ULL, 5000ULL}) {
    const std::uint32_t slots = LocHashTable::estimate_slots(ins, 0.5);
    EXPECT_EQ(slots & (slots - 1), 0U) << "not a power of two: " << slots;
    EXPECT_GE(slots, ins * 2) << "load factor violated";
  }
  (void)opts;
}

TEST(LocHt, EstimateSlotsMinimum) {
  EXPECT_GE(LocHashTable::estimate_slots(0, 0.5), 16U);
  EXPECT_GE(LocHashTable::estimate_slots(1, 0.5), 16U);
}

TEST(LocHt, EstimateSlotsBadLoadFactorFallsBack) {
  EXPECT_EQ(LocHashTable::estimate_slots(100, -1.0),
            LocHashTable::estimate_slots(100, 0.5));
  EXPECT_EQ(LocHashTable::estimate_slots(100, 2.0),
            LocHashTable::estimate_slots(100, 0.5));
}

TEST(LocHt, ResetClearsEntries) {
  LocHashTable t;
  t.reset(64, 0x1000);
  t.entry(3).key_len = 21;
  t.entry(3).count = 5;
  t.reset(64, 0x2000);
  EXPECT_TRUE(t.entry(3).empty());
  EXPECT_EQ(t.entry(3).count, 0);
  EXPECT_EQ(t.sim_base(), 0x2000U);
  EXPECT_EQ(t.occupied(), 0U);
}

TEST(LocHt, LazyResetIsObservationallyFresh) {
  // reset() at an unchanged size only bumps the epoch; stale slots must
  // still read as freshly cleared through every accessor, generation
  // after generation (including across the mer-ladder's many resets).
  const std::string buf(32, 'A');
  LocHashTable t;
  for (std::uint32_t gen = 0; gen < 300; ++gen) {
    t.reset(64, 0x1000 + gen * 0x800);
    EXPECT_EQ(t.occupied(), 0U) << "gen " << gen;
    const bio::KmerView key{buf.data(), 21, 100};
    EXPECT_EQ(t.find(key), nullptr) << "gen " << gen;
    // Dirty a couple of slots; the next reset must forget them.
    HtEntry& e = t.entry(gen % 64);
    e.key_ptr = buf.data();
    e.key_len = 21;
    e.count = 9;
    t.entry((gen + 7) % 64).key_len = 33;
    EXPECT_EQ(t.occupied(), 2U) << "gen " << gen;
  }
}

TEST(LocHt, ResizingResetIsObservationallyFresh) {
  // Tasks reset the table to a new size each time; shrinking reuses a
  // prefix of the slab and growing appends to it, and either way every
  // slot of the new table reads as freshly cleared.
  const std::string buf(32, 'C');
  LocHashTable t;
  for (const std::uint32_t slots : {256u, 16u, 64u, 1024u, 16u, 256u}) {
    t.reset(slots, 0x1000);
    EXPECT_EQ(t.slots(), slots);
    EXPECT_EQ(t.footprint_bytes(), std::uint64_t{slots} * kEntryBytes);
    EXPECT_EQ(t.occupied(), 0U) << slots;
    for (std::uint32_t s = 0; s < slots; ++s) {
      ASSERT_TRUE(t.entry(s).empty()) << slots << " slot " << s;
      ASSERT_EQ(t.entry(s).count, 0) << slots << " slot " << s;
    }
    const bio::KmerView key{buf.data(), 21, 100};
    EXPECT_EQ(t.find(key), nullptr);
    // Fill every slot; the next reset must forget all of them.
    for (std::uint32_t s = 0; s < slots; ++s) {
      t.entry(s).key_ptr = buf.data();
      t.entry(s).key_len = 21;
      t.entry(s).count = 3;
    }
    EXPECT_EQ(t.occupied(), slots);
  }
}

TEST(LocHt, SlotAddressing) {
  LocHashTable t;
  t.reset(16, 0x4000);
  EXPECT_EQ(t.slot_addr(0), 0x4000U);
  EXPECT_EQ(t.slot_addr(3), 0x4000U + 3 * kEntryBytes);
  EXPECT_EQ(t.footprint_bytes(), 16U * kEntryBytes);
}

TEST(LocHt, FindLocatesInsertedKey) {
  const std::string buf = "ACGTACGTACGTACGTACGTACGTA";
  LocHashTable t;
  t.reset(64, 0x1000);
  const bio::KmerView key{buf.data(), 21, 500};
  const std::uint32_t slot = key.hash(64);
  t.entry(slot).key_ptr = key.ptr;
  t.entry(slot).key_len = key.len;
  const HtEntry* found = t.find(key);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found, &t.entry(slot));
  // A different key is absent.
  const std::string other(21, 'G');
  EXPECT_EQ(t.find(bio::KmerView{other.data(), 21, 600}), nullptr);
}

TEST(LocHt, SaturatingInc) {
  std::uint16_t v = 0xFFFE;
  saturating_inc(v);
  EXPECT_EQ(v, 0xFFFF);
  saturating_inc(v);
  EXPECT_EQ(v, 0xFFFF);  // saturates, never wraps
}

TEST(ChooseExtension, NoVotesEndsWalk) {
  HtEntry e;
  EXPECT_EQ(choose_extension(e, {}).state, WalkState::kEnd);
}

TEST(ChooseExtension, SingleHighQualityVoteWins) {
  HtEntry e;
  e.hi_q_exts[bio::base_to_code('G')] = 1;
  const ExtChoice c = choose_extension(e, {});
  EXPECT_EQ(c.state, WalkState::kRunning);
  EXPECT_EQ(c.ext, 'G');
}

TEST(ChooseExtension, SingleLowQualityVoteStillViable) {
  // Sparse datasets rely on depth-1 low-quality extension (see loc_ht.cpp).
  HtEntry e;
  e.low_q_exts[bio::base_to_code('T')] = 1;
  const ExtChoice c = choose_extension(e, {});
  EXPECT_EQ(c.state, WalkState::kRunning);
  EXPECT_EQ(c.ext, 'T');
}

TEST(ChooseExtension, HighQualityBeatsLowQuality) {
  HtEntry e;
  e.hi_q_exts[bio::base_to_code('A')] = 1;   // score 2
  e.low_q_exts[bio::base_to_code('C')] = 1;  // score 1
  EXPECT_EQ(choose_extension(e, {}).ext, 'A');
}

TEST(ChooseExtension, EqualScoresFork) {
  HtEntry e;
  e.hi_q_exts[bio::base_to_code('A')] = 2;
  e.hi_q_exts[bio::base_to_code('T')] = 2;
  EXPECT_EQ(choose_extension(e, {}).state, WalkState::kFork);
}

TEST(ChooseExtension, MixedScoresTieFork) {
  HtEntry e;
  e.hi_q_exts[bio::base_to_code('A')] = 1;   // score 2
  e.low_q_exts[bio::base_to_code('G')] = 2;  // score 2
  EXPECT_EQ(choose_extension(e, {}).state, WalkState::kFork);
}

TEST(ChooseExtension, ClearWinnerAmongThree) {
  HtEntry e;
  e.hi_q_exts[0] = 1;
  e.hi_q_exts[1] = 5;
  e.hi_q_exts[2] = 2;
  const ExtChoice c = choose_extension(e, {});
  EXPECT_EQ(c.state, WalkState::kRunning);
  EXPECT_EQ(c.ext, 'C');
}

TEST(ChooseExtension, MinVotesThresholdRespected) {
  AssemblyOptions opts;
  opts.min_viable_votes = 3;
  HtEntry e;
  e.hi_q_exts[0] = 2;  // 2 < 3: not viable
  EXPECT_EQ(choose_extension(e, opts).state, WalkState::kEnd);
  e.low_q_exts[0] = 1;  // hi+low == 3: viable
  EXPECT_EQ(choose_extension(e, opts).state, WalkState::kRunning);
}

TEST(WalkStateTest, AcceptanceRule) {
  EXPECT_TRUE(walk_accepted(WalkState::kEnd));
  EXPECT_TRUE(walk_accepted(WalkState::kLimit));
  EXPECT_TRUE(walk_accepted(WalkState::kMissing));
  EXPECT_FALSE(walk_accepted(WalkState::kFork));
  EXPECT_FALSE(walk_accepted(WalkState::kLoop));
  EXPECT_FALSE(walk_accepted(WalkState::kRunning));
}

TEST(WalkStateTest, Names) {
  EXPECT_STREQ(walk_state_name(WalkState::kFork), "fork");
  EXPECT_STREQ(walk_state_name(WalkState::kLoop), "loop");
  EXPECT_STREQ(walk_state_name(WalkState::kEnd), "end");
}

}  // namespace
}  // namespace lassm::core
