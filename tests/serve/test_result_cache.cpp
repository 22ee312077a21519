#include "serve/result_cache.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "serve_test_util.hpp"

namespace lassm::serve {
namespace {

CachedResult sample_result(std::uint64_t tag) {
  CachedResult r;
  bio::ContigExtension e;
  e.contig_id = tag;
  e.left = "ACGT" + std::to_string(tag);
  e.right = "TTAG";
  e.left_mer_len = 21;
  e.right_mer_len = 33;
  r.extensions.push_back(e);
  e.contig_id = tag + 1;
  e.left.clear();
  e.right = "GGGC";
  r.extensions.push_back(e);
  r.modelled_time_s = 0.125 * static_cast<double>(tag + 1);
  return r;
}

TEST(ResultCache, RoundTripsBitIdentical) {
  ResultCache cache(8);
  const CacheKey key{0xabcdULL, 0x1234ULL};
  const CachedResult stored = sample_result(7);
  cache.put(key, stored);
  const auto got = cache.get(key, nullptr).hit;
  ASSERT_TRUE(got.has_value());
  testutil::expect_extensions_eq(got->extensions, stored.extensions,
                                 "roundtrip");
  EXPECT_EQ(got->modelled_time_s, stored.modelled_time_s);
  const ResultCache::Stats s = cache.stats();
  EXPECT_EQ(s.hits, 1U);
  EXPECT_EQ(s.misses, 0U);
  EXPECT_EQ(s.corruptions, 0U);
  EXPECT_EQ(s.entries, 1U);
}

TEST(ResultCache, MissOnUnknownKey) {
  ResultCache cache(8);
  EXPECT_FALSE(cache.get(CacheKey{1, 2}, nullptr).hit.has_value());
  EXPECT_EQ(cache.stats().misses, 1U);
}

TEST(ResultCache, LruEvictsOldestAndRefreshesOnHit) {
  ResultCache cache(2);
  cache.put(CacheKey{1, 0}, sample_result(1));
  cache.put(CacheKey{2, 0}, sample_result(2));
  // Touch key 1 so key 2 becomes the LRU victim.
  ASSERT_TRUE(cache.get(CacheKey{1, 0}, nullptr).hit.has_value());
  cache.put(CacheKey{3, 0}, sample_result(3));
  EXPECT_TRUE(cache.get(CacheKey{1, 0}, nullptr).hit.has_value());
  EXPECT_FALSE(cache.get(CacheKey{2, 0}, nullptr).hit.has_value());
  EXPECT_TRUE(cache.get(CacheKey{3, 0}, nullptr).hit.has_value());
  EXPECT_EQ(cache.stats().evictions, 1U);
  EXPECT_EQ(cache.stats().entries, 2U);
}

TEST(ResultCache, CyclicTrafficWiderThanTheCacheKeepsAResidentSet) {
  // Keys cycle through four times the capacity, each stored on its miss
  // and asked for once more straight away. Pure LRU evicts every key long
  // before the cycle returns to it, so no first request would ever hit.
  constexpr std::size_t kCapacity = 16;
  constexpr std::uint64_t kKeys = 4 * kCapacity;
  ResultCache cache(kCapacity);
  std::vector<std::size_t> first_hits;
  for (int pass = 0; pass < 4; ++pass) {
    std::size_t hits = 0;
    for (std::uint64_t k = 0; k < kKeys; ++k) {
      const CacheKey key{k, 0};
      if (cache.get(key, nullptr).hit.has_value()) {
        ++hits;
      } else {
        cache.put(key, sample_result(k));
      }
      // The repeat always finds the entry it follows.
      EXPECT_TRUE(cache.get(key, nullptr).hit.has_value()) << k;
    }
    first_hits.push_back(hits);
  }
  // The protected segment (all but the 1/8 probation) stays resident.
  EXPECT_EQ(first_hits[0], 0U);
  for (int pass = 1; pass < 4; ++pass) {
    EXPECT_EQ(first_hits[pass], kCapacity - kCapacity / 8) << "pass " << pass;
  }
  EXPECT_EQ(cache.stats().entries, kCapacity);
}

TEST(ResultCache, AgingLetsStaleProtectedEntriesGo) {
  ResultCache cache(8);
  for (std::uint64_t k = 0; k < 7; ++k) {  // fills the protected segment
    cache.put(CacheKey{k, 0}, sample_result(k));
    ASSERT_TRUE(cache.get(CacheKey{k, 0}, nullptr).hit.has_value());
  }
  // New keys, each hit once, tie with the old ones until aging halves the
  // old hit counts; then they take the protected places.
  for (std::uint64_t k = 100; k < 200; ++k) {
    cache.put(CacheKey{k, 0}, sample_result(k));
    ASSERT_TRUE(cache.get(CacheKey{k, 0}, nullptr).hit.has_value());
  }
  for (std::uint64_t k = 0; k < 7; ++k) {
    EXPECT_FALSE(cache.get(CacheKey{k, 0}, nullptr).hit.has_value()) << k;
  }
}

TEST(ResultCache, OverwriteReplacesValue) {
  ResultCache cache(4);
  const CacheKey key{9, 9};
  cache.put(key, sample_result(1));
  cache.put(key, sample_result(2));
  const auto got = cache.get(key, nullptr).hit;
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->extensions.front().contig_id, 2U);
  EXPECT_EQ(cache.stats().entries, 1U);
}

TEST(ResultCache, ZeroCapacityStoresNothing) {
  ResultCache cache(0);
  cache.put(CacheKey{1, 1}, sample_result(1));
  EXPECT_FALSE(cache.get(CacheKey{1, 1}, nullptr).hit.has_value());
  EXPECT_EQ(cache.stats().entries, 0U);
}

TEST(ResultCache, CorruptionSeamNeverReturnsCorruptBytes) {
  resilience::FaultPlan plan(42);
  plan.arm(resilience::Seam::kCacheCorrupt, 1.0);
  ResultCache cache(8);
  const CacheKey key{0xfeedULL, 0xbeefULL};
  cache.put(key, sample_result(5));
  // The armed seam flips a byte before read-back: the checksum must catch
  // it, the entry is evicted and the read reports a miss — never a wrong
  // answer.
  const ResultCache::Lookup first = cache.get(key, &plan);
  EXPECT_FALSE(first.hit.has_value());
  EXPECT_TRUE(first.corrupted);
  ResultCache::Stats s = cache.stats();
  EXPECT_EQ(s.corruptions, 1U);
  EXPECT_EQ(s.misses, 1U);
  EXPECT_EQ(s.hits, 0U);
  EXPECT_EQ(s.entries, 0U);
  // Recompute-and-restore works; the persistent seam corrupts the fresh
  // generation again on its first read (deterministic per key).
  cache.put(key, sample_result(5));
  EXPECT_FALSE(cache.get(key, &plan).hit.has_value());
  EXPECT_EQ(cache.stats().corruptions, 2U);
}

TEST(ResultCache, CorruptionSeamIsDeterministicPerKey) {
  resilience::FaultPlan plan(7);
  plan.arm(resilience::Seam::kCacheCorrupt, 0.5);
  ResultCache cache(64);
  std::uint64_t corrupted = 0;
  for (std::uint64_t k = 0; k < 32; ++k) {
    const CacheKey key{k, 1};
    cache.put(key, sample_result(k));
    const bool first = cache.get(key, &plan).hit.has_value();
    if (!first) ++corrupted;
    // A second probe agrees with the first: clean entries stay clean,
    // corrupted ones were evicted (miss again with no re-put).
    EXPECT_EQ(cache.get(key, &plan).hit.has_value(), first) << k;
  }
  // Rate 0.5 over 32 keys: some of each, exact set fixed by the seed.
  EXPECT_GT(corrupted, 0U);
  EXPECT_LT(corrupted, 32U);
  EXPECT_EQ(cache.stats().corruptions, corrupted);
}

// Client threads and the dispatcher probe one cache at once. Each lookup
// reports the corruption it found itself, so the per-call flags add up to
// the cache's own count: no corruption is claimed twice or by the wrong
// caller.
TEST(ResultCache, ConcurrentLookupsAttributeEachCorruptionOnce) {
  resilience::FaultPlan plan(21);
  plan.arm(resilience::Seam::kCacheCorrupt, 0.5);
  constexpr std::uint64_t kKeys = 32;
  constexpr int kThreads = 4;
  constexpr int kRounds = 20;
  ResultCache cache(kKeys);
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    cache.put(CacheKey{k, 3}, sample_result(k));
  }
  std::vector<std::uint64_t> flagged(kThreads, 0);
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int round = 0; round < kRounds; ++round) {
          for (std::uint64_t k = 0; k < kKeys; ++k) {
            const CacheKey key{(k + static_cast<std::uint64_t>(t)) % kKeys,
                               3};
            const ResultCache::Lookup got = cache.get(key, &plan);
            if (got.corrupted) ++flagged[static_cast<std::size_t>(t)];
            // Re-store a missing entry: the fresh generation is corrupted
            // again on its first read, so corruptions keep racing.
            if (!got.hit) cache.put(key, sample_result(key.dataset_fp));
          }
        }
      });
    }
    for (std::thread& th : threads) th.join();
  }
  std::uint64_t total = 0;
  for (std::uint64_t f : flagged) total += f;
  EXPECT_GT(total, 0U);
  EXPECT_EQ(total, cache.stats().corruptions);
}

TEST(Fingerprint, InputSensitiveToEveryField) {
  const core::AssemblyInput base = testutil::small_dataset(3);
  const std::uint64_t h0 = fingerprint_input(base);
  EXPECT_EQ(fingerprint_input(base), h0);  // deterministic

  core::AssemblyInput other = testutil::small_dataset(3);
  other.contigs[0].seq[0] = other.contigs[0].seq[0] == 'A' ? 'C' : 'A';
  EXPECT_NE(fingerprint_input(other), h0);

  other = testutil::small_dataset(3);
  other.contigs[0].id += 1;
  EXPECT_NE(fingerprint_input(other), h0);

  other = testutil::small_dataset(3);
  other.kmer_len += 2;
  EXPECT_NE(fingerprint_input(other), h0);

  other = testutil::small_dataset(3);
  if (!other.left_reads[0].empty() && !other.right_reads[0].empty()) {
    std::swap(other.left_reads[0], other.right_reads[0]);
    EXPECT_NE(fingerprint_input(other), h0);
  }

  EXPECT_NE(fingerprint_input(testutil::small_dataset(4)), h0);
}

TEST(Fingerprint, OptionsSensitiveToKernelKnobs) {
  core::AssemblyOptions opts;
  const simt::DeviceSpec dev = simt::DeviceSpec::a100();
  const std::uint64_t h0 =
      fingerprint_options(opts, dev, simt::ProgrammingModel::kCuda);
  core::AssemblyOptions o1 = opts;
  o1.max_walk_len += 1;
  EXPECT_NE(fingerprint_options(o1, dev, simt::ProgrammingModel::kCuda), h0);
  core::AssemblyOptions o2 = opts;
  o2.min_mer_len += 2;
  EXPECT_NE(fingerprint_options(o2, dev, simt::ProgrammingModel::kCuda), h0);
  EXPECT_NE(fingerprint_options(opts, dev, simt::ProgrammingModel::kHip), h0);
  EXPECT_NE(fingerprint_options(opts, simt::DeviceSpec::mi250x_gcd(),
                                simt::ProgrammingModel::kCuda),
            h0);
  // Host-throughput knobs must NOT change the key: for any n_threads the
  // kernel result is bit-identical, so cached entries stay shareable.
  core::AssemblyOptions o3 = opts;
  o3.n_threads = 7;
  EXPECT_EQ(fingerprint_options(o3, dev, simt::ProgrammingModel::kCuda), h0);
}

TEST(Fingerprint, CacheKeyMixes) {
  const CacheKey a{1, 2};
  const CacheKey b{2, 1};
  EXPECT_NE(a.mixed(), b.mixed());
  EXPECT_TRUE(a == (CacheKey{1, 2}));
  EXPECT_FALSE(a == b);
}

}  // namespace
}  // namespace lassm::serve
