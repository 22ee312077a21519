#include "pipeline/kmer_analysis.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "bio/rng.hpp"

namespace lassm::pipeline {
namespace {

bio::ReadSet reads_of(std::initializer_list<const char*> seqs) {
  bio::ReadSet rs;
  for (const char* s : seqs) rs.append(s, 35);
  return rs;
}

TEST(KmerAnalysis, CountsEveryWindow) {
  const auto rs = reads_of({"ACGTACGT"});  // 5 windows of k=4
  const KmerCounts counts = count_kmers(rs, 4);
  EXPECT_EQ(counts.size(), 4U);  // ACGT repeats: ACGT,CGTA,GTAC,TACG
  EXPECT_EQ(counts.at(bio::PackedKmer::pack("ACGT")), 2U);
  EXPECT_EQ(counts.at(bio::PackedKmer::pack("CGTA")), 1U);
}

TEST(KmerAnalysis, CountsAcrossReads) {
  const auto rs = reads_of({"AAAAA", "AAAA"});
  const KmerCounts counts = count_kmers(rs, 4);
  EXPECT_EQ(counts.at(bio::PackedKmer::pack("AAAA")), 3U);
}

TEST(KmerAnalysis, ShortReadsContributeNothing) {
  const auto rs = reads_of({"ACG"});
  EXPECT_TRUE(count_kmers(rs, 4).empty());
}

TEST(KmerAnalysis, CanonicalMergesStrands) {
  // TTTT's canonical form is AAAA.
  const auto rs = reads_of({"AAAA", "TTTT"});
  const KmerCounts plain = count_kmers(rs, 4, /*canonical=*/false);
  EXPECT_EQ(plain.size(), 2U);
  const KmerCounts canon = count_kmers(rs, 4, /*canonical=*/true);
  EXPECT_EQ(canon.size(), 1U);
  EXPECT_EQ(canon.at(bio::PackedKmer::pack("AAAA")), 2U);
}

TEST(KmerAnalysis, FilterRemovesSingletons) {
  const auto rs = reads_of({"ACGTAC", "ACGTA"});
  KmerCounts counts = count_kmers(rs, 5);  // ACGTA x2, CGTAC x1
  const std::size_t removed = filter_low_count(counts, 2);
  EXPECT_EQ(removed, 1U);
  EXPECT_EQ(counts.size(), 1U);
  EXPECT_TRUE(counts.contains(bio::PackedKmer::pack("ACGTA")));
}

TEST(KmerAnalysis, FilterThresholdOneKeepsAll) {
  const auto rs = reads_of({"ACGTACGT"});
  KmerCounts counts = count_kmers(rs, 4);
  EXPECT_EQ(filter_low_count(counts, 1), 0U);
}

TEST(KmerAnalysis, HistogramBucketsAndCap) {
  const auto rs = reads_of({"AAAAAAAAAAAAAAAAAAAAAAAA"});  // AAAA x21
  const KmerCounts counts = count_kmers(rs, 4);
  const auto hist = count_histogram(counts, 8);
  ASSERT_EQ(hist.size(), 9U);
  EXPECT_EQ(hist[8], 1U);  // count 21 capped into the last bucket
}

TEST(FlatKmerTable, ForEachSlotInShardVisitsExactlyTheUsedSlots) {
  using Table = FlatKmerTable<std::uint32_t>;
  Table table;
  bio::Xoshiro256 rng(7);
  for (std::uint32_t i = 0; i < 3000; ++i) {
    std::string s(33, 'A');  // two-word keys
    for (char& c : s) c = bio::code_to_base(static_cast<int>(rng.below(4)));
    table.get_or_insert(bio::PackedKmer::pack(s)) = i + 1;
  }
  const auto offsets = table.dense_offsets();
  std::set<std::uint64_t> ids;
  for (std::uint32_t s = 0; s < Table::kShards; ++s) {
    std::size_t in_shard = 0;
    table.for_each_slot_in_shard(
        s, [&](std::size_t slot, const Table::Entry& e) {
          ASSERT_TRUE(e.used());
          const std::uint64_t id = offsets[s] + slot;
          ASSERT_LT(id, offsets[s + 1]);
          const Table::Found f = table.dense_find(e.key, offsets);
          EXPECT_EQ(f.id, id);
          EXPECT_EQ(f.value, &e.value);
          ids.insert(id);
          ++in_shard;
        });
    EXPECT_EQ(in_shard, table.shard_entries(s)) << s;
  }
  EXPECT_EQ(ids.size(), table.entries());
}

TEST(FlatKmerTable, FindHashedEqualsFind) {
  using Table = FlatKmerTable<std::uint32_t>;
  Table table;
  bio::Xoshiro256 rng(9);
  const auto random_kmer = [&] {
    std::string s(21, 'A');
    for (char& c : s) c = bio::code_to_base(static_cast<int>(rng.below(4)));
    return bio::PackedKmer::pack(s);
  };
  std::vector<bio::PackedKmer> present;
  for (std::uint32_t i = 0; i < 2000; ++i) {
    present.push_back(random_kmer());
    // Every third key is filtered: present in the table with count 0.
    table.get_or_insert(present.back()) = i % 3 == 0 ? 0 : i + 1;
  }
  std::vector<bio::PackedKmer> keys = present;
  for (int i = 0; i < 500; ++i) keys.push_back(random_kmer());  // absent
  std::size_t found = 0;
  std::size_t filtered = 0;
  for (const bio::PackedKmer& km : keys) {
    const std::uint32_t* want = table.find(km);
    const std::uint32_t* got = table.find_hashed(km, km.hash64());
    EXPECT_EQ(got, want);
    found += got != nullptr;
    filtered += got != nullptr && *got == 0;
  }
  // All three kinds of key were probed.
  EXPECT_EQ(found, table.entries());
  EXPECT_GT(filtered, 0U);
  EXPECT_LT(found, keys.size());
}

}  // namespace
}  // namespace lassm::pipeline
