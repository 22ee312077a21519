// Differential tests of the distributed building blocks against direct
// single-table oracles: ShardMap partitioning/adoption invariants,
// MessageLayer framing + drain order + NetworkSpec billing + the
// rank_msg_drop seam + bulk sends, DistKmerTable's batched insert/find
// protocols under seeded randomized interleavings at 1/2/4 ranks, and the
// distributed front-end (count / filter / contigs) vs the single-rank
// front-end at 1 and 4 worker threads, on shotgun reads and on hand-built
// graphs, with the DBG's message count held to a probe model computed
// from the rank tables alone and its whole traffic ledger pinned. The
// contract throughout: ranks, batching and armed message-drop plans are
// cost knobs, never result knobs.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "bio/kmer.hpp"
#include "bio/rng.hpp"
#include "core/exec.hpp"
#include "dist/dist_table.hpp"
#include "dist/frontend.hpp"
#include "dist/message_layer.hpp"
#include "dist/partition.hpp"
#include "pipeline/dbg.hpp"
#include "pipeline/kmer_analysis.hpp"
#include "resilience/fault_plan.hpp"

namespace lassm::dist {
namespace {

std::string random_seq(std::uint64_t seed, std::size_t len) {
  bio::Xoshiro256 rng(seed);
  std::string s(len, 'A');
  for (char& c : s) c = bio::code_to_base(static_cast<int>(rng.below(4)));
  return s;
}

bio::ReadSet shotgun(const std::string& genome, double coverage,
                     std::uint32_t read_len, std::uint64_t seed) {
  bio::Xoshiro256 rng(seed);
  bio::ReadSet reads;
  const auto n = static_cast<std::uint64_t>(
      coverage * static_cast<double>(genome.size()) / read_len);
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t start = rng.below(genome.size() - read_len);
    reads.append(genome.substr(start, read_len), 35);
  }
  return reads;
}

std::vector<bio::PackedKmer> random_kmers(std::uint64_t seed, std::size_t n,
                                          std::uint32_t k = 21) {
  const std::string s = random_seq(seed, n + k - 1);
  std::vector<bio::PackedKmer> kmers;
  bio::for_each_packed_kmer(
      s, k, [&](const bio::PackedKmer& km, std::size_t) {
        kmers.push_back(km);
      });
  return kmers;
}

/// Sorted (kmer, count) dump of one table, tombstones excluded.
using Dump = std::vector<std::pair<bio::PackedKmer, std::uint32_t>>;

Dump dump_counts(const pipeline::KmerCounts& counts) {
  Dump d;
  for (std::uint32_t s = 0; s < pipeline::KmerCounts::Table::kShards; ++s) {
    counts.table().for_each_in_shard(s, [&](const auto& e) {
      if (e.value != 0) d.emplace_back(e.key, e.value);
    });
  }
  std::sort(d.begin(), d.end());
  return d;
}

Dump dump_dist(const DistKmerTable& table) {
  Dump d;
  for (const std::uint32_t r : table.map().live_ranks()) {
    const Dump part = dump_counts(table.local(r));
    d.insert(d.end(), part.begin(), part.end());
  }
  std::sort(d.begin(), d.end());
  return d;
}

std::unique_ptr<core::WarpExecutionEngine> make_pool(unsigned n_threads) {
  if (n_threads <= 1) return nullptr;
  return std::make_unique<core::WarpExecutionEngine>(
      simt::DeviceSpec::a100(), simt::ProgrammingModel::kCuda,
      core::AssemblyOptions{}, n_threads);
}

// ---------------------------------------------------------------------------
// ShardMap

TEST(ShardMap, InitialAssignmentCoversAllShardsContiguously) {
  for (const std::uint32_t ranks : {1u, 2u, 3u, 4u, 8u, 64u}) {
    SCOPED_TRACE("ranks=" + std::to_string(ranks));
    ShardMap map(ranks);
    EXPECT_EQ(map.n_ranks(), ranks);
    EXPECT_EQ(map.n_live(), ranks);
    std::uint64_t covered = 0;
    for (std::uint32_t s = 0; s < ShardMap::kShards; ++s) {
      const std::uint32_t owner = map.owner_of_shard(s);
      EXPECT_EQ(owner, s * ranks / ShardMap::kShards);
      EXPECT_LT(owner, ranks);
      // Contiguity: owner is monotone in the shard index.
      if (s > 0) {
        EXPECT_GE(owner, map.owner_of_shard(s - 1));
      }
      covered += 1;
    }
    EXPECT_EQ(covered, ShardMap::kShards);
    std::size_t total = 0;
    for (std::uint32_t r = 0; r < ranks; ++r) {
      const auto shards = map.shards_of(r);
      total += shards.size();
      if (ShardMap::kShards % ranks == 0) {
        EXPECT_EQ(shards.size(), ShardMap::kShards / ranks);
      }
    }
    EXPECT_EQ(total, ShardMap::kShards);
  }
}

TEST(ShardMap, RankOfHashAgreesWithTableSharding) {
  ShardMap map(4);
  for (const bio::PackedKmer& km : random_kmers(1, 200)) {
    const std::uint64_t h = km.hash64();
    EXPECT_EQ(map.rank_of_hash(h),
              map.owner_of_shard(ShardMap::Table::shard_of_hash(h)));
  }
}

TEST(ShardMap, AdoptReassignsOrphansToLeastLoadedSurvivors) {
  ShardMap map(4);
  const std::vector<std::uint32_t> orphans = map.adopt(2);
  ASSERT_EQ(orphans.size(), 16U);  // rank 2 owned shards 32..47
  EXPECT_TRUE(std::is_sorted(orphans.begin(), orphans.end()));
  EXPECT_EQ(orphans.front(), 32U);
  EXPECT_EQ(orphans.back(), 47U);
  EXPECT_FALSE(map.live(2));
  EXPECT_EQ(map.n_live(), 3U);
  // Every shard is owned by a live rank, and the load stays balanced.
  std::array<std::size_t, 4> loads{};
  for (std::uint32_t s = 0; s < ShardMap::kShards; ++s) {
    const std::uint32_t owner = map.owner_of_shard(s);
    EXPECT_TRUE(map.live(owner));
    ++loads[owner];
  }
  EXPECT_EQ(loads[2], 0U);
  const auto [lo, hi] =
      std::minmax({loads[0], loads[1], loads[3]});
  EXPECT_LE(hi - lo, 1U);
  // Adopting an already-dead rank is a no-op.
  EXPECT_TRUE(map.adopt(2).empty());
  EXPECT_EQ(map.n_live(), 3U);
}

TEST(ShardMap, AdoptIsDeterministic) {
  ShardMap a(8);
  ShardMap b(8);
  for (const std::uint32_t lost : {3u, 0u, 5u}) {
    EXPECT_EQ(a.adopt(lost), b.adopt(lost));
  }
  for (std::uint32_t s = 0; s < ShardMap::kShards; ++s) {
    EXPECT_EQ(a.owner_of_shard(s), b.owner_of_shard(s));
  }
  EXPECT_EQ(a.live_ranks(), b.live_ranks());
}

// ---------------------------------------------------------------------------
// MessageLayer

simt::NetworkSpec test_net() {
  simt::NetworkSpec net;
  net.latency_us = 2.0;
  net.bandwidth_gbps = 25.0;
  net.batch_budget_bytes = 64 * 1024;
  return net;
}

TEST(MessageLayer, DeliversInAscendingSrcSendOrder) {
  MessageLayer msg(3, 2, test_net());
  // Interleave sends from several sources on two channels.
  msg.send<std::uint32_t>(2, 1, 0, 200);
  msg.send<std::uint32_t>(0, 1, 0, 100);
  msg.send<std::uint32_t>(2, 1, 0, 201);
  msg.send<std::uint32_t>(1, 1, 0, 150);  // loopback
  msg.send<std::uint32_t>(0, 1, 1, 999);  // other channel
  EXPECT_EQ(msg.pending(), 5U);
  msg.flush();
  EXPECT_EQ(msg.pending(), 0U);

  std::vector<std::pair<std::uint32_t, std::uint32_t>> got;
  msg.for_each<std::uint32_t>(1, 0, [&](std::uint32_t src, std::uint32_t v) {
    got.emplace_back(src, v);
  });
  const std::vector<std::pair<std::uint32_t, std::uint32_t>> want{
      {0, 100}, {1, 150}, {2, 200}, {2, 201}};
  EXPECT_EQ(got, want);
  EXPECT_EQ(msg.inbox_count(1, 0), 4U);
  EXPECT_EQ(msg.inbox_count(1, 1), 1U);

  // The next flush replaces the inbox: the prior epoch's messages are gone.
  msg.flush();
  EXPECT_EQ(msg.inbox_count(1, 0), 0U);
}

TEST(MessageLayer, BillsRemotePayloadOnlyAndBatchesPerBudget) {
  const simt::NetworkSpec net = test_net();
  MessageLayer msg(2, 1, net);

  // Loopback is free: a rank reading its own table costs nothing.
  std::vector<char> blob(1000, 'x');
  msg.send_bytes(0, 0, 0, blob.data(),
                 static_cast<std::uint32_t>(blob.size()));
  msg.flush();
  EXPECT_EQ(msg.traffic().msgs, 0U);
  EXPECT_EQ(msg.traffic().bytes, 0U);
  EXPECT_EQ(msg.traffic().batches, 0U);
  EXPECT_DOUBLE_EQ(msg.traffic().network_s, 0.0);
  EXPECT_EQ(msg.traffic().flushes, 1U);

  // 100 KB remote on one link: two batches against the 64 KB budget,
  // each billed latency + bytes/bandwidth.
  const std::uint64_t payload = 100'000;
  std::vector<char> big(payload, 'y');
  msg.send_bytes(0, 1, 0, big.data(), static_cast<std::uint32_t>(payload));
  const double epoch_s = msg.flush();
  EXPECT_EQ(msg.traffic().msgs, 1U);
  EXPECT_EQ(msg.traffic().bytes, payload);
  EXPECT_EQ(msg.traffic().batches, 2U);
  const double want_s = 2 * net.latency_us * 1e-6 +
                        static_cast<double>(payload) /
                            (net.bandwidth_gbps * 1e9);
  EXPECT_NEAR(epoch_s, want_s, want_s * 1e-9);
  EXPECT_NEAR(msg.traffic().network_s, want_s, want_s * 1e-9);
}

TEST(MessageLayer, EpochCostIsMaxOverConcurrentLinks) {
  const simt::NetworkSpec net = test_net();
  MessageLayer msg(3, 1, test_net());
  std::vector<char> small(100, 'a');
  std::vector<char> large(50'000, 'b');
  msg.send_bytes(0, 1, 0, small.data(),
                 static_cast<std::uint32_t>(small.size()));
  msg.send_bytes(2, 1, 0, large.data(),
                 static_cast<std::uint32_t>(large.size()));
  const double epoch_s = msg.flush();
  // Links transfer concurrently: the epoch costs the slower link, not the
  // sum of both.
  const double slow = net.latency_us * 1e-6 +
                      static_cast<double>(large.size()) /
                          (net.bandwidth_gbps * 1e9);
  EXPECT_NEAR(epoch_s, slow, slow * 1e-9);
}

TEST(MessageLayer, BulkBillingCostsLikeQueuedPayload) {
  MessageLayer queued(2, 1, test_net());
  std::vector<char> blob(30'000, 'q');
  queued.send_bytes(0, 1, 0, blob.data(),
                    static_cast<std::uint32_t>(blob.size()));
  const double queued_s = queued.flush();

  MessageLayer bulk(2, 1, test_net());
  bulk.bill_bulk(0, 1, 1, 30'000);
  const double bulk_s = bulk.flush();
  EXPECT_DOUBLE_EQ(bulk_s, queued_s);
  EXPECT_EQ(bulk.traffic().msgs, queued.traffic().msgs);
  EXPECT_EQ(bulk.traffic().bytes, queued.traffic().bytes);
  EXPECT_EQ(bulk.traffic().batches, queued.traffic().batches);
  // Bulk is billing-only: nothing lands in the inbox.
  EXPECT_EQ(bulk.inbox_count(1, 0), 0U);
}

TEST(MessageLayer, DropSeamBillsRetransmitsWithoutChangingDelivery) {
  resilience::FaultPlan plan(7);
  plan.arm(resilience::Seam::kRankMsgDrop, 1.0);

  MessageLayer dropped(2, 1, test_net(), &plan);
  MessageLayer clean(2, 1, test_net());
  for (std::uint32_t i = 0; i < 100; ++i) {
    dropped.send<std::uint32_t>(0, 1, 0, i);
    clean.send<std::uint32_t>(0, 1, 0, i);
  }
  const double dropped_s = dropped.flush();
  const double clean_s = clean.flush();

  // Every batch dropped once, retransmitted once, delivered intact.
  EXPECT_GT(dropped.traffic().drops, 0U);
  EXPECT_EQ(dropped.traffic().drops, dropped.traffic().retransmits);
  EXPECT_GT(dropped_s, clean_s);
  std::vector<std::uint32_t> got_dropped;
  std::vector<std::uint32_t> got_clean;
  dropped.for_each<std::uint32_t>(
      1, 0, [&](std::uint32_t, std::uint32_t v) { got_dropped.push_back(v); });
  clean.for_each<std::uint32_t>(
      1, 0, [&](std::uint32_t, std::uint32_t v) { got_clean.push_back(v); });
  EXPECT_EQ(got_dropped, got_clean);
  EXPECT_EQ(dropped.traffic().msgs, clean.traffic().msgs);
  EXPECT_EQ(dropped.traffic().bytes, clean.traffic().bytes);
}

/// Every field of two traffic ledgers, network seconds bit for bit.
void expect_same_traffic(const TrafficStats& a, const TrafficStats& b) {
  EXPECT_EQ(a.msgs, b.msgs);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.batches, b.batches);
  EXPECT_EQ(a.drops, b.drops);
  EXPECT_EQ(a.retransmits, b.retransmits);
  EXPECT_EQ(a.flushes, b.flushes);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(a.network_s),
            std::bit_cast<std::uint64_t>(b.network_s));
}

/// dst's inbox on `channel` as (src, frame bytes), in drain order.
std::vector<std::pair<std::uint32_t, std::string>> inbox_frames(
    const MessageLayer& msg, std::uint32_t dst, std::uint32_t channel) {
  std::vector<std::pair<std::uint32_t, std::string>> frames;
  msg.for_each_bytes(dst, channel,
                     [&](std::uint32_t src, const char* p, std::uint32_t n) {
                       frames.emplace_back(src, std::string(p, n));
                     });
  return frames;
}

TEST(MessageLayer, SendArrayMatchesRepeatedSend) {
  struct Msg {
    std::uint64_t key;
    std::uint32_t value;
    std::uint32_t channel;
  };
  resilience::FaultPlan plan(3);
  plan.arm(resilience::Seam::kRankMsgDrop, 0.5);
  MessageLayer arrays(3, 2, test_net(), &plan);
  MessageLayer singles(3, 2, test_net(), &plan);

  // Two epochs, so the second one sends into the buffers the first one
  // delivered into. Some links carry several batches' worth.
  for (std::uint32_t epoch = 0; epoch < 2; ++epoch) {
    SCOPED_TRACE("epoch " + std::to_string(epoch));
    for (std::uint32_t src = 0; src < 3; ++src) {
      for (std::uint32_t dst = 0; dst < 3; ++dst) {
        for (std::uint32_t ch = 0; ch < 2; ++ch) {
          std::vector<Msg> batch((src + 1) * (dst + 2) * (ch + 1) * 1500 +
                                 epoch);
          for (std::size_t i = 0; i < batch.size(); ++i) {
            batch[i] = Msg{i * 7919 + src, static_cast<std::uint32_t>(i), ch};
          }
          // Split in two calls: appends continue the link's frames.
          const std::size_t half = batch.size() / 2;
          arrays.send_array(src, dst, ch, batch.data(), half);
          arrays.send_array(src, dst, ch, batch.data() + half,
                            batch.size() - half);
          for (const Msg& m : batch) singles.send(src, dst, ch, m);
        }
      }
    }
    EXPECT_EQ(arrays.pending(), singles.pending());
    EXPECT_EQ(std::bit_cast<std::uint64_t>(arrays.flush()),
              std::bit_cast<std::uint64_t>(singles.flush()));
    expect_same_traffic(arrays.traffic(), singles.traffic());
    for (std::uint32_t dst = 0; dst < 3; ++dst) {
      for (std::uint32_t ch = 0; ch < 2; ++ch) {
        EXPECT_EQ(inbox_frames(arrays, dst, ch),
                  inbox_frames(singles, dst, ch));
        EXPECT_EQ(arrays.inbox_count(dst, ch), singles.inbox_count(dst, ch));
      }
    }
  }
  // The armed plan did drop some batches, identically on both sides.
  EXPECT_GT(arrays.traffic().drops, 0U);
  EXPECT_LT(arrays.traffic().drops, arrays.traffic().batches);
}

TEST(MessageLayer, HeaderPlusBulkBillsLikeOneFrame) {
  struct Header {
    std::uint64_t epoch;
    std::uint64_t seq_len;
  };
  resilience::FaultPlan plan(5);
  plan.arm(resilience::Seam::kRankMsgDrop, 0.5);
  for (const std::uint32_t n : {0u, 1u, 1000u, 70'000u, 200'000u}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    MessageLayer frame(2, 1, test_net(), &plan);
    MessageLayer split(2, 1, test_net(), &plan);
    for (std::uint32_t epoch = 0; epoch < 3; ++epoch) {
      const Header h{epoch, n};
      std::string bytes(sizeof(h) + n, 's');
      std::memcpy(bytes.data(), &h, sizeof(h));
      frame.send_bytes(0, 1, 0, bytes.data(),
                       static_cast<std::uint32_t>(bytes.size()));
      split.send(0, 1, 0, h);
      split.bill_bulk(0, 1, 0, n);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(frame.flush()),
                std::bit_cast<std::uint64_t>(split.flush()));
      expect_same_traffic(frame.traffic(), split.traffic());
      // Only the header crossed the queue.
      const auto got = inbox_frames(split, 1, 0);
      ASSERT_EQ(got.size(), 1U);
      EXPECT_EQ(got[0].second, bytes.substr(0, sizeof(h)));
    }
  }
}

// ---------------------------------------------------------------------------
// DistKmerTable differential vs a direct single-table oracle

TEST(DistKmerTable, RandomizedInsertsMatchDirectOracle) {
  const std::vector<bio::PackedKmer> pool = random_kmers(42, 300);
  for (const std::uint32_t ranks : {1u, 2u, 4u}) {
    SCOPED_TRACE("ranks=" + std::to_string(ranks));
    ShardMap map(ranks);
    MessageLayer msg(map.n_ranks(), DistKmerTable::kNumChannels, test_net());
    DistKmerTable table(map, msg);
    pipeline::KmerCounts oracle;

    // Random (rank, kmer, n) adds with flush epochs at random interleaving
    // points: the batched protocol must land exactly the oracle's contents.
    std::mt19937 rng(1234);
    const auto drain_all = [&] {
      msg.flush();
      for (const std::uint32_t r : map.live_ranks()) table.drain_inserts(r);
    };
    for (int op = 0; op < 3000; ++op) {
      const bio::PackedKmer& km = pool[rng() % pool.size()];
      const auto src = static_cast<std::uint32_t>(rng() % ranks);
      const auto n = static_cast<std::uint32_t>(1 + rng() % 3);
      table.add(src, km, n);
      oracle.add_hashed(km, km.hash64(), n);
      if (rng() % 97 == 0) drain_all();
    }
    drain_all();
    for (const std::uint32_t r : map.live_ranks()) {
      table.local(r).rebuild_size();
    }

    EXPECT_EQ(table.total_size(), oracle.size());
    EXPECT_EQ(dump_dist(table), dump_counts(oracle));
    // Owner-computes: every k-mer lives on exactly its owner rank.
    for (const bio::PackedKmer& km : pool) {
      const std::uint32_t owner = map.rank_of_hash(km.hash64());
      for (const std::uint32_t r : map.live_ranks()) {
        const bool has = table.local(r).contains(km);
        EXPECT_EQ(has, r == owner && oracle.contains(km));
      }
    }
    if (ranks == 1) {
      EXPECT_EQ(msg.traffic().msgs, 0U);
    } else {
      EXPECT_GT(msg.traffic().msgs, 0U);
    }
  }
}

TEST(DistKmerTable, FindProtocolAnswersInRequestOrder) {
  const std::vector<bio::PackedKmer> pool = random_kmers(43, 200);
  const std::vector<bio::PackedKmer> absent = random_kmers(44, 50);
  for (const std::uint32_t ranks : {1u, 2u, 4u}) {
    for (const unsigned threads : {1u, 4u}) {
      SCOPED_TRACE("ranks=" + std::to_string(ranks) +
                   " threads=" + std::to_string(threads));
      const auto workers = make_pool(threads);
      ShardMap map(ranks);
      MessageLayer msg(map.n_ranks(), DistKmerTable::kNumChannels,
                       test_net());
      DistKmerTable table(map, msg);
      pipeline::KmerCounts oracle;

      std::mt19937 rng(77);
      for (const bio::PackedKmer& km : pool) {
        const auto n = static_cast<std::uint32_t>(1 + rng() % 5);
        table.add(static_cast<std::uint32_t>(rng() % ranks), km, n);
        oracle.add_hashed(km, km.hash64(), n);
      }
      msg.flush();
      for (const std::uint32_t r : map.live_ranks()) table.drain_inserts(r);

      // Each rank asks for a different shuffled mix of present and absent
      // k-mers, spread over random request lists; answers must come back
      // in the exact order asked.
      DistKmerTable::RankShardLists<bio::PackedKmer> queries(ranks);
      for (std::uint32_t r = 0; r < ranks; ++r) {
        std::vector<bio::PackedKmer> mix = pool;
        mix.insert(mix.end(), absent.begin(), absent.end());
        std::shuffle(mix.begin(), mix.end(), rng);
        for (const bio::PackedKmer& km : mix) {
          queries[r][rng() % ShardMap::kShards].push_back(km);
        }
      }
      const TrafficStats before = msg.traffic();
      const DistKmerTable::RankShardLists<std::uint32_t> got =
          table.find_batch(queries, workers.get());
      EXPECT_EQ(msg.traffic().flushes - before.flushes, 2U);
      ASSERT_EQ(got.size(), queries.size());
      for (std::uint32_t r = 0; r < ranks; ++r) {
        for (std::uint32_t s = 0; s < ShardMap::kShards; ++s) {
          ASSERT_EQ(got[r][s].size(), queries[r][s].size());
          for (std::size_t i = 0; i < got[r][s].size(); ++i) {
            const std::uint32_t* c = oracle.table().find(queries[r][s][i]);
            const std::uint32_t want = c != nullptr ? *c : 0;
            EXPECT_EQ(got[r][s][i], want)
                << "rank " << r << " list " << s << " query " << i;
          }
        }
      }
    }
  }
}

TEST(DistKmerTable, ArmedDropPlanLeavesResultsIdentical) {
  const std::vector<bio::PackedKmer> pool = random_kmers(45, 250);
  resilience::FaultPlan plan(11);
  plan.arm(resilience::Seam::kRankMsgDrop, 1.0);

  ShardMap map_a(4);
  MessageLayer msg_a(4, DistKmerTable::kNumChannels, test_net());
  DistKmerTable clean(map_a, msg_a);
  ShardMap map_b(4);
  MessageLayer msg_b(4, DistKmerTable::kNumChannels, test_net(), &plan);
  DistKmerTable lossy(map_b, msg_b);

  std::mt19937 rng(5);
  for (const bio::PackedKmer& km : pool) {
    const auto src = static_cast<std::uint32_t>(rng() % 4);
    clean.add(src, km);
    lossy.add(src, km);
  }
  for (DistKmerTable* t : {&clean, &lossy}) {
    t->msg().flush();
    for (const std::uint32_t r : t->map().live_ranks()) t->drain_inserts(r);
  }

  EXPECT_EQ(dump_dist(lossy), dump_dist(clean));
  EXPECT_GT(msg_b.traffic().drops, 0U);
  EXPECT_EQ(msg_b.traffic().retransmits, msg_b.traffic().drops);
  EXPECT_EQ(msg_b.traffic().msgs, msg_a.traffic().msgs);
  EXPECT_GT(msg_b.traffic().network_s, msg_a.traffic().network_s);
}

// ---------------------------------------------------------------------------
// Distributed front-end vs the single-rank front-end

TEST(DistFrontend, CountFilterContigsMatchOracleAtEveryRankAndThreadCount) {
  constexpr std::uint32_t kK = 21;
  const bio::ReadSet reads = shotgun(random_seq(21, 4000), 8.0, 120, 22);

  // Single-rank oracle front-end, dumped both pre- and post-filter.
  pipeline::KmerCounts oracle = pipeline::count_kmers(reads, kK);
  const Dump oracle_raw_dump = dump_counts(oracle);
  const std::uint64_t oracle_raw_size = oracle.size();
  const std::size_t oracle_filtered = pipeline::filter_low_count(oracle, 2);
  const Dump oracle_filtered_dump = dump_counts(oracle);
  pipeline::DbgStats oracle_stats;
  const bio::ContigSet oracle_contigs =
      pipeline::generate_contigs(oracle, kK, 100, &oracle_stats);

  for (const std::uint32_t ranks : {1u, 2u, 4u}) {
    for (const unsigned threads : {1u, 4u}) {
      SCOPED_TRACE("ranks=" + std::to_string(ranks) +
                   " threads=" + std::to_string(threads));
      const auto pool = make_pool(threads);
      ShardMap map(ranks);
      MessageLayer msg(map.n_ranks(), DistKmerTable::kNumChannels,
                       test_net());
      DistKmerTable table(map, msg);

      const CountStats cstats = count_kmers_dist(
          table, reads, kK, ~std::uint64_t{0}, pool.get());
      EXPECT_EQ(dump_dist(table), oracle_raw_dump);
      EXPECT_EQ(table.total_size(), oracle_raw_size);
      if (ranks == 1) {
        EXPECT_EQ(cstats.remote_msgs, 0U);
        EXPECT_DOUBLE_EQ(cstats.remote_msgs_model, 0.0);
      } else {
        EXPECT_GT(cstats.remote_msgs, 0U);
        // The uniform-hash analytic model holds the measured remote
        // message count within 5% (the weak-scaling bench's gate).
        EXPECT_NEAR(static_cast<double>(cstats.remote_msgs),
                    cstats.remote_msgs_model,
                    cstats.remote_msgs_model * 0.05);
      }

      EXPECT_EQ(filter_low_count_dist(table, 2, pool.get()),
                oracle_filtered);
      EXPECT_EQ(dump_dist(table), oracle_filtered_dump);

      pipeline::DbgStats stats;
      const bio::ContigSet contigs =
          generate_contigs_dist(table, kK, 100, &stats, pool.get());
      ASSERT_EQ(contigs.size(), oracle_contigs.size());
      for (std::size_t i = 0; i < contigs.size(); ++i) {
        EXPECT_EQ(contigs[i].id, oracle_contigs[i].id);
        EXPECT_EQ(contigs[i].seq, oracle_contigs[i].seq);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(contigs[i].depth),
                  std::bit_cast<std::uint64_t>(oracle_contigs[i].depth));
      }
      EXPECT_EQ(stats.nodes, oracle_stats.nodes);
      EXPECT_EQ(stats.forks, oracle_stats.forks);
      EXPECT_EQ(stats.dead_ends, oracle_stats.dead_ends);
      EXPECT_EQ(stats.contigs, oracle_stats.contigs);
    }
  }
}

TEST(DistFrontend, ArmedDropPlanDoesNotChangeContigs) {
  constexpr std::uint32_t kK = 21;
  const bio::ReadSet reads = shotgun(random_seq(23, 3000), 8.0, 120, 24);
  resilience::FaultPlan plan(99);
  plan.arm(resilience::Seam::kRankMsgDrop, 1.0);

  bio::ContigSet clean_contigs;
  bio::ContigSet lossy_contigs;
  std::uint64_t lossy_drops = 0;
  for (const bool lossy : {false, true}) {
    ShardMap map(4);
    MessageLayer msg(map.n_ranks(), DistKmerTable::kNumChannels, test_net(),
                     lossy ? &plan : nullptr);
    DistKmerTable table(map, msg);
    count_kmers_dist(table, reads, kK, ~std::uint64_t{0}, nullptr);
    filter_low_count_dist(table, 2, nullptr);
    bio::ContigSet contigs =
        generate_contigs_dist(table, kK, 100, nullptr, nullptr);
    if (lossy) {
      lossy_contigs = std::move(contigs);
      lossy_drops = msg.traffic().drops;
    } else {
      clean_contigs = std::move(contigs);
    }
  }
  EXPECT_GT(lossy_drops, 0U);
  ASSERT_EQ(lossy_contigs.size(), clean_contigs.size());
  for (std::size_t i = 0; i < clean_contigs.size(); ++i) {
    EXPECT_EQ(lossy_contigs[i].seq, clean_contigs[i].seq);
  }
}

// ---------------------------------------------------------------------------
// Distributed DBG: hand-built graphs and the traffic it sends

/// The k-mers of `unit` read as a circle.
std::string circular(const std::string& unit, std::uint32_t k) {
  return unit + unit.substr(0, k - 1);
}

/// One graph built to hit a stopping rule of the unitig walk: the reads
/// spelling it, and the low-count filter threshold applied after counting.
struct DbgShape {
  std::string name;
  std::vector<std::string> seqs;
  std::uint32_t min_count = 1;
};

std::vector<DbgShape> dbg_shapes(std::uint32_t k) {
  // Branches that differ in their first and last base fork at one node
  // and join at one node.
  const std::string prefix = random_seq(41, 40);
  const std::string suffix = random_seq(42, 40);
  // Windows of s[0,70) and s[80,150) occur three times, the ones in between
  // once; a substituted copy adds a once-seen branch at 30. Filtering at 3
  // tombstones the once-seen k-mers and breaks the path at the gap.
  const std::string s = random_seq(51, 150);
  std::string mutated = s;
  mutated[30] = mutated[30] == 'A' ? 'C' : 'A';
  return {
      {"poly-A self-loop", {std::string(40, 'A')}},
      {"two disjoint cycles",
       {circular(random_seq(21, 60), k), circular(random_seq(22, 80), k)}},
      {"tail into cycle",
       {random_seq(32, 30) + circular(random_seq(31, 70), k)}},
      {"fork into joins",
       {prefix + "A" + random_seq(43, 30) + "A" + suffix,
        prefix + "C" + random_seq(44, 30) + "C" + suffix,
        prefix + "G" + random_seq(45, 30) + "G" + suffix}},
      {"paths broken by tombstones",
       {s.substr(0, 70), s.substr(0, 70), s.substr(80), s.substr(80), s,
        mutated},
       3},
      // Pure cycles long enough that every rank owns part of each: pass 2
      // breaks them with walks that hand off all the way round.
      {"cycles spanning ranks",
       {circular(random_seq(71, 3000), k), circular(random_seq(72, 5000), k)}},
  };
}

TEST(DistFrontend, DbgMatchesSingleRankOnHandBuiltGraphs) {
  constexpr std::uint32_t kK = 21;
  for (const DbgShape& shape : dbg_shapes(kK)) {
    bio::ReadSet reads;
    for (const std::string& seq : shape.seqs) reads.append(seq, 35);
    pipeline::KmerCounts oracle = pipeline::count_kmers(reads, kK);
    pipeline::filter_low_count(oracle, shape.min_count);
    pipeline::DbgStats want_stats;
    const bio::ContigSet want =
        pipeline::generate_contigs(oracle, kK, 0, &want_stats);
    ASSERT_FALSE(want.empty()) << shape.name;

    for (const std::uint32_t ranks : {1u, 2u, 4u, 8u}) {
      for (const unsigned threads : {1u, 4u}) {
        SCOPED_TRACE(shape.name + " ranks=" + std::to_string(ranks) +
                     " threads=" + std::to_string(threads));
        const auto pool = make_pool(threads);
        ShardMap map(ranks);
        MessageLayer msg(map.n_ranks(), DistKmerTable::kNumChannels,
                         test_net());
        DistKmerTable table(map, msg);
        count_kmers_dist(table, reads, kK, ~std::uint64_t{0}, pool.get());
        filter_low_count_dist(table, shape.min_count, pool.get());

        pipeline::DbgStats stats;
        const bio::ContigSet got =
            generate_contigs_dist(table, kK, 0, &stats, pool.get());
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
          EXPECT_EQ(got[i].id, want[i].id);
          EXPECT_EQ(got[i].seq, want[i].seq);
          EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i].depth),
                    std::bit_cast<std::uint64_t>(want[i].depth));
        }
        EXPECT_EQ(stats.nodes, want_stats.nodes);
        EXPECT_EQ(stats.forks, want_stats.forks);
        EXPECT_EQ(stats.dead_ends, want_stats.dead_ends);
        EXPECT_EQ(stats.contigs, want_stats.contigs);
      }
    }
  }
}

/// Messages the distributed DBG must send, from the filtered tables alone.
/// Each find is one request and one response; it is remote when the probed
/// k-mer's owner is not the probing rank. Classification probes a node's 4
/// successors and 4 predecessors, then the 4 successors of the unique
/// predecessor of every node with in-degree 1. A walk hands off once per
/// node with out-degree 1 whose successor lives on another rank.
std::uint64_t dbg_msgs_model(const DistKmerTable& table) {
  const ShardMap& map = table.map();
  const auto owner = [&](const bio::PackedKmer& km) {
    return map.rank_of_hash(km.hash64());
  };
  const auto present = [&](const bio::PackedKmer& km) {
    const std::uint32_t* c = table.local(owner(km)).table().find(km);
    return c != nullptr && *c != 0;
  };
  std::uint64_t finds = 0;
  std::uint64_t handoffs = 0;
  for (const std::uint32_t rank : map.live_ranks()) {
    for (std::uint32_t s = 0; s < pipeline::KmerCounts::Table::kShards; ++s) {
      table.local(rank).table().for_each_in_shard(s, [&](const auto& e) {
        if (e.value == 0) return;
        int in = 0;
        int out = 0;
        bio::PackedKmer pred;
        bio::PackedKmer next;
        for (int code = 0; code < bio::kNumBases; ++code) {
          const bio::PackedKmer succ = e.key.successor(code);
          const bio::PackedKmer prev = e.key.predecessor(code);
          finds += (owner(succ) != rank) + (owner(prev) != rank);
          if (present(succ)) {
            ++out;
            next = succ;
          }
          if (present(prev)) {
            ++in;
            pred = prev;
          }
        }
        if (in == 1) {
          for (int code = 0; code < bio::kNumBases; ++code) {
            finds += owner(pred.successor(code)) != rank;
          }
        }
        if (out == 1 && owner(next) != rank) ++handoffs;
      });
    }
  }
  return 2 * finds + handoffs;
}

/// A 60 kb genome with a 400 bp repeat (forks and joins), sampled at 10x
/// in 120 bp reads with 0.5% substitutions: tips and bubbles throughout.
bio::ReadSet repeat_genome_reads() {
  constexpr std::size_t kReadLen = 120;
  std::string genome = random_seq(81, 60000);
  genome.replace(40000, 400, genome.substr(10000, 400));
  bio::Xoshiro256 rng(82);
  bio::ReadSet reads;
  for (std::size_t r = 0; r < 10 * genome.size() / kReadLen; ++r) {
    std::string read =
        genome.substr(rng.below(genome.size() - kReadLen), kReadLen);
    for (char& c : read) {
      if (rng.below(200) == 0) {
        c = bio::code_to_base(static_cast<int>(rng.below(4)));
      }
    }
    reads.append(read, 35);
  }
  return reads;
}

TEST(DistFrontend, DbgTrafficMatchesProbeModel) {
  constexpr std::uint32_t kK = 21;
  const bio::ReadSet reads = repeat_genome_reads();

  for (const std::uint32_t ranks : {2u, 4u, 8u}) {
    std::vector<TrafficStats> dbg;
    for (const unsigned threads : {1u, 4u}) {
      SCOPED_TRACE("ranks=" + std::to_string(ranks) +
                   " threads=" + std::to_string(threads));
      const auto pool = make_pool(threads);
      ShardMap map(ranks);
      MessageLayer msg(map.n_ranks(), DistKmerTable::kNumChannels,
                       test_net());
      DistKmerTable table(map, msg);
      count_kmers_dist(table, reads, kK, ~std::uint64_t{0}, pool.get());
      filter_low_count_dist(table, 2, pool.get());
      const std::uint64_t want_msgs = dbg_msgs_model(table);

      const TrafficStats before = msg.traffic();
      generate_contigs_dist(table, kK, 0, nullptr, pool.get());
      dbg.push_back(msg.traffic().minus(before));
      EXPECT_EQ(dbg.back().msgs, want_msgs);
    }
    SCOPED_TRACE("ranks=" + std::to_string(ranks) + ", 1 vs 4 threads");
    EXPECT_EQ(dbg[0].msgs, dbg[1].msgs);
    EXPECT_EQ(dbg[0].bytes, dbg[1].bytes);
    EXPECT_EQ(dbg[0].batches, dbg[1].batches);
    EXPECT_EQ(dbg[0].flushes, dbg[1].flushes);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(dbg[0].network_s),
              std::bit_cast<std::uint64_t>(dbg[1].network_s));
  }
}

TEST(DistFrontend, DbgTrafficIsPinned) {
  // The DBG's whole traffic ledger on the repeat genome, walk sequence
  // bytes included (the probe model above counts messages only). Any
  // change to what the ranks send, or how it is batched, moves these.
  struct Pinned {
    std::uint32_t ranks;
    std::uint64_t msgs;
    std::uint64_t bytes;
    std::uint64_t batches;
    std::uint64_t flushes;
    std::uint64_t network_s_bits;
  };
  constexpr Pinned kPinned[] = {
      {2, 684'653, 58'302'107, 5'162, 2'709, 0x3f7cb475599da70fULL},
      {4, 1'025'322, 86'819'289, 23'833, 4'018, 0x3f8259c0e9a73c8eULL},
      {8, 1'197'140, 101'265'898, 44'609, 4'675, 0x3f8492cb7a0981eeULL},
  };
  constexpr std::uint32_t kK = 21;
  const bio::ReadSet reads = repeat_genome_reads();
  const auto pool = make_pool(4);
  for (const Pinned& want : kPinned) {
    SCOPED_TRACE("ranks=" + std::to_string(want.ranks));
    ShardMap map(want.ranks);
    MessageLayer msg(map.n_ranks(), DistKmerTable::kNumChannels, test_net());
    DistKmerTable table(map, msg);
    count_kmers_dist(table, reads, kK, ~std::uint64_t{0}, pool.get());
    filter_low_count_dist(table, 2, pool.get());
    const TrafficStats before = msg.traffic();
    generate_contigs_dist(table, kK, 0, nullptr, pool.get());
    const TrafficStats got = msg.traffic().minus(before);
    EXPECT_EQ(got.msgs, want.msgs);
    EXPECT_EQ(got.bytes, want.bytes);
    EXPECT_EQ(got.batches, want.batches);
    EXPECT_EQ(got.flushes, want.flushes);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.network_s),
              want.network_s_bits);
  }
}

}  // namespace
}  // namespace lassm::dist
