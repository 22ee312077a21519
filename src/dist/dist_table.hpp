#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "bio/kmer.hpp"
#include "dist/message_layer.hpp"
#include "dist/partition.hpp"
#include "pipeline/kmer_analysis.hpp"

namespace lassm::core {
class WarpExecutionEngine;
}

/// Rank-sharded k-mer count table: one pipeline::KmerCounts per rank,
/// holding exactly the FlatKmerTable shards the ShardMap assigns to it,
/// with owner-computes remote operations batched through the
/// MessageLayer (the hash_map.hpp insert/find split of the CS267
/// distributed k-mer table, batched HipMer-style).
///
/// Protocols (epochs are MessageLayer flushes). Enqueueing and flushing
/// stay on the driver thread; pool tasks only read a delivered inbox and
/// the tables, each task writing its own rank's or request list's state:
///  - insert: add() applies locally when the caller owns the k-mer and
///    enqueues an InsertMsg otherwise, and send_inserts() enqueues a batch
///    of them on one link; after a flush, every rank drain_inserts() —
///    applying remote increments in (ascending src, send order), a
///    deterministic schedule, so table contents are a pure function of
///    the logical insert sequence. Slot layout is not: a rank's own
///    windows are counted through a concurrent table whose layout depends
///    on the thread interleaving, and nothing downstream depends on it.
///  - find: find_batch() answers per-rank, per-shard request lists in two
///    epochs of its own. Requests are routed on the pool (locally owned
///    k-mers answered on the spot), the driver enqueues each link's remote
///    requests in (shard, list) order, owners answer their inboxes on the
///    pool, the driver enqueues the answers, and the pool scatters them
///    back into the lists' shape.
namespace lassm::dist {

class DistKmerTable {
 public:
  /// MessageLayer channel assignments for the whole dist subsystem. The
  /// walk channel carries the distributed DBG's handoffs (a walk whose
  /// next node another rank owns), not this class's traffic; it lives
  /// here so every user shares one numbering.
  enum Channel : std::uint32_t {
    kInsertChannel = 0,
    kFindReqChannel = 1,
    kFindRespChannel = 2,
    kWalkChannel = 3,
    kNumChannels = 4,
  };

  /// One remote increment on the insert channel.
  struct InsertMsg {
    bio::PackedKmer km;
    std::uint32_t n;
  };

  /// Lists indexed [rank][shard]; the shard is the caller's grouping key
  /// (e.g. the shard of the node a request is made for).
  template <class T>
  using RankShardLists =
      std::vector<std::array<std::vector<T>, ShardMap::kShards>>;

  DistKmerTable(const ShardMap& map, MessageLayer& msg);

  const ShardMap& map() const noexcept { return *map_; }
  MessageLayer& msg() noexcept { return *msg_; }
  pipeline::KmerCounts& local(std::uint32_t rank) { return tables_[rank]; }
  const pipeline::KmerCounts& local(std::uint32_t rank) const {
    return tables_[rank];
  }

  /// Rank `rank` adds `n` occurrences of `km`: local immediate apply or
  /// remote enqueue to the owner (delivered at the next flush).
  void add(std::uint32_t rank, const bio::PackedKmer& km,
           std::uint32_t n = 1);

  /// Rank `src` enqueues remote increments for `owner`, which owns every
  /// k-mer in `msgs` (delivered at the next flush, in array order).
  void send_inserts(std::uint32_t src, std::uint32_t owner,
                    const std::vector<InsertMsg>& msgs);

  /// Applies the rank's queued remote inserts from the current inbox.
  void drain_inserts(std::uint32_t rank);

  /// Batched find: answers[rank][shard][i] is the count of
  /// requests[rank][shard][i] (0 when absent or filtered). Lists of dead
  /// ranks must be empty. Runs two flush epochs — requests, then answers —
  /// which must start with nothing queued. Each link carries its remote
  /// requests in shard order, then list order: the traffic of one serial
  /// pass over the lists, at every thread count.
  RankShardLists<std::uint32_t> find_batch(
      RankShardLists<bio::PackedKmer> requests,
      core::WarpExecutionEngine* pool);

  /// Live entries across all ranks (ascending rank order).
  std::uint64_t total_size() const;

 private:
  const ShardMap* map_;
  MessageLayer* msg_;
  std::vector<pipeline::KmerCounts> tables_;
};

}  // namespace lassm::dist
