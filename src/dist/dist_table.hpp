#pragma once

#include <cstdint>
#include <vector>

#include "bio/kmer.hpp"
#include "dist/message_layer.hpp"
#include "dist/partition.hpp"
#include "pipeline/kmer_analysis.hpp"

/// Rank-sharded k-mer count table: one pipeline::KmerCounts per rank,
/// holding exactly the FlatKmerTable shards the ShardMap assigns to it,
/// with owner-computes remote operations batched through the
/// MessageLayer (the hash_map.hpp insert/find split of the CS267
/// distributed k-mer table, batched HipMer-style).
///
/// Protocols (all driver-thread; epochs are MessageLayer flushes):
///  - insert: add() applies locally when the caller owns the k-mer and
///    enqueues an InsertMsg otherwise; after a flush, every rank
///    drain_inserts() — applying remote increments in (ascending src,
///    send order), a deterministic schedule, so table contents are a pure
///    function of the logical insert sequence. Slot layout is not: a
///    rank's own windows are counted through a concurrent table whose
///    layout depends on the thread interleaving, and nothing downstream
///    depends on it.
///  - find: find_enqueue() records the request order and either answers
///    locally (owner == requester, no traffic) or enqueues a FindReq;
///    after a flush, owners serve_finds() (FindResp per request, in
///    request order per link); after a second flush, collect_finds()
///    reassembles the counts in the exact order the requests were made.
///    Within an epoch, inserts are drained before finds are served, so a
///    mixed epoch reads its own writes.
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

  /// Applies the rank's queued remote inserts from the current inbox.
  void drain_inserts(std::uint32_t rank);

  /// Rank `rank` asks for km's count (0 when absent/filtered). Answered
  /// by collect_finds() after the serve round-trip.
  void find_enqueue(std::uint32_t rank, const bio::PackedKmer& km);

  /// Owner side: answers every FindReq in the rank's current inbox.
  void serve_finds(std::uint32_t rank);

  /// Requester side: counts in find_enqueue() order. Clears the rank's
  /// pending request state.
  std::vector<std::uint32_t> collect_finds(std::uint32_t rank);

  /// Live entries across all ranks (ascending rank order).
  std::uint64_t total_size() const;

 private:
  struct InsertMsg {
    bio::PackedKmer km;
    std::uint32_t n;
  };
  struct FindReq {
    bio::PackedKmer km;
  };
  struct FindResp {
    std::uint32_t count;
  };
  struct PendingFinds {
    std::vector<std::uint32_t> dst_seq;     ///< owner per request, in order
    std::vector<std::uint32_t> self_vals;   ///< answers for dst == self
  };

  std::uint32_t lookup(std::uint32_t rank, const bio::PackedKmer& km) const;

  const ShardMap* map_;
  MessageLayer* msg_;
  std::vector<pipeline::KmerCounts> tables_;
  std::vector<PendingFinds> pending_;
};

}  // namespace lassm::dist
