#include "dist/dist_table.hpp"

#include <cassert>
#include <numeric>

#include "pipeline/parallel.hpp"

namespace lassm::dist {

namespace {

constexpr std::size_t kShards = ShardMap::kShards;

/// The remote part of one (rank, shard) request list, grouped by owner:
/// the k-mers sent to owner d are kmers[begin[d], begin[d + 1]) in list
/// order, and pos[j] is the list index kmers[j]'s answer goes to.
struct RoutedList {
  std::vector<bio::PackedKmer> kmers;
  std::vector<std::uint32_t> pos;
  std::vector<std::uint32_t> begin;  ///< n_ranks + 1 offsets
};

}  // namespace

DistKmerTable::DistKmerTable(const ShardMap& map, MessageLayer& msg)
    : map_(&map), msg_(&msg), tables_(map.n_ranks()) {}

void DistKmerTable::add(std::uint32_t rank, const bio::PackedKmer& km,
                        std::uint32_t n) {
  const std::uint32_t owner = map_->rank_of_hash(km.hash64());
  if (owner == rank) {
    // Through the raw table (not KmerCounts::add) so counting-phase
    // callers that also fill table() directly see one consistent size
    // bookkeeping: rebuild_size() once at the end of the phase.
    tables_[rank].table().get_or_insert(km) += n;
  } else {
    msg_->send(rank, owner, kInsertChannel, InsertMsg{km, n});
  }
}

void DistKmerTable::send_inserts(std::uint32_t src, std::uint32_t owner,
                                 const std::vector<InsertMsg>& msgs) {
  msg_->send_array(src, owner, kInsertChannel, msgs.data(), msgs.size());
}

void DistKmerTable::drain_inserts(std::uint32_t rank) {
  msg_->for_each<InsertMsg>(
      rank, kInsertChannel, [&](std::uint32_t, const InsertMsg& m) {
        tables_[rank].table().get_or_insert(m.km) += m.n;
      });
}

DistKmerTable::RankShardLists<std::uint32_t> DistKmerTable::find_batch(
    RankShardLists<bio::PackedKmer> requests,
    core::WarpExecutionEngine* pool) {
  assert(msg_->pending() == 0);
  const std::uint32_t n_ranks = map_->n_ranks();
  const std::vector<std::uint32_t> live = map_->live_ranks();
  const std::size_t n_live = live.size();
  RankShardLists<std::uint32_t> answers(n_ranks);
  std::vector<std::array<RoutedList, kShards>> routed(n_ranks);

  // Route, one task per (rank, shard): locally owned k-mers are answered
  // on the spot (one hash for owner and probe), the rest grouped by owner.
  pipeline::stage_for(pool, n_live * kShards, [&](std::size_t t, unsigned) {
    const std::uint32_t rank = live[t / kShards];
    std::vector<bio::PackedKmer>& req = requests[rank][t % kShards];
    std::vector<std::uint32_t>& ans = answers[rank][t % kShards];
    RoutedList& out = routed[rank][t % kShards];
    const pipeline::KmerCounts::Table& own = tables_[rank].table();
    ans.assign(req.size(), 0);
    out.begin.assign(n_ranks + 1, 0);
    std::vector<std::uint32_t> owner(req.size());
    for (std::size_t i = 0; i < req.size(); ++i) {
      const std::uint64_t h = req[i].hash64();
      owner[i] = map_->rank_of_hash(h);
      if (owner[i] == rank) {
        const std::uint32_t* c = own.find_hashed(req[i], h);
        ans[i] = c != nullptr ? *c : 0;
      } else {
        ++out.begin[owner[i] + 1];
      }
    }
    std::partial_sum(out.begin.begin(), out.begin.end(), out.begin.begin());
    out.kmers.resize(out.begin[n_ranks]);
    out.pos.resize(out.begin[n_ranks]);
    std::vector<std::uint32_t> next(out.begin.begin(), out.begin.end() - 1);
    for (std::size_t i = 0; i < req.size(); ++i) {
      if (owner[i] == rank) continue;
      const std::uint32_t j = next[owner[i]]++;
      out.kmers[j] = req[i];
      out.pos[j] = static_cast<std::uint32_t>(i);
    }
    std::vector<bio::PackedKmer>().swap(req);
  });

  // Epoch 1: every link's requests, shard order then list order.
  for (const std::uint32_t rank : live) {
    for (RoutedList& out : routed[rank]) {
      for (const std::uint32_t dst : live) {
        const std::uint32_t n = out.begin[dst + 1] - out.begin[dst];
        if (n != 0) {
          msg_->send_array(rank, dst, kFindReqChannel,
                           out.kmers.data() + out.begin[dst], n);
        }
      }
      std::vector<bio::PackedKmer>().swap(out.kmers);
    }
  }
  msg_->flush();

  // Owners answer each delivered link on the pool, in request order.
  std::vector<std::vector<std::uint32_t>> served(n_live * n_live);
  pipeline::stage_for(pool, n_live * n_live, [&](std::size_t t, unsigned) {
    const std::uint32_t owner = live[t / n_live];
    const std::uint32_t src = live[t % n_live];
    const pipeline::KmerCounts::Table& own = tables_[owner].table();
    msg_->for_each_from<bio::PackedKmer>(
        src, owner, kFindReqChannel, [&](const bio::PackedKmer& km) {
          const std::uint32_t* c = own.find(km);
          served[t].push_back(c != nullptr ? *c : 0);
        });
  });

  // Epoch 2: the answers, per link in request order.
  for (std::size_t t = 0; t < served.size(); ++t) {
    if (!served[t].empty()) {
      msg_->send_array(live[t / n_live], live[t % n_live], kFindRespChannel,
                       served[t].data(), served[t].size());
    }
    std::vector<std::uint32_t>().swap(served[t]);
  }
  msg_->flush();

  // Scatter each link's answers back, one task per (rank, owner) link:
  // its answers walk the lists' owner groups in shard order.
  pipeline::stage_for(pool, n_live * n_live, [&](std::size_t t, unsigned) {
    const std::uint32_t rank = live[t / n_live];
    const std::uint32_t owner = live[t % n_live];
    std::array<RoutedList, kShards>& lists = routed[rank];
    std::size_t shard = 0;
    std::uint32_t j = lists[0].begin[owner];
    msg_->for_each_from<std::uint32_t>(
        owner, rank, kFindRespChannel, [&](std::uint32_t count) {
          while (j == lists[shard].begin[owner + 1]) {
            ++shard;
            j = lists[shard].begin[owner];
          }
          answers[rank][shard][lists[shard].pos[j++]] = count;
        });
  });
  return answers;
}

std::uint64_t DistKmerTable::total_size() const {
  std::uint64_t n = 0;
  for (const pipeline::KmerCounts& t : tables_) n += t.size();
  return n;
}

}  // namespace lassm::dist
