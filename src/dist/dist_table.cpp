#include "dist/dist_table.hpp"

namespace lassm::dist {

DistKmerTable::DistKmerTable(const ShardMap& map, MessageLayer& msg)
    : map_(&map),
      msg_(&msg),
      tables_(map.n_ranks()),
      pending_(map.n_ranks()) {}

std::uint32_t DistKmerTable::lookup(std::uint32_t rank,
                                    const bio::PackedKmer& km) const {
  const std::uint32_t* c = tables_[rank].table().find(km);
  return c != nullptr ? *c : 0;
}

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

void DistKmerTable::drain_inserts(std::uint32_t rank) {
  msg_->for_each<InsertMsg>(
      rank, kInsertChannel, [&](std::uint32_t, const InsertMsg& m) {
        tables_[rank].table().get_or_insert(m.km) += m.n;
      });
}

void DistKmerTable::find_enqueue(std::uint32_t rank,
                                 const bio::PackedKmer& km) {
  const std::uint32_t owner = map_->rank_of_hash(km.hash64());
  pending_[rank].dst_seq.push_back(owner);
  if (owner == rank) {
    pending_[rank].self_vals.push_back(lookup(rank, km));
  } else {
    msg_->send(rank, owner, kFindReqChannel, FindReq{km});
  }
}

void DistKmerTable::serve_finds(std::uint32_t rank) {
  msg_->for_each<FindReq>(
      rank, kFindReqChannel, [&](std::uint32_t src, const FindReq& req) {
        msg_->send(rank, src, kFindRespChannel,
                   FindResp{lookup(rank, req.km)});
      });
}

std::vector<std::uint32_t> DistKmerTable::collect_finds(std::uint32_t rank) {
  // Responses arrive grouped per owner (ascending src, request order);
  // reassemble them into the original interleaved request order via one
  // cursor per owner.
  std::vector<std::vector<std::uint32_t>> per_src(map_->n_ranks());
  msg_->for_each<FindResp>(
      rank, kFindRespChannel, [&](std::uint32_t src, const FindResp& r) {
        per_src[src].push_back(r.count);
      });

  PendingFinds& pend = pending_[rank];
  std::vector<std::uint32_t> out;
  out.reserve(pend.dst_seq.size());
  std::vector<std::size_t> cursor(map_->n_ranks(), 0);
  std::size_t self_cursor = 0;
  for (const std::uint32_t dst : pend.dst_seq) {
    if (dst == rank) {
      out.push_back(pend.self_vals[self_cursor++]);
    } else {
      out.push_back(per_src[dst][cursor[dst]++]);
    }
  }
  pend.dst_seq.clear();
  pend.self_vals.clear();
  return out;
}

std::uint64_t DistKmerTable::total_size() const {
  std::uint64_t n = 0;
  for (const pipeline::KmerCounts& t : tables_) n += t.size();
  return n;
}

}  // namespace lassm::dist
