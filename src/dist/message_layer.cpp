#include "dist/message_layer.hpp"

#include <algorithm>
#include <cstddef>
#include <vector>

namespace lassm::dist {

namespace {

/// Largest outbox buffer a flush keeps for reuse.
constexpr std::size_t kKeptBufferBytes = std::size_t{1} << 20;

/// Stable key of one wire batch for the rank_msg_drop seam: a pure
/// function of (epoch, src, dst, batch ordinal), so a given plan drops
/// the same batches on every run regardless of thread count or flush
/// timing. Ranks fit in 6 bits (<= 64); the batch ordinal is folded into
/// 16 bits — collisions past 65536 batches per link-epoch only correlate
/// drop decisions, they never affect delivery.
std::uint64_t batch_key(std::uint64_t epoch, std::uint32_t src,
                        std::uint32_t dst, std::uint64_t batch) noexcept {
  return (((epoch << 6 | src) << 6 | dst) << 16) | (batch & 0xFFFF);
}

}  // namespace

MessageLayer::MessageLayer(std::uint32_t n_ranks, std::uint32_t n_channels,
                           const simt::NetworkSpec& net,
                           const resilience::FaultPlan* plan)
    : n_ranks_(n_ranks),
      n_channels_(n_channels),
      net_(net),
      plan_(plan),
      out_(static_cast<std::size_t>(n_ranks) * n_ranks * n_channels),
      in_(static_cast<std::size_t>(n_ranks) * n_ranks * n_channels),
      bulk_msgs_(static_cast<std::size_t>(n_ranks) * n_ranks, 0),
      bulk_bytes_(static_cast<std::size_t>(n_ranks) * n_ranks, 0) {}

void MessageLayer::send_bytes(std::uint32_t src, std::uint32_t dst,
                              std::uint32_t channel, const void* data,
                              std::uint32_t n) {
  Queue& q = out_[queue_index(src, dst, channel)];
  const std::size_t pos = q.buf.size();
  q.buf.resize(pos + sizeof(n) + n);
  std::memcpy(q.buf.data() + pos, &n, sizeof(n));
  std::memcpy(q.buf.data() + pos + sizeof(n), data, n);
  ++q.count;
  q.payload += n;
}

void MessageLayer::bill_bulk(std::uint32_t src, std::uint32_t dst,
                             std::uint64_t msgs, std::uint64_t bytes) {
  if (src == dst) return;  // loopback is free, like queued local sends
  bulk_msgs_[link_index(src, dst)] += msgs;
  bulk_bytes_[link_index(src, dst)] += bytes;
}

double MessageLayer::flush() {
  ++traffic_.flushes;
  double epoch_s = 0.0;
  const std::uint64_t budget = net_.batch_budget_bytes;

  for (std::uint32_t src = 0; src < n_ranks_; ++src) {
    for (std::uint32_t dst = 0; dst < n_ranks_; ++dst) {
      if (src == dst) continue;
      std::uint64_t link_msgs = bulk_msgs_[link_index(src, dst)];
      std::uint64_t link_bytes = bulk_bytes_[link_index(src, dst)];
      for (std::uint32_t ch = 0; ch < n_channels_; ++ch) {
        const Queue& q = out_[queue_index(src, dst, ch)];
        link_msgs += q.count;
        link_bytes += q.payload;
      }
      if (link_msgs == 0) continue;

      const std::uint64_t n_batches =
          std::max<std::uint64_t>(1, (link_bytes + budget - 1) / budget);
      double link_s = 0.0;
      for (std::uint64_t b = 0; b < n_batches; ++b) {
        const std::uint64_t batch_bytes =
            std::min<std::uint64_t>(budget, link_bytes - b * budget);
        const double cost = net_.batch_seconds(batch_bytes);
        link_s += cost;
        ++traffic_.batches;
        if (plan_ != nullptr &&
            plan_->fires(resilience::Seam::kRankMsgDrop,
                         batch_key(epoch_, src, dst, b))) {
          // The simulated transport is reliable: a dropped batch is
          // detected and re-sent, costing a second wire transfer but
          // never changing what arrives.
          ++traffic_.drops;
          ++traffic_.retransmits;
          link_s += cost;
        }
      }
      traffic_.msgs += link_msgs;
      traffic_.bytes += link_bytes;
      epoch_s = std::max(epoch_s, link_s);
    }
  }

  // Deliver: the outboxes become the inboxes, local loopback queues
  // included. The previous inboxes are dropped (an epoch's inbox must be
  // drained before the next flush) and their buffers become the next
  // epoch's outboxes, so steady supersteps send without reallocating. A
  // bulk epoch's buffers (a batched find carries tens of MB per link) go
  // back to the allocator instead of pinning memory through later phases.
  in_.swap(out_);
  for (Queue& q : out_) {
    if (q.buf.capacity() > kKeptBufferBytes) {
      std::vector<char>().swap(q.buf);
    } else {
      q.buf.clear();
    }
    q.count = 0;
    q.payload = 0;
  }
  std::fill(bulk_msgs_.begin(), bulk_msgs_.end(), 0);
  std::fill(bulk_bytes_.begin(), bulk_bytes_.end(), 0);
  ++epoch_;
  traffic_.network_s += epoch_s;
  return epoch_s;
}

std::uint64_t MessageLayer::pending() const noexcept {
  std::uint64_t n = 0;
  for (const Queue& q : out_) n += q.count;
  return n;
}

}  // namespace lassm::dist
