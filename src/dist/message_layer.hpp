#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

#include "resilience/fault_plan.hpp"
#include "simt/device.hpp"

/// Batched owner-computes message layer for the simulated multi-rank
/// assembly. Ranks are simulated, so "sending" is an enqueue into a
/// per-(src, dst, channel) byte buffer; what is *modelled* is the cost:
/// at every flush epoch each (src, dst) link's queued payload is split
/// into batches of at most NetworkSpec::batch_budget_bytes and billed
/// latency + bytes/bandwidth per batch, with links transferring
/// concurrently (epoch seconds = max over links of the link's serialized
/// batch cost) — the aggregation model of the UPC++/GASNet-style k-mer
/// hash tables this layer simulates.
///
/// Determinism contract (relied on for bit-identity to the 1-rank
/// oracle):
///  - enqueueing (send / send_array / send_bytes / bill_bulk) and flush()
///    happen on the driver thread only; between flushes, pool tasks may
///    read a delivered inbox (the const drains below) and nothing else,
///  - flush() delivers every queued message exactly once, and
///    for_each()/for_each_bytes() drain a destination's inbox in
///    (ascending src, send order) — a pure function of the enqueue
///    sequence, never of timing,
///  - an armed rank_msg_drop seam drops *batches on the wire*, which
///    bills a deterministic retransmit (extra batch cost, counted in
///    drops/retransmits) but never changes what is delivered.
namespace lassm::dist {

/// Cumulative traffic accounting (also exposed per stage by diffing
/// snapshots). msgs/bytes count remote (src != dst) payload only; local
/// loopback delivery is free, like a rank reading its own table.
struct TrafficStats {
  std::uint64_t msgs = 0;         ///< remote messages delivered
  std::uint64_t bytes = 0;        ///< payload bytes those messages carried
  std::uint64_t batches = 0;      ///< wire batches billed
  std::uint64_t drops = 0;        ///< batches the fault plan dropped
  std::uint64_t retransmits = 0;  ///< retransmissions billed for drops
  std::uint64_t flushes = 0;      ///< flush epochs
  double network_s = 0.0;         ///< modelled network seconds (sum of epochs)

  TrafficStats minus(const TrafficStats& o) const noexcept {
    TrafficStats d = *this;
    d.msgs -= o.msgs;
    d.bytes -= o.bytes;
    d.batches -= o.batches;
    d.drops -= o.drops;
    d.retransmits -= o.retransmits;
    d.flushes -= o.flushes;
    d.network_s -= o.network_s;
    return d;
  }
};

class MessageLayer {
 public:
  /// `plan` (optional) arms the rank_msg_drop seam; it must outlive the
  /// layer. Channels separate message kinds (insert / find-req /
  /// find-resp / walk) so one epoch can carry several kinds without
  /// framing ambiguity.
  MessageLayer(std::uint32_t n_ranks, std::uint32_t n_channels,
               const simt::NetworkSpec& net,
               const resilience::FaultPlan* plan = nullptr);

  std::uint32_t n_ranks() const noexcept { return n_ranks_; }
  std::uint64_t epoch() const noexcept { return epoch_; }
  const TrafficStats& traffic() const noexcept { return traffic_; }

  /// Enqueues one trivially-copyable message for the next flush.
  template <class T>
  void send(std::uint32_t src, std::uint32_t dst, std::uint32_t channel,
            const T& msg) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "messages cross the simulated wire as raw bytes");
    send_bytes(src, dst, channel, &msg, sizeof(T));
  }

  /// Enqueues msgs[0..n) on one link: the same frames, counts and
  /// billing as n send() calls in array order.
  template <class T>
  void send_array(std::uint32_t src, std::uint32_t dst, std::uint32_t channel,
                  const T* msgs, std::size_t n) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "messages cross the simulated wire as raw bytes");
    constexpr std::uint32_t len = sizeof(T);
    Queue& q = out_[queue_index(src, dst, channel)];
    const std::size_t pos = q.buf.size();
    q.buf.resize(pos + n * (sizeof(len) + len));
    char* p = q.buf.data() + pos;
    for (std::size_t i = 0; i < n; ++i, p += sizeof(len) + len) {
      std::memcpy(p, &len, sizeof(len));
      std::memcpy(p + sizeof(len), msgs + i, len);
    }
    q.count += n;
    q.payload += n * len;
  }

  /// Enqueues one variable-size message (length-prefixed internally).
  void send_bytes(std::uint32_t src, std::uint32_t dst,
                  std::uint32_t channel, const void* data, std::uint32_t n);

  /// Billing-only record of bulk traffic that is not routed through the
  /// queues (e.g. the round scatter/gather of contigs and reads, or a
  /// handed-off walk's sequence, whose payloads stay in shared memory).
  /// Costed at the next flush exactly like queued payload on the same
  /// link.
  void bill_bulk(std::uint32_t src, std::uint32_t dst, std::uint64_t msgs,
                 std::uint64_t bytes);

  /// Ends the epoch: bills every link's queued + bulk payload, applies
  /// the rank_msg_drop seam per batch, swaps outboxes and inboxes
  /// (discarding the previous epoch's inboxes but keeping their buffers,
  /// up to 1 MiB each, for the next epoch's sends), and returns the
  /// epoch's modelled seconds (max over links).
  double flush();

  /// Messages queued for the next flush (all channels).
  std::uint64_t pending() const noexcept;

  /// Drains dst's inbox for `channel`: f(src, msg) in ascending-src,
  /// send order. Message type must match what was sent on the channel.
  template <class T, class F>
  void for_each(std::uint32_t dst, std::uint32_t channel, F&& f) const {
    for_each_bytes(dst, channel,
                   [&](std::uint32_t src, const char* p, std::uint32_t n) {
                     T msg;
                     (void)n;
                     std::memcpy(&msg, p, sizeof(T));
                     f(src, msg);
                   });
  }

  /// Drains the (src, dst) link of dst's inbox for `channel`: f(msg) in
  /// send order. Links are disjoint, so pool tasks may drain different
  /// links (or the same one) concurrently.
  template <class T, class F>
  void for_each_from(std::uint32_t src, std::uint32_t dst,
                     std::uint32_t channel, F&& f) const {
    for_each_bytes_from(src, dst, channel,
                        [&](const char* p, std::uint32_t) {
                          T msg;
                          std::memcpy(&msg, p, sizeof(T));
                          f(msg);
                        });
  }

  /// Raw-bytes drain, same order contract: f(src, data, size).
  template <class F>
  void for_each_bytes(std::uint32_t dst, std::uint32_t channel,
                      F&& f) const {
    for (std::uint32_t src = 0; src < n_ranks_; ++src) {
      for_each_bytes_from(src, dst, channel,
                          [&](const char* p, std::uint32_t n) {
                            f(src, p, n);
                          });
    }
  }

  /// Messages sitting in dst's inbox for `channel`.
  std::uint64_t inbox_count(std::uint32_t dst, std::uint32_t channel) const
      noexcept {
    std::uint64_t n = 0;
    for (std::uint32_t src = 0; src < n_ranks_; ++src) {
      n += in_[queue_index(src, dst, channel)].count;
    }
    return n;
  }

 private:
  struct Queue {
    std::vector<char> buf;        ///< [u32 len][payload] frames
    std::uint64_t count = 0;      ///< messages queued
    std::uint64_t payload = 0;    ///< payload bytes (billed; excl. framing)
  };

  template <class F>
  void for_each_bytes_from(std::uint32_t src, std::uint32_t dst,
                           std::uint32_t channel, F&& f) const {
    const Queue& q = in_[queue_index(src, dst, channel)];
    std::size_t pos = 0;
    while (pos < q.buf.size()) {
      std::uint32_t len = 0;
      std::memcpy(&len, q.buf.data() + pos, sizeof(len));
      pos += sizeof(len);
      f(q.buf.data() + pos, len);
      pos += len;
    }
  }

  std::size_t queue_index(std::uint32_t src, std::uint32_t dst,
                          std::uint32_t channel) const noexcept {
    return (static_cast<std::size_t>(src) * n_ranks_ + dst) * n_channels_ +
           channel;
  }
  std::size_t link_index(std::uint32_t src, std::uint32_t dst) const
      noexcept {
    return static_cast<std::size_t>(src) * n_ranks_ + dst;
  }

  std::uint32_t n_ranks_;
  std::uint32_t n_channels_;
  simt::NetworkSpec net_;
  const resilience::FaultPlan* plan_;
  std::vector<Queue> out_;
  std::vector<Queue> in_;
  std::vector<std::uint64_t> bulk_msgs_;   ///< per link, cleared at flush
  std::vector<std::uint64_t> bulk_bytes_;  ///< per link, cleared at flush
  std::uint64_t epoch_ = 0;
  TrafficStats traffic_;
};

}  // namespace lassm::dist
