// Shared building blocks for the on-demand protocols: the RREQ/BQ history
// table (§II-B: "checks whether it has seen this packet before by looking up
// its history table"), which flood relays consult before they measure the
// link a copy arrived on and which keeps each first copy's upstream as the
// reverse path, and the pending-packet buffer used while a route is being
// discovered or repaired.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "net/packet.hpp"
#include "routing/protocol.hpp"
#include "sim/time.hpp"
#include "util/flat_table.hpp"

namespace rica::routing {

/// Records which broadcast packets (keyed by origin and broadcast id) this
/// terminal has already processed, so floods are forwarded exactly once,
/// and the upstream each first copy came from: the reverse path a reply
/// (RREP, BQ reply, LQ reply) walks back along.
///
/// Flood relays consult the table *before* measuring the link a copy came
/// over (`seen`, which never inserts): a duplicate is discarded at the cost
/// of one probe, without a channel sample.  RICA and BGCA relays `record`
/// only a first copy that is also in range, so an out-of-range first copy
/// leaves a later in-range one forwardable.
class HistoryTable {
 public:
  /// True if (origin, bid) under `tag` was recorded; never inserts.  The
  /// small tag scopes different packet kinds (RREQ vs CSI check vs LQ) so
  /// they never collide.
  [[nodiscard]] bool seen(net::NodeId origin, std::uint32_t bid,
                          std::uint8_t tag = 0) const {
    return entries_.contains(key(origin, bid, tag));
  }

  /// Records the copy of (origin, bid) under `tag` that arrived from
  /// `from`; returns true when it is the first.  A later copy neither
  /// overwrites the first one's upstream nor reports new.
  bool record(net::NodeId origin, std::uint32_t bid, std::uint8_t tag,
              net::NodeId from) {
    return entries_.insert(key(origin, bid, tag), from);
  }

  /// The neighbour the first recorded copy came from, if any.
  [[nodiscard]] std::optional<net::NodeId> upstream(net::NodeId origin,
                                                    std::uint32_t bid,
                                                    std::uint8_t tag) const {
    return entries_.find(key(origin, bid, tag));
  }

  /// Starts a flood of this terminal's own: returns a fresh broadcast id,
  /// already recorded so the flood's echoes are discarded.
  std::uint32_t originate(net::NodeId self, std::uint8_t tag) {
    const std::uint32_t bid = next_bid_++;
    record(self, bid, tag, self);
    return bid;
  }

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] double load_factor() const { return entries_.load_factor(); }

 private:
  // Node ids are small (< 2^24, enforced at node construction), so
  // (tag, origin, bid) packs losslessly.
  static constexpr std::uint64_t key(net::NodeId origin, std::uint32_t bid,
                                     std::uint8_t tag) {
    return static_cast<std::uint64_t>(tag) << 56 |
           static_cast<std::uint64_t>(origin) << 32 | bid;
  }

  util::InsertOnlyMap64 entries_;
  std::uint32_t next_bid_ = 1;
};

/// FIFO buffer holding data packets while a route is discovered/repaired.
/// Its overflow and residency policy is the one place such packets leave
/// without a route: a full buffer drops the arrival as kBufferOverflow, and
/// a packet older than the residency bound is dropped as kExpired.
class PendingBuffer {
 public:
  PendingBuffer(std::size_t cap, sim::Time residency)
      : cap_(cap), residency_(residency) {}

  /// Enqueues `pkt`, or drops it as kBufferOverflow when the buffer is full.
  void hold(ProtocolHost& host, net::DataPacket pkt) {
    if (q_.size() >= cap_) {
      host.drop_data(pkt, stats::DropReason::kBufferOverflow);
      return;
    }
    q_.push_back(Entry{std::move(pkt), host.simulator().now()});
  }

  /// Removes and returns, in FIFO order, all packets still within the
  /// residency bound; expired ones are dropped as kExpired.
  std::vector<net::DataPacket> release(ProtocolHost& host) {
    const sim::Time now = host.simulator().now();
    std::vector<net::DataPacket> fresh;
    fresh.reserve(q_.size());
    for (auto& e : q_) {
      if (now - e.enqueued > residency_) {
        host.drop_data(e.pkt, stats::DropReason::kExpired);
      } else {
        fresh.push_back(std::move(e.pkt));
      }
    }
    q_.clear();
    return fresh;
  }

  /// Drops the entries older than the residency bound as kExpired.
  void purge_expired(ProtocolHost& host) {
    const sim::Time now = host.simulator().now();
    while (!q_.empty() && now - q_.front().enqueued > residency_) {
      host.drop_data(q_.front().pkt, stats::DropReason::kExpired);
      q_.pop_front();
    }
  }

  [[nodiscard]] std::size_t size() const { return q_.size(); }
  [[nodiscard]] bool empty() const { return q_.empty(); }

 private:
  struct Entry {
    net::DataPacket pkt;
    sim::Time enqueued;
  };
  std::size_t cap_;
  sim::Time residency_;
  std::deque<Entry> q_;
};

}  // namespace rica::routing
