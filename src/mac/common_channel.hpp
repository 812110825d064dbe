// The shared 250 kbps control channel with unslotted CSMA/CA (paper §III-A).
//
// All routing packets travel on one common channel; data packets travel on
// per-link CDMA codes (see link_transmitter.hpp).  The paper assumes the
// common channel is "robust" against fading, so receptions here fail only
// due to collisions, which this MAC models explicitly:
//   * carrier sense: a node defers (random backoff) while any transmission
//     whose sender is within range is on the air;
//   * hidden terminals: a reception at r fails when a second transmission
//     covering r overlaps the packet in time (no capture effect);
//   * half duplex: a node transmitting cannot simultaneously receive;
//   * bounded per-node control queue: drop-tail under overload — this is the
//     mechanism behind the paper's link-state congestion collapse.
//
// Each transmission is charged size*8 bits of routing overhead exactly once
// (per §III-A: "each time the common channel is used ... counted as one
// transmission"), regardless of how many neighbours hear it.
//
// Collision and carrier-sense state is incremental and exact (DESIGN.md
// §2c).  Coverage is fixed when a transmission starts, so each node keeps
//   * `busy_until`, the latest end of every transmission that has covered
//     it (its own included): carrier sense is `transmitting || now <
//     busy_until`;
//   * `on_air`, the transmissions still on the air at it (its own included).
// A transmission starting at a node overlaps exactly the entries still on
// the air there, so it marks itself and each of them collided at that
// receiver; the verdict at end of transmission is that mark, or the
// receiver transmitting at that instant.  Two transmissions that merely
// touch (one ends at the instant the other starts) do not overlap.  No
// interval history is kept, so there is no horizon: a frame of any airtime
// sees every overlap.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "channel/channel_model.hpp"
#include "net/packet.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"
#include "sim/timer.hpp"
#include "stats/metrics.hpp"
#include "util/pool.hpp"

namespace rica::mac {

/// Tunables of the common channel MAC.
struct CommonChannelConfig {
  double rate_bps = 250'000.0;            ///< paper: 250 kbps common channel
  sim::Time backoff_min = sim::microseconds(500);
  sim::Time backoff_max = sim::milliseconds(4);
  /// Per-node control queue bound.  Deliberately deep (plain FIFO, no AQM —
  /// faithful to 2002-era MACs): under flooding overload packets are not
  /// so much lost as delivered *late*, which is what lets stale link-state
  /// updates poison remote views (§III-B).
  std::size_t queue_cap = 500;
  int unicast_attempts = 3;               ///< CSMA/CA ACK-retransmit emulation
};

/// Network-wide CSMA/CA MAC for control traffic.
class CommonChannelMac {
 public:
  /// Reception callback: (packet, transmitter id).
  using RxHandler = std::function<void(const net::ControlPacket&, net::NodeId)>;

  CommonChannelMac(sim::Simulator& sim, channel::ChannelModel& channel,
                   const sim::RngManager& rng, stats::MetricsCollector& metrics,
                   const CommonChannelConfig& cfg);

  /// Registers a node's receive handler.  Must be called once per node
  /// before any send().
  void register_node(net::NodeId id, RxHandler handler);

  /// Queues a control packet for CSMA transmission from `from`.  Broadcasts
  /// (pkt.to == kBroadcastId) reach every in-range node; unicasts reach only
  /// pkt.to.  Either way collisions can destroy individual receptions.
  void send(net::NodeId from, net::ControlPacket pkt);

  /// Transmission airtime of a packet at the common-channel rate.
  [[nodiscard]] sim::Time airtime(std::uint16_t size_bytes) const;

  [[nodiscard]] const CommonChannelConfig& config() const { return cfg_; }

  /// Peak live control-queue entries across the whole MAC (pool gauge).
  [[nodiscard]] std::size_t pool_high_water() const;

  /// Carrier sense at `id` now: true while it transmits or while any
  /// transmission covering it is on the air.
  [[nodiscard]] bool carrier_busy(net::NodeId id) const;

 private:
  /// `OnAir::slot` of a node's own transmission, which has no verdict.
  static constexpr std::uint32_t kOwnSlot = 0xFFFFFFFFu;

  /// A transmission on the air at some node: its sender, the node's slot in
  /// the sender's receiver list, and its end.  Half duplex gives each sender
  /// one transmission at a time, so (sender, slot) names one reception.
  struct OnAir {
    sim::Time end;
    net::NodeId sender = 0;
    std::uint32_t slot = kOwnSlot;
  };
  struct QueuedControl {
    net::ControlPacket pkt;
    int attempts = 0;
  };
  struct NodeState {
    /// Control FIFO over the MAC-wide free-list pool: a flood burst on one
    /// node reuses the queue nodes another node just released.
    util::PooledQueue<QueuedControl> queue;
    RxHandler handler;
    sim::RandomStream rng{0};
    bool transmitting = false;
    /// The node's single CSMA contention timer: armed while a carrier-sense
    /// attempt is scheduled (its armed() state replaces the old
    /// attempt_pending flag).
    sim::Timer attempt_timer;
    /// Latest end of any transmission that covered this node (carrier sense).
    sim::Time busy_until = sim::Time::zero();
    /// Transmissions covering this node, pruned of ended ones whenever a new
    /// one starts here, so it holds at most what is concurrently on the air.
    std::vector<OnAir> on_air;
    // In-flight transmission state, valid while `transmitting` (half duplex:
    // one tx at a time).  Keeping it here — not in the end-of-tx closure —
    // is what lets that closure capture just [this, id], and the receiver
    // buffers keep their capacity across transmissions (no per-tx
    // allocation).  tx_collided[i] is the collision mark of the reception
    // at tx_receivers[i].
    QueuedControl in_flight;
    std::vector<net::NodeId> tx_receivers;
    std::vector<std::uint8_t> tx_collided;
  };

  void schedule_attempt(net::NodeId id, sim::Time delay);
  void attempt(net::NodeId id);
  /// Route-lifecycle trace emission for control transmissions and
  /// collision losses (no-op with no sink attached).
  void trace_control(std::string_view stage, net::NodeId node,
                     const net::ControlPacket& pkt);
  void start_tx(net::NodeId id);
  /// Puts `tx` on the air at node `at`, marking it and every transmission
  /// it overlaps there collided.
  void begin_on_air(net::NodeId at, const OnAir& tx, sim::Time now);
  void end_of_tx(net::NodeId id);
  [[nodiscard]] sim::Time random_backoff(NodeState& st);

  sim::Simulator& sim_;
  channel::ChannelModel& channel_;
  stats::MetricsCollector& metrics_;
  CommonChannelConfig cfg_;
  /// Shared control-queue node pool; must outlive nodes_ (declared first).
  util::FreeListPool<QueuedControl> ctrl_pool_;
  std::vector<NodeState> nodes_;
};

}  // namespace rica::mac
