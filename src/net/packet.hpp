// Packet formats for the data plane and for every protocol's control plane.
//
// These are simulation-level descriptions of the paper's packets: each struct
// carries the fields §II enumerates plus the byte size that is charged to the
// common channel (routing overhead is accounted per transmission, exactly as
// in §III-A).
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <variant>
#include <vector>

#include "channel/csi.hpp"
#include "sim/time.hpp"

namespace rica::net {

using NodeId = std::uint32_t;

/// Destination id meaning "all nodes in range" on the common channel.
inline constexpr NodeId kBroadcastId = 0xFFFFFFFFu;

/// Terminal population ceiling: node ids must fit 24 bits.  The routing
/// history tables pack (terminal, counter) keys into 64-bit integers
/// (util/flat_table.hpp) and the wire codecs reject wider addresses
/// (net/wire.hpp) — kBroadcastId is the one legal wider value, and only in
/// a frame's `to` field.
inline constexpr std::size_t kMaxNodes = std::size_t{1} << 24;

/// A (source, destination) pair key for per-flow protocol state.
using FlowKey = std::uint64_t;
[[nodiscard]] constexpr FlowKey flow_key(NodeId src, NodeId dst) {
  return (static_cast<FlowKey>(src) << 32) | dst;
}
[[nodiscard]] constexpr NodeId flow_src(FlowKey k) {
  return static_cast<NodeId>(k >> 32);
}
[[nodiscard]] constexpr NodeId flow_dst(FlowKey k) {
  return static_cast<NodeId>(k & 0xFFFFFFFFu);
}

/// An application data packet (512 B in the paper).  The bookkeeping fields
/// (`hops`, `tput_sum_bps`) are write-only metadata used by the metrics of
/// Fig. 5; protocols never read them.
struct DataPacket {
  std::uint32_t flow = 0;        ///< flow index (traffic-generator assigned)
  NodeId src = 0;
  NodeId dst = 0;
  std::uint32_t seq = 0;         ///< per-flow sequence number
  sim::Time gen_time{};          ///< generation instant at the source
  std::uint16_t size_bytes = 512;
  bool route_update = false;     ///< RICA: first packet on a freshly switched
                                 ///< route carries the update flag (§II-C)
  std::uint16_t hops = 0;        ///< topological hops traversed so far
  double tput_sum_bps = 0.0;     ///< sum of link throughputs traversed

  friend bool operator==(const DataPacket&, const DataPacket&) = default;

  [[nodiscard]] FlowKey key() const { return flow_key(src, dst); }
};

// ---------------------------------------------------------------------------
// Control messages.  One struct per message type; grouped by protocol.
// ---------------------------------------------------------------------------

/// RICA / BGCA route request (§II-B): CSI-based hop count accumulates as the
/// flood spreads; `topo_hops` counts physical hops for TTL bookkeeping.
struct RreqMsg {
  NodeId src = 0;
  NodeId dst = 0;
  std::uint32_t bid = 0;  ///< broadcast id; (src,dst,bid) identifies a RREQ
  double csi_hops = 0.0;
  std::uint16_t topo_hops = 0;

  friend bool operator==(const RreqMsg&, const RreqMsg&) = default;
};

/// RICA / BGCA route reply, unicast hop-by-hop along stored upstreams.
struct RrepMsg {
  NodeId src = 0;
  NodeId dst = 0;
  std::uint32_t bid = 0;
  double csi_hops = 0.0;
  std::uint16_t topo_hops = 0;     ///< hops from the destination so far

  friend bool operator==(const RrepMsg&, const RrepMsg&) = default;
};

/// RICA CSI-checking packet (§II-C), broadcast by the destination with a TTL
/// bounding the flood to the neighbourhood of the current route.
struct CsiCheckMsg {
  NodeId src = 0;            ///< the data source the check is aimed at
  NodeId dst = 0;            ///< the destination that originated the check
  std::uint32_t bid = 0;
  double csi_hops = 0.0;     ///< CSI distance accumulated from the destination
  std::uint16_t topo_hops = 0;
  std::int16_t ttl = 0;
  NodeId received_from = 0;  ///< §II-C: the rebroadcaster names the terminal
                             ///< it got the packet from (carried on the wire;
                             ///< the PN detection window is not modelled)

  friend bool operator==(const CsiCheckMsg&, const CsiCheckMsg&) = default;
};

/// RICA route update, unicast from the source to its new first hop (§II-C).
struct RupdMsg {
  NodeId src = 0;
  NodeId dst = 0;

  friend bool operator==(const RupdMsg&, const RupdMsg&) = default;
};

/// RICA / BGCA route error, unicast upstream (§II-D).
struct ReerMsg {
  NodeId src = 0;
  NodeId dst = 0;
  NodeId reporter = 0;  ///< terminal that observed the break

  friend bool operator==(const ReerMsg&, const ReerMsg&) = default;
};

/// BGCA local query: TTL-bounded search for a partial route from `origin`
/// back to the flow's live downstream path (or the destination).
struct BgcaLqMsg {
  NodeId origin = 0;
  NodeId src = 0;
  NodeId dst = 0;
  std::uint32_t bid = 0;
  std::int16_t ttl = 0;
  double csi_hops = 0.0;
  std::uint16_t topo_hops = 0;
  std::uint16_t origin_hops_to_dst = 0;  ///< loop guard for join eligibility

  friend bool operator==(const BgcaLqMsg&, const BgcaLqMsg&) = default;
};

/// BGCA local-query reply, unicast back along the LQ reverse path.
struct BgcaLqReplyMsg {
  NodeId origin = 0;
  NodeId src = 0;
  NodeId dst = 0;
  std::uint32_t bid = 0;
  double csi_hops = 0.0;
  std::uint16_t join_hops_to_dst = 0;
  NodeId join = 0;  ///< the on-path terminal that answered

  friend bool operator==(const BgcaLqReplyMsg&, const BgcaLqReplyMsg&) =
      default;
};

/// ABR periodic beacon; drives associativity ticks.
struct AbrBeaconMsg {
  NodeId origin = 0;

  friend bool operator==(const AbrBeaconMsg&, const AbrBeaconMsg&) = default;
};

/// ABR broadcast query: accumulates aggregate stability and load.
struct AbrBqMsg {
  NodeId src = 0;
  NodeId dst = 0;
  std::uint32_t bid = 0;
  std::uint32_t tick_sum = 0;  ///< aggregate associativity over the path
  std::uint32_t load_sum = 0;  ///< sum of buffered packets at relays
  std::uint16_t topo_hops = 0;

  friend bool operator==(const AbrBqMsg&, const AbrBqMsg&) = default;
};

/// ABR route reply, unicast along the reverse path of the chosen BQ copy.
struct AbrReplyMsg {
  NodeId src = 0;
  NodeId dst = 0;
  std::uint32_t bid = 0;
  std::uint16_t topo_hops = 0;

  friend bool operator==(const AbrReplyMsg&, const AbrReplyMsg&) = default;
};

/// ABR localized query for route repair (TTL-bounded).
struct AbrLqMsg {
  NodeId origin = 0;
  NodeId src = 0;
  NodeId dst = 0;
  std::uint32_t bid = 0;
  std::int16_t ttl = 0;
  std::uint16_t topo_hops = 0;
  std::uint16_t origin_hops_to_dst = 0;

  friend bool operator==(const AbrLqMsg&, const AbrLqMsg&) = default;
};

/// ABR localized-query reply.
struct AbrLqReplyMsg {
  NodeId origin = 0;
  NodeId src = 0;
  NodeId dst = 0;
  std::uint32_t bid = 0;
  std::uint16_t join_hops_to_dst = 0;
  NodeId join = 0;

  friend bool operator==(const AbrLqReplyMsg&, const AbrLqReplyMsg&) = default;
};

/// ABR route notification: repair failed, backtrack one hop toward source.
struct AbrRnMsg {
  NodeId src = 0;
  NodeId dst = 0;
  NodeId reporter = 0;

  friend bool operator==(const AbrRnMsg&, const AbrRnMsg&) = default;
};

/// AODV route request (paper's comparator: topological hop metric).
struct AodvRreqMsg {
  NodeId src = 0;
  NodeId dst = 0;
  std::uint32_t bid = 0;
  std::uint16_t hops = 0;

  friend bool operator==(const AodvRreqMsg&, const AodvRreqMsg&) = default;
};

/// AODV route reply; the destination answers only the first RREQ copy.
struct AodvRrepMsg {
  NodeId src = 0;
  NodeId dst = 0;
  std::uint32_t bid = 0;
  std::uint16_t hops = 0;

  friend bool operator==(const AodvRrepMsg&, const AodvRrepMsg&) = default;
};

/// AODV route error, unicast toward the source.
struct AodvRerrMsg {
  NodeId src = 0;
  NodeId dst = 0;
  NodeId reporter = 0;

  friend bool operator==(const AodvRerrMsg&, const AodvRerrMsg&) = default;
};

/// Link-state update: one origin's full adjacency row (neighbour, CSI class).
struct LsuMsg {
  NodeId origin = 0;
  std::uint32_t seq = 0;
  std::vector<std::pair<NodeId, channel::CsiClass>> links;

  friend bool operator==(const LsuMsg&, const LsuMsg&) = default;
};

using ControlPayload =
    std::variant<RreqMsg, RrepMsg, CsiCheckMsg, RupdMsg, ReerMsg, BgcaLqMsg,
                 BgcaLqReplyMsg, AbrBeaconMsg, AbrBqMsg, AbrReplyMsg, AbrLqMsg,
                 AbrLqReplyMsg, AbrRnMsg, AodvRreqMsg, AodvRrepMsg,
                 AodvRerrMsg, LsuMsg>;

/// A control packet on the common channel.
struct ControlPacket {
  NodeId to = kBroadcastId;  ///< kBroadcastId or a unicast neighbour
  std::uint16_t size_bytes = 0;
  ControlPayload payload;
};

/// Builds a control packet with its exact encoded wire size stamped in —
/// `size_bytes` is what the codec in net/wire.hpp serializes this payload
/// to, byte for byte, and is what the MAC charges as airtime.  Defined in
/// wire.cpp.  Throws wire::WireError when an LsuMsg adjacency row is too
/// dense for the u16 wire-size field (the emitter must split the row).
[[nodiscard]] ControlPacket make_control(NodeId to, ControlPayload payload);

}  // namespace rica::net
