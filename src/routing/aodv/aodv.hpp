// AODV, as the paper uses it for comparison (§I, §III):
//   * pure on-demand: RREQ flood with per-(src,bid) dedup; each relay
//     remembers the upstream of the FIRST copy (reverse path);
//   * the destination answers only the first RREQ copy — "chooses the path
//     this RREQ has gone through although this route is usually not the
//     shortest one" — with a unicast RREP along the reverse path;
//   * topological hop metric; channel state is ignored entirely;
//   * no hello messages: link breaks surface through the data plane;
//   * on a break, stranded packets are discarded and a RERR travels to the
//     source, which re-floods.
#pragma once

#include <cstdint>

#include "routing/discovery.hpp"
#include "routing/protocol.hpp"
#include "routing/tables.hpp"
#include "util/flat_table.hpp"

namespace rica::routing {

/// Tunables for the AODV comparator.
struct AodvConfig {
  std::int16_t rreq_ttl = 16;          ///< flood scope (network diameter)
  sim::Time route_expiry = sim::seconds(3);  ///< active-route timeout
  /// Random broadcast-forwarding jitter (standard in AODV implementations
  /// to de-synchronize rebroadcasts).  It also means the first RREQ copy
  /// the destination hears travelled a random tree, not the shortest path —
  /// the paper: "chooses the path this RREQ has gone through although this
  /// route is usually not the shortest one".
  sim::Time forward_jitter_max = sim::milliseconds(5);
};

class AodvProtocol final : public Protocol {
 public:
  AodvProtocol(ProtocolHost& host, const AodvConfig& cfg = {});

  void handle_data(net::DataPacket pkt, net::NodeId from) override;
  void on_control(const net::ControlPacket& pkt, net::NodeId from) override;
  void on_link_break(net::NodeId neighbor,
                     std::vector<net::DataPacket> stranded) override;
  [[nodiscard]] std::string_view name() const override { return "AODV"; }
  [[nodiscard]] double table_load() const override;

  /// Forwarding entry for `dst`, if valid and fresh (exposed for tests).
  [[nodiscard]] std::optional<net::NodeId> next_hop(net::NodeId dst) const;

 private:
  struct Route {
    net::NodeId next = 0;
    std::uint16_t hops = 0;
    bool valid = false;
    sim::Time last_used{};
  };

  std::uint32_t send_rreq(net::NodeId dst);
  void on_rreq(const net::AodvRreqMsg& msg, net::NodeId from);
  void on_rrep(const net::AodvRrepMsg& msg, net::NodeId from);
  void on_rerr(const net::AodvRerrMsg& msg, net::NodeId from);
  void flush_pending(net::NodeId dst);

  AodvConfig cfg_;
  HistoryTable history_;
  util::FlatMap64<Route> routes_;         // dst -> entry
  util::FlatMap64<Discovery> discovery_;  // dst -> state
  // Upstream of the most recent data packet per destination; RERRs retrace
  // this path toward the source (a light-weight precursor list).
  util::FlatMap64<net::NodeId> precursor_;
};

}  // namespace rica::routing
