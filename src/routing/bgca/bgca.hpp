// BGCA — Bandwidth-Guarded Channel-Adaptive routing [13], as characterized
// in the RICA paper (§I, §III):
//   * discovery is source-initiated with the same CSI-hop metric as RICA
//     (the destination picks the CSI-shortest RREQ copy);
//   * the protocol is "passive/reactive": it leaves a working route alone
//     and acts only when a link's class throughput falls below the flow's
//     bandwidth requirement (deep fade) or the link breaks outright;
//   * the repair is local: the upstream terminal of the offending link
//     issues a TTL-bounded local query (LQ) for a partial route that
//     rejoins the flow's live downstream path (or the destination), and
//     splices the best reply in;
//   * failed local repair escalates to the source, which re-floods.
#pragma once

#include <cstdint>
#include <vector>

#include "routing/discovery.hpp"
#include "routing/protocol.hpp"
#include "routing/tables.hpp"
#include "sim/timer.hpp"
#include "util/flat_table.hpp"

namespace rica::routing {

/// BGCA tunables.  `flow_rate_bps` must be set by the harness from the
/// offered traffic so the bandwidth guard has a requirement to enforce.
struct BgcaConfig {
  double flow_rate_bps = 41'000.0;     ///< offered bits/s per flow
  double bandwidth_factor = 1.5;       ///< requirement = factor * flow rate
                                       ///< (1.5 x 41 kbps puts class D below
                                       ///< the bar at 10 pkt/s, and C at 20)
  sim::Time monitor_period = sim::milliseconds(500);
  int guard_strikes = 3;  ///< consecutive below-requirement samples before a
                          ///< local query (filters sub-period fade flickers)
  sim::Time lq_timeout = sim::milliseconds(100);
  sim::Time lq_cooldown = sim::seconds(2);
  std::int16_t lq_ttl = 3;
  sim::Time dest_wait = sim::milliseconds(40);
  std::int16_t rreq_ttl = 16;
  sim::Time csi_jitter = sim::milliseconds(10);  ///< CSI-aware flood jitter
};

class BgcaProtocol final : public Protocol {
 public:
  BgcaProtocol(ProtocolHost& host, const BgcaConfig& cfg = {});

  void start() override;
  void handle_data(net::DataPacket pkt, net::NodeId from) override;
  void on_control(const net::ControlPacket& pkt, net::NodeId from) override;
  void on_link_break(net::NodeId neighbor,
                     std::vector<net::DataPacket> stranded) override;
  [[nodiscard]] std::string_view name() const override { return "BGCA"; }
  [[nodiscard]] double table_load() const override;

  /// The bandwidth requirement the guard enforces, bits/s.
  [[nodiscard]] double requirement_bps() const {
    return cfg_.bandwidth_factor * cfg_.flow_rate_bps;
  }

  // -- white-box accessors for tests ----------------------------------------
  [[nodiscard]] std::optional<net::NodeId> downstream(net::FlowKey flow) const;

 private:
  using Candidate = CsiCandidate;
  /// Per-flow routing state; a node is source, relay, or both (never for the
  /// same flow).  `hops_to_dst` feeds the LQ join-eligibility loop guard.
  struct Entry {
    bool valid = false;
    net::NodeId upstream = 0;
    net::NodeId downstream = 0;
    std::uint16_t hops_to_dst = 0;
    // local repair
    bool repairing = false;
    std::uint32_t lq_bid = 0;
    sim::Timer lq_timer;  ///< local-query deadline for this entry
    sim::Time last_lq{};
    int strikes = 0;  ///< consecutive guard violations observed
    std::vector<Candidate> lq_candidates;  // topo_hops = join's hops to dst
  };

  void begin_discovery(net::FlowKey flow);
  std::uint32_t send_rreq(net::FlowKey flow);
  void monitor_links();
  void start_local_query(net::FlowKey flow, bool broken);
  void finish_local_query(net::FlowKey flow, std::uint32_t bid);

  void on_rreq(const net::RreqMsg& msg, net::NodeId from);
  void on_rrep(const net::RrepMsg& msg, net::NodeId from);
  void on_lq(const net::BgcaLqMsg& msg, net::NodeId from);
  void on_lq_reply(const net::BgcaLqReplyMsg& msg, net::NodeId from);
  void on_reer(const net::ReerMsg& msg, net::NodeId from);
  void close_dest_window(net::FlowKey flow);

  void escalate_to_source(net::FlowKey flow, Entry& e);
  void flush_pending(net::FlowKey flow);
  void forward_or_drop(net::DataPacket pkt, Entry& e);


  BgcaConfig cfg_;
  HistoryTable history_;
  sim::Timer monitor_timer_;  ///< the periodic bandwidth-guard sweep
  util::FlatMap64<Entry> entries_;
  util::FlatMap64<Discovery> sources_;
  util::FlatMap64<CandidateWindow<Candidate>> dests_;  ///< RREQ windows
  util::FlatMap64<Discovery> repair_pending_;  ///< held during local repair
};

}  // namespace rica::routing
