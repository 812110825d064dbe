// RICA — Receiver-Initiated Channel-Adaptive routing (the paper's §II).
//
// Route discovery (§II-B): the source floods a RREQ whose hop count
// accumulates CSI-based hop distances (1 / 1.67 / 3.33 / 5 per link class);
// every relay remembers the upstream of the first copy; the destination
// collects the copies arriving over distinct last hops for a short window
// and unicasts a RREP along the CSI-shortest one.
//
// Receiver-initiated adaptation (§II-C): while the flow is active the
// destination periodically broadcasts a TTL-bounded CSI-checking packet.
// Each relay forwards it once, adding the measured CSI distance of the link
// it arrived on, remembers the neighbour it first heard it from (its future
// downstream), and names that neighbour in the rebroadcast.  The source
// gathers the checks for 40 ms, picks the CSI-shortest candidate, and — if
// it differs from the current route — unicasts a RUPD to the new first hop
// and marks the next data packet with the update flag; the flag re-anchors
// each relay to its first-check downstream as the packet travels.  (The
// PN-code detection window the paper arms by that naming is not modelled;
// the update flag does the re-anchoring.)  Abandoned routes expire after
// one idle second.
//
// Route maintenance (§II-D): per-packet data ACKs detect breaks; REERs are
// forwarded upstream only when they arrive from the terminal's *current*
// downstream (stale reports from abandoned routes are ignored); a source
// receiving a REER switches to the best fresh CSI-check candidate when one
// exists and falls back to a fresh RREQ otherwise.
#pragma once

#include <cstdint>
#include <vector>

#include "routing/discovery.hpp"
#include "routing/protocol.hpp"
#include "routing/tables.hpp"
#include "sim/timer.hpp"
#include "util/flat_table.hpp"

namespace rica::core {

/// RICA tunables.  Defaults are the values the paper states (1 s checking
/// period, 40 ms source wait, 1 s route expiry).
struct RicaConfig {
  sim::Time check_period = sim::seconds(1);
  sim::Time source_wait = sim::milliseconds(40);
  sim::Time dest_wait = sim::milliseconds(40);
  sim::Time route_expiry = sim::seconds(1);
  sim::Time flow_active_timeout = sim::seconds(3);
  std::int16_t rreq_ttl = 16;
  std::int16_t check_ttl_slack = 2;
  /// Forwarding of RREQ/CSI-check floods is deferred proportionally to the
  /// CSI hop distance of the incoming link (plus a small random dither), so
  /// the first copy to arrive anywhere travelled an approximately
  /// CSI-shortest path.  This is how the first-copy-forwarding rule of §II
  /// ends up electing channel-adaptive routes.
  sim::Time csi_jitter = sim::milliseconds(10);
  /// After a route switch, data packets keep carrying the update flag for
  /// this long, so the re-anchoring survives the loss of the first packet.
  sim::Time update_flag_window = sim::milliseconds(100);
  /// Switch hysteresis: a candidate must beat the current route's CSI
  /// distance by this much before the source abandons a working route.
  /// Without it, equal-cost candidates arriving in CSMA-jitter order make
  /// the route oscillate every checking round.
  double switch_margin = 0.5;
  /// §II-C hints the checking period "has to be decided by the change speed
  /// of the link CSI".  When enabled, the destination adapts its period:
  /// halved when the delivered packets' route visibly changed since the
  /// last check (volatile channel), stretched by 25% when it stayed put.
  bool adaptive_checks = false;
  sim::Time check_period_min = sim::milliseconds(250);
  sim::Time check_period_max = sim::seconds(4);
};

class RicaProtocol final : public routing::Protocol {
 public:
  RicaProtocol(routing::ProtocolHost& host, const RicaConfig& cfg = {});

  void handle_data(net::DataPacket pkt, net::NodeId from) override;
  void on_control(const net::ControlPacket& pkt, net::NodeId from) override;
  void on_link_break(net::NodeId neighbor,
                     std::vector<net::DataPacket> stranded) override;
  [[nodiscard]] std::string_view name() const override { return "RICA"; }
  [[nodiscard]] double table_load() const override;

  // -- white-box accessors for tests ----------------------------------------
  /// The source's current first hop for (this node -> dst), if valid.
  [[nodiscard]] std::optional<net::NodeId> source_next_hop(
      net::NodeId dst) const;
  /// A relay's current downstream for the flow, if its entry is live.
  [[nodiscard]] std::optional<net::NodeId> relay_downstream(
      net::FlowKey flow) const;
  /// Latest first-check downstream candidate recorded at this relay.
  [[nodiscard]] std::optional<net::NodeId> check_candidate(
      net::FlowKey flow) const;

 private:
  /// One CSI-check (or RREQ) derived route candidate.
  using Candidate = routing::CsiCandidate;
  struct SourceState {
    bool valid = false;
    net::NodeId next_hop = 0;
    double route_csi_cost = 1e9;    ///< CSI distance of the current route,
                                    ///< refreshed by the checking rounds
    sim::Time update_flag_until{};  ///< tag data packets with the route
                                    ///< update flag until this time (§II-C)
    routing::Discovery discovery;
    routing::CandidateWindow<Candidate> checks;  ///< CSI-check collection
    std::vector<Candidate> last_candidates;      ///< last closed window
    sim::Time last_window_close{};
    sim::Time last_check_seen{};
  };
  struct RelayState {
    bool valid = false;
    net::NodeId upstream = 0;
    net::NodeId downstream = 0;
    sim::Time last_used{};
    // downstream of the first copy of the latest CSI check seen here
    net::NodeId check_next = 0;
    bool check_next_valid = false;
  };
  struct DestState {
    /// Periodic §II-C checking timer; armed() means a check is scheduled.
    /// Goes quiet (fires once more, then stays disarmed) when the flow
    /// idles past flow_active_timeout.
    sim::Timer check_timer;
    std::uint32_t next_check_bid = 1;
    std::uint16_t route_hops = 4;  ///< TTL basis, refreshed by delivered data
    sim::Time last_data{};
    routing::CandidateWindow<Candidate> rreqs;  ///< RREQ collection window
    // adaptive checking (extension): track route volatility between checks
    sim::Time check_period{};
    net::NodeId last_hop_seen = net::kBroadcastId;
    double last_route_tput = 0.0;
    bool route_changed_since_check = false;
  };

  // -- source side -----------------------------------------------------------
  void source_send(SourceState& s, net::FlowKey flow, net::DataPacket pkt);
  void begin_discovery(net::FlowKey flow, SourceState& s);
  std::uint32_t send_rreq(net::FlowKey flow);
  void switch_route(net::FlowKey flow, SourceState& s,
                    const Candidate& chosen);
  void close_source_window(net::FlowKey flow);
  bool try_candidate_fallback(net::FlowKey flow, SourceState& s,
                              net::NodeId exclude);
  void flush_pending(net::FlowKey flow, SourceState& s);

  // -- destination side ------------------------------------------------------
  void arm_checks(net::FlowKey flow);
  void broadcast_check(net::FlowKey flow);
  void close_dest_window(net::FlowKey flow);

  // -- message handlers ------------------------------------------------------
  void on_rreq(const net::RreqMsg& msg, net::NodeId from);
  void on_rrep(const net::RrepMsg& msg, net::NodeId from);
  void on_check(const net::CsiCheckMsg& msg, net::NodeId from);
  void on_rupd(const net::RupdMsg& msg, net::NodeId from);
  void on_reer(const net::ReerMsg& msg, net::NodeId from);

  [[nodiscard]] bool relay_entry_live(const RelayState& r) const;

  RicaConfig cfg_;
  routing::HistoryTable history_;
  util::FlatMap64<SourceState> sources_;
  util::FlatMap64<RelayState> relays_;
  util::FlatMap64<DestState> dests_;
};

}  // namespace rica::core
