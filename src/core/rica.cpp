#include "core/rica.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

namespace rica::core {

namespace {
constexpr std::uint8_t kTagRreq = 1;
constexpr std::uint8_t kTagCheck = 2;
}  // namespace

RicaProtocol::RicaProtocol(routing::ProtocolHost& host, const RicaConfig& cfg)
    : Protocol(host), cfg_(cfg) {}

bool RicaProtocol::relay_entry_live(const RelayState& r) const {
  // Validity gates forwarding; the idle expiry (§II-C "the original route at
  // last automatically expires") only garbage-collects abandoned entries so
  // their stale state cannot hijack later traffic.  An entry that is still
  // receiving data is never expired mid-stream: a 10-deep queue on a 50 kbps
  // class-D link legitimately spaces packets ~1 s apart.
  return r.valid;
}

std::optional<net::NodeId> RicaProtocol::source_next_hop(
    net::NodeId dst) const {
  const auto it = sources_.find(net::flow_key(host().id(), dst));
  if (it == sources_.end() || !it->second.valid) return std::nullopt;
  return it->second.next_hop;
}

std::optional<net::NodeId> RicaProtocol::relay_downstream(
    net::FlowKey flow) const {
  const auto it = relays_.find(flow);
  if (it == relays_.end() || !relay_entry_live(it->second)) {
    return std::nullopt;
  }
  return it->second.downstream;
}

std::optional<net::NodeId> RicaProtocol::check_candidate(
    net::FlowKey flow) const {
  const auto it = relays_.find(flow);
  if (it == relays_.end() || !it->second.check_next_valid) return std::nullopt;
  return it->second.check_next;
}

// ---------------------------------------------------------------------------
// Data plane
// ---------------------------------------------------------------------------

void RicaProtocol::handle_data(net::DataPacket pkt, net::NodeId from) {
  const net::FlowKey flow = pkt.key();

  if (pkt.dst == host().id()) {
    auto& d = dests_[flow];
    d.last_data = now();
    d.route_hops = std::max<std::uint16_t>(pkt.hops, 1);
    if (cfg_.adaptive_checks) {
      // Route volatility signal: a different last hop or a clearly
      // different per-hop throughput means the route moved.
      const double tput =
          pkt.hops > 0 ? pkt.tput_sum_bps / pkt.hops : 0.0;
      if (d.last_hop_seen != net::kBroadcastId &&
          (d.last_hop_seen != from ||
           std::abs(tput - d.last_route_tput) > 25'000.0)) {
        d.route_changed_since_check = true;
      }
      d.last_hop_seen = from;
      d.last_route_tput = tput;
    }
    host().deliver_local(pkt);
    arm_checks(flow);
    return;
  }

  if (from == host().id()) {  // we are the source
    source_send(sources_[flow], flow, std::move(pkt));
    return;
  }

  // Relay.
  auto& r = relays_[flow];
  if (pkt.route_update) {
    // §II-C: a packet on a switched route re-anchors the relay to the
    // downstream it first heard the latest CSI check from.  Never re-anchor
    // back toward the terminal the packet just came from; without a usable
    // check candidate, fall through to the existing entry.
    if (r.check_next_valid && r.check_next != from) {
      r.upstream = from;
      r.downstream = r.check_next;
      r.valid = true;
      r.last_used = now();
      host().forward_data(std::move(pkt), r.downstream);
      return;
    }
  }

  if (!relay_entry_live(r) || r.downstream == from) {
    // No live entry.  §II-C: a terminal remembers the downstream it first
    // received a checking packet from and "in the future it can use the
    // corresponding PN code to send packets to this downstream terminal" —
    // salvage the packet along the check candidate when one exists.
    if (r.check_next_valid && r.check_next != from) {
      r.upstream = from;
      r.downstream = r.check_next;
      r.valid = true;
      r.last_used = now();
      host().count("rica.salvage");
      host().forward_data(std::move(pkt), r.downstream);
      return;
    }
    host().count(r.downstream == from ? "rica.drop_bounce"
                                      : "rica.drop_no_entry");
    host().drop_data(pkt, stats::DropReason::kNoRoute);
    return;
  }
  r.upstream = from;
  r.last_used = now();
  host().forward_data(std::move(pkt), r.downstream);
}

void RicaProtocol::source_send(SourceState& s, net::FlowKey flow,
                               net::DataPacket pkt) {
  if (s.valid) {
    pkt.route_update = pkt.route_update || now() <= s.update_flag_until;
    host().forward_data(std::move(pkt), s.next_hop);
    return;
  }
  s.discovery.hold(host(), std::move(pkt));
  begin_discovery(flow, s);
}

// ---------------------------------------------------------------------------
// Discovery (§II-B)
// ---------------------------------------------------------------------------

void RicaProtocol::begin_discovery(net::FlowKey flow, SourceState& s) {
  s.discovery.start(host(), "rica.discovery", net::flow_dst(flow),
                    [this, flow] { return send_rreq(flow); });
}

std::uint32_t RicaProtocol::send_rreq(net::FlowKey flow) {
  const std::uint32_t bid = history_.originate(host().id(), kTagRreq);
  host().send_control(net::make_control(
      net::kBroadcastId,
      net::RreqMsg{net::flow_src(flow), net::flow_dst(flow), bid, 0.0, 0}));
  return bid;
}

void RicaProtocol::on_rreq(const net::RreqMsg& msg, net::NodeId from) {
  if (msg.src == host().id()) return;
  const bool at_dst = msg.dst == host().id();
  // §II-B: a relay looks up its history table first; a duplicate costs no
  // channel measurement.
  if (!at_dst && history_.seen(msg.src, msg.bid, kTagRreq)) return;
  const auto cls = host().link_csi(from);
  if (!cls) return;  // the sender already left our range

  const double csi_hops = msg.csi_hops + channel::csi_hop_distance(*cls);
  const auto topo = static_cast<std::uint16_t>(msg.topo_hops + 1);

  if (at_dst) {
    // §II-B: "the destination terminal receives several RREQ's with the
    // same source from all possible routes ... and chooses a route with
    // the minimal distance value."  Every copy (one per last-hop
    // neighbour) is a candidate; the duplicate-suppression rule only
    // governs relay forwarding.
    const net::FlowKey flow = net::flow_key(msg.src, msg.dst);
    dests_[flow].rreqs.add(host().simulator(), cfg_.dest_wait, msg.bid,
                           Candidate{from, csi_hops, topo},
                           [this, flow] { close_dest_window(flow); });
    return;
  }

  history_.record(msg.src, msg.bid, kTagRreq, from);

  if (topo >= cfg_.rreq_ttl) return;
  net::RreqMsg fwd = msg;
  fwd.csi_hops = csi_hops;
  fwd.topo_hops = topo;
  rebroadcast_after(
      routing::csi_flood_jitter(*cls, cfg_.csi_jitter, host().protocol_rng()),
      fwd);
}

void RicaProtocol::close_dest_window(net::FlowKey flow) {
  auto& d = dests_[flow];
  // §II-B: "it chooses a route with the minimal distance value".
  const Candidate* best = d.rreqs.close(Candidate::shorter);
  if (best == nullptr) return;
  d.route_hops = std::max<std::uint16_t>(best->topo_hops, 1);
  host().send_control(net::make_control(
      best->first_hop,
      net::RrepMsg{net::flow_src(flow), net::flow_dst(flow), d.rreqs.bid(),
                   best->csi_hops, 0}));
  arm_checks(flow);
}

void RicaProtocol::on_rrep(const net::RrepMsg& msg, net::NodeId from) {
  const net::FlowKey flow = net::flow_key(msg.src, msg.dst);

  if (msg.src == host().id()) {
    auto& s = sources_[flow];
    s.valid = true;
    s.next_hop = from;
    s.route_csi_cost = msg.csi_hops;
    s.discovery.succeed();
    host().trace_route("established", msg.src, msg.dst, msg.bid,
                       msg.csi_hops);
    // The first packets announce the (new) route to the relays.
    s.update_flag_until = now() + cfg_.update_flag_window;
    flush_pending(flow, s);
    return;
  }

  auto& r = relays_[flow];
  r.valid = true;
  r.downstream = from;
  r.last_used = now();

  const auto up = history_.upstream(msg.src, msg.bid, kTagRreq);
  if (!up) return;  // reverse path lost
  r.upstream = *up;
  net::RrepMsg fwd = msg;
  fwd.topo_hops = static_cast<std::uint16_t>(msg.topo_hops + 1);
  host().send_control(net::make_control(*up, fwd));
}

// ---------------------------------------------------------------------------
// Receiver-initiated CSI checking (§II-C)
// ---------------------------------------------------------------------------

void RicaProtocol::arm_checks(net::FlowKey flow) {
  auto& d = dests_[flow];
  if (d.check_timer.armed()) return;
  d.last_data = now();
  if (d.check_period == sim::Time::zero()) d.check_period = cfg_.check_period;
  d.check_timer.arm_after(host().simulator(), d.check_period,
                          [this, flow] { broadcast_check(flow); });
}

void RicaProtocol::broadcast_check(net::FlowKey flow) {
  auto& d = dests_[flow];
  if (now() - d.last_data > cfg_.flow_active_timeout) {
    return;  // flow went idle; the timer stays disarmed (§II-C)
  }
  const std::uint32_t bid = d.next_check_bid++;
  history_.record(host().id(), bid, kTagCheck, host().id());
  net::CsiCheckMsg msg;
  msg.src = net::flow_src(flow);
  msg.dst = net::flow_dst(flow);
  msg.bid = bid;
  msg.csi_hops = 0.0;
  msg.topo_hops = 0;
  msg.ttl = static_cast<std::int16_t>(d.route_hops + cfg_.check_ttl_slack);
  msg.received_from = host().id();
  host().send_control(net::make_control(net::kBroadcastId, msg));
  host().count("rica.check_sent");

  if (cfg_.adaptive_checks) {
    // Volatile channel -> check faster; quiet channel -> back off.
    const auto nanos = static_cast<double>(d.check_period.nanos());
    d.check_period = d.route_changed_since_check
                         ? std::max(cfg_.check_period_min,
                                    sim::Time{static_cast<std::int64_t>(
                                        nanos / 2.0)})
                         : std::min(cfg_.check_period_max,
                                    sim::Time{static_cast<std::int64_t>(
                                        nanos * 1.25)});
    d.route_changed_since_check = false;
  }
  d.check_timer.arm_after(host().simulator(), d.check_period,
                          [this, flow] { broadcast_check(flow); });
}

void RicaProtocol::on_check(const net::CsiCheckMsg& msg, net::NodeId from) {
  const net::FlowKey flow = net::flow_key(msg.src, msg.dst);

  if (msg.dst == host().id()) return;  // our own flood echoed back

  const bool at_src = msg.src == host().id();
  // History first, as in on_rreq: the source collects every copy, a relay
  // measures only the first.
  if (!at_src && history_.seen(msg.dst, msg.bid, kTagCheck)) return;
  const auto cls = host().link_csi(from);
  if (!cls) return;
  const double csi_hops = msg.csi_hops + channel::csi_hop_distance(*cls);
  const auto topo = static_cast<std::uint16_t>(msg.topo_hops + 1);

  if (at_src) {
    // We are the source: §II-C "the source terminal receives several
    // checking packets from all possible routes, then it can choose the
    // shortest one as the new route."  Collect every copy; relays are the
    // ones that forward only once.
    auto& s = sources_[flow];
    s.last_check_seen = now();
    s.checks.add(host().simulator(), cfg_.source_wait, msg.bid,
                 Candidate{from, csi_hops, topo},
                 [this, flow] { close_source_window(flow); });
    return;
  }

  history_.record(msg.dst, msg.bid, kTagCheck, from);

  // Relay: remember the downstream we first heard this check from.
  auto& r = relays_[flow];
  r.check_next = from;
  r.check_next_valid = true;

  if (msg.ttl <= 1) return;
  net::CsiCheckMsg fwd = msg;
  fwd.csi_hops = csi_hops;
  fwd.topo_hops = topo;
  fwd.ttl = static_cast<std::int16_t>(msg.ttl - 1);
  fwd.received_from = from;
  rebroadcast_after(
      routing::csi_flood_jitter(*cls, cfg_.csi_jitter, host().protocol_rng()),
      fwd);
}

void RicaProtocol::close_source_window(net::FlowKey flow) {
  auto& s = sources_[flow];
  const Candidate* best = s.checks.close(Candidate::shorter);
  if (best == nullptr) return;
  const Candidate chosen = *best;
  // Refresh our knowledge of the current route's cost when its check copy
  // made it through this round (copies can be lost to collisions).
  for (const auto& c : s.checks.copies()) {
    if (s.valid && c.first_hop == s.next_hop) {
      s.route_csi_cost = c.csi_hops;
    }
  }
  // Hysteresis: abandon a working route only for a meaningfully shorter
  // one; otherwise equal-cost candidates arriving in CSMA-jitter order
  // would flip the route every round.
  const bool keep =
      s.valid && chosen.csi_hops > s.route_csi_cost - cfg_.switch_margin;
  s.last_candidates = s.checks.take();
  s.last_window_close = now();

  if (!keep && (!s.valid || chosen.first_hop != s.next_hop)) {
    switch_route(flow, s, chosen);
  }
  s.discovery.succeed();  // the checks repaired the route (§II-D case 1)
  flush_pending(flow, s);
}

void RicaProtocol::switch_route(net::FlowKey flow, SourceState& s,
                                const Candidate& chosen) {
  s.valid = true;
  s.next_hop = chosen.first_hop;
  s.route_csi_cost = chosen.csi_hops;
  s.update_flag_until = now() + cfg_.update_flag_window;
  host().count("rica.route_switch");
  host().trace_route("repaired", net::flow_src(flow), net::flow_dst(flow), 0,
                     chosen.csi_hops);
  host().send_control(net::make_control(
      chosen.first_hop,
      net::RupdMsg{net::flow_src(flow), net::flow_dst(flow)}));
}

bool RicaProtocol::try_candidate_fallback(net::FlowKey flow, SourceState& s,
                                          net::NodeId exclude) {
  if (now() - s.last_window_close > cfg_.check_period + cfg_.source_wait) {
    return false;  // stale: no recent checking round
  }
  const Candidate* best = nullptr;
  for (const auto& c : s.last_candidates) {
    if (c.first_hop == exclude) continue;
    if (!best || c.csi_hops < best->csi_hops) best = &c;
  }
  if (!best) return false;
  switch_route(flow, s, *best);
  host().count("rica.fallback_switch");
  return true;
}

void RicaProtocol::flush_pending(net::FlowKey flow, SourceState& s) {
  if (!s.valid) return;
  for (auto& p : s.discovery.release(host())) {
    source_send(s, flow, std::move(p));
  }
}

// ---------------------------------------------------------------------------
// Route update / maintenance (§II-C, §II-D)
// ---------------------------------------------------------------------------

void RicaProtocol::on_rupd(const net::RupdMsg& msg, net::NodeId from) {
  const net::FlowKey flow = net::flow_key(msg.src, msg.dst);
  auto& r = relays_[flow];
  r.upstream = from;
  if (r.check_next_valid && r.check_next != from) {
    r.downstream = r.check_next;
    r.valid = true;
  }
  r.last_used = now();
}

void RicaProtocol::on_reer(const net::ReerMsg& msg, net::NodeId from) {
  const net::FlowKey flow = net::flow_key(msg.src, msg.dst);

  if (msg.src == host().id()) {
    auto& s = sources_[flow];
    // §II-D: only meaningful if it comes from our current downstream.
    if (!s.valid || s.next_hop != from) return;
    s.valid = false;
    if (try_candidate_fallback(flow, s, from)) return;
    begin_discovery(flow, s);
    return;
  }

  auto& r = relays_[flow];
  // §II-D: ignore REERs from terminals that are not our downstream — they
  // report breaks of abandoned routes.
  if (!r.valid || r.downstream != from) return;
  r.valid = false;
  if (r.upstream != host().id()) {
    host().send_control(net::make_control(
        r.upstream, net::ReerMsg{msg.src, msg.dst, host().id()}));
  }
}

double RicaProtocol::table_load() const {
  double lf = history_.load_factor();
  lf = std::max(lf, sources_.load_factor());
  lf = std::max(lf, relays_.load_factor());
  lf = std::max(lf, dests_.load_factor());
  return lf;
}

void RicaProtocol::on_link_break(net::NodeId neighbor,
                                 std::vector<net::DataPacket> stranded) {
  host().count("rica.link_break");
  host().trace_route("link_break", host().id(), neighbor);
  for (const auto& p : stranded) {
    host().drop_data(p, stats::DropReason::kLinkBreak);
  }

  // Source routes through the dead neighbour: try the freshest CSI-check
  // candidate, otherwise rediscover.
  for (auto& [flow, s] : sources_) {
    if (!s.valid || s.next_hop != neighbor) continue;
    s.valid = false;
    if (try_candidate_fallback(flow, s, neighbor)) continue;
    begin_discovery(flow, s);
  }

  // Relay routes through the dead neighbour: report upstream (§II-D).
  for (auto& [flow, r] : relays_) {
    if (!r.valid || r.downstream != neighbor) continue;
    r.valid = false;
    if (r.upstream != host().id()) {
      host().send_control(net::make_control(
          r.upstream,
          net::ReerMsg{net::flow_src(flow), net::flow_dst(flow),
                       host().id()}));
    }
  }
}

void RicaProtocol::on_control(const net::ControlPacket& pkt,
                              net::NodeId from) {
  if (const auto* rreq = std::get_if<net::RreqMsg>(&pkt.payload)) {
    on_rreq(*rreq, from);
  } else if (const auto* rrep = std::get_if<net::RrepMsg>(&pkt.payload)) {
    on_rrep(*rrep, from);
  } else if (const auto* chk = std::get_if<net::CsiCheckMsg>(&pkt.payload)) {
    on_check(*chk, from);
  } else if (const auto* rupd = std::get_if<net::RupdMsg>(&pkt.payload)) {
    on_rupd(*rupd, from);
  } else if (const auto* reer = std::get_if<net::ReerMsg>(&pkt.payload)) {
    on_reer(*reer, from);
  }
}

}  // namespace rica::core
