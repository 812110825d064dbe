#include "routing/bgca/bgca.hpp"

#include <algorithm>
#include <utility>

namespace rica::routing {

namespace {
constexpr std::uint8_t kTagRreq = 1;
constexpr std::uint8_t kTagLq = 2;
}  // namespace

BgcaProtocol::BgcaProtocol(ProtocolHost& host, const BgcaConfig& cfg)
    : Protocol(host), cfg_(cfg) {}

std::optional<net::NodeId> BgcaProtocol::downstream(net::FlowKey flow) const {
  const auto it = entries_.find(flow);
  if (it == entries_.end() || !it->second.valid) return std::nullopt;
  return it->second.downstream;
}

void BgcaProtocol::start() {
  // Desynchronize the monitors across nodes.
  const auto phase = sim::Time{static_cast<std::int64_t>(
      host().protocol_rng().uniform(0.0,
                                    static_cast<double>(cfg_.monitor_period.nanos())))};
  monitor_timer_.arm_after(host().simulator(), phase,
                           [this] { monitor_links(); });
}

// ---------------------------------------------------------------------------
// Data plane
// ---------------------------------------------------------------------------

void BgcaProtocol::handle_data(net::DataPacket pkt, net::NodeId from) {
  const net::FlowKey flow = pkt.key();
  if (pkt.dst == host().id()) {
    host().deliver_local(pkt);
    return;
  }

  auto& e = entries_[flow];
  if (from == host().id()) {  // source
    if (e.valid || e.repairing) {
      forward_or_drop(std::move(pkt), e);
      return;
    }
    sources_[flow].hold(host(), std::move(pkt));
    begin_discovery(flow);
    return;
  }

  e.upstream = from;
  forward_or_drop(std::move(pkt), e);
}

void BgcaProtocol::forward_or_drop(net::DataPacket pkt, Entry& e) {
  if (e.repairing) {
    // Hold arriving traffic while the local query runs; the paper's local
    // repair is exactly what builds queues at the repairing terminal.
    repair_pending_[pkt.key()].hold(host(), std::move(pkt));
    return;
  }
  if (!e.valid) {
    host().drop_data(pkt, stats::DropReason::kNoRoute);
    return;
  }
  host().forward_data(std::move(pkt), e.downstream);
}

// ---------------------------------------------------------------------------
// Discovery (same CSI-hop flood as RICA)
// ---------------------------------------------------------------------------

void BgcaProtocol::begin_discovery(net::FlowKey flow) {
  sources_[flow].start(host(), "bgca.discovery", net::flow_dst(flow),
                       [this, flow] { return send_rreq(flow); });
}

std::uint32_t BgcaProtocol::send_rreq(net::FlowKey flow) {
  const std::uint32_t bid = history_.originate(host().id(), kTagRreq);
  host().send_control(net::make_control(
      net::kBroadcastId,
      net::RreqMsg{net::flow_src(flow), net::flow_dst(flow), bid, 0.0, 0}));
  return bid;
}

void BgcaProtocol::on_rreq(const net::RreqMsg& msg, net::NodeId from) {
  if (msg.src == host().id()) return;
  const bool at_dst = msg.dst == host().id();
  // History first: a relay's duplicate costs no channel measurement.
  if (!at_dst && history_.seen(msg.src, msg.bid, kTagRreq)) return;
  const auto cls = host().link_csi(from);
  if (!cls) return;

  const double csi_hops = msg.csi_hops + channel::csi_hop_distance(*cls);
  const auto topo = static_cast<std::uint16_t>(msg.topo_hops + 1);

  if (at_dst) {
    // Every arriving copy is a route candidate (duplicate suppression only
    // governs relay forwarding), mirroring RICA's discovery.
    const net::FlowKey flow = net::flow_key(msg.src, msg.dst);
    dests_[flow].add(host().simulator(), cfg_.dest_wait, msg.bid,
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
      csi_flood_jitter(*cls, cfg_.csi_jitter, host().protocol_rng()), fwd);
}

void BgcaProtocol::close_dest_window(net::FlowKey flow) {
  auto& d = dests_[flow];
  const Candidate* best = d.close(Candidate::shorter);
  if (best == nullptr) return;
  host().send_control(net::make_control(
      best->first_hop,
      net::RrepMsg{net::flow_src(flow), net::flow_dst(flow), d.bid(),
                   best->csi_hops, 0}));
}

void BgcaProtocol::on_rrep(const net::RrepMsg& msg, net::NodeId from) {
  const net::FlowKey flow = net::flow_key(msg.src, msg.dst);
  auto& e = entries_[flow];
  e.valid = true;
  e.downstream = from;
  e.hops_to_dst = static_cast<std::uint16_t>(msg.topo_hops + 1);
  e.repairing = false;

  if (msg.src == host().id()) {
    sources_[flow].succeed();
    host().trace_route("established", msg.src, msg.dst, msg.bid,
                       msg.csi_hops);
    flush_pending(flow);
    return;
  }
  const auto up = history_.upstream(msg.src, msg.bid, kTagRreq);
  if (!up) return;
  e.upstream = *up;
  net::RrepMsg fwd = msg;
  fwd.topo_hops = static_cast<std::uint16_t>(msg.topo_hops + 1);
  host().send_control(net::make_control(*up, fwd));
}

void BgcaProtocol::flush_pending(net::FlowKey flow) {
  auto& e = entries_[flow];
  if (!e.valid) return;
  for (auto* held : {&sources_, &repair_pending_}) {
    if (auto it = held->find(flow); it != held->end()) {
      for (auto& p : it->second.release(host())) {
        host().forward_data(std::move(p), e.downstream);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The bandwidth guard (the "BG" in BGCA)
// ---------------------------------------------------------------------------

void BgcaProtocol::monitor_links() {
  for (auto& [flow, e] : entries_) {
    if (!e.valid || e.repairing) continue;
    if (net::flow_dst(flow) == host().id()) continue;
    if (now() - e.last_lq < cfg_.lq_cooldown) continue;
    const auto cls = host().link_csi(e.downstream);
    if (!cls) continue;  // range exit is the data plane's business
    if (channel::throughput_bps(*cls) < requirement_bps()) {
      // Only a *persistent* deficiency (deep fade) triggers the repair; a
      // single sub-period flicker does not (the paper calls BGCA
      // deliberately "passive").
      if (++e.strikes >= cfg_.guard_strikes) {
        e.strikes = 0;
        host().count("bgca.guard_trigger");
        start_local_query(flow, /*broken=*/false);
      }
    } else {
      e.strikes = 0;
    }
  }
  monitor_timer_.arm_after(host().simulator(), cfg_.monitor_period,
                           [this] { monitor_links(); });
}

void BgcaProtocol::start_local_query(net::FlowKey flow, bool broken) {
  auto& e = entries_[flow];
  if (e.repairing) return;
  e.repairing = broken;  // keep using a degraded (but live) link meanwhile
  e.last_lq = now();
  const std::uint32_t bid = history_.originate(host().id(), kTagLq);
  e.lq_bid = bid;
  e.lq_candidates.clear();
  host().count("bgca.lq");
  host().trace_route("repair_start", net::flow_src(flow), net::flow_dst(flow),
                     bid);

  net::BgcaLqMsg msg;
  msg.origin = host().id();
  msg.src = net::flow_src(flow);
  msg.dst = net::flow_dst(flow);
  msg.bid = bid;
  msg.ttl = cfg_.lq_ttl;
  msg.csi_hops = 0.0;
  msg.topo_hops = 0;
  msg.origin_hops_to_dst = e.hops_to_dst;
  host().send_control(net::make_control(net::kBroadcastId, msg));

  e.lq_timer.arm_after(host().simulator(), cfg_.lq_timeout,
                       [this, flow, bid] { finish_local_query(flow, bid); });
}

void BgcaProtocol::on_lq(const net::BgcaLqMsg& msg, net::NodeId from) {
  if (msg.origin == host().id()) return;
  if (history_.seen(msg.origin, msg.bid, kTagLq)) return;
  const auto cls = host().link_csi(from);
  if (!cls) return;
  history_.record(msg.origin, msg.bid, kTagLq, from);

  const double csi_hops = msg.csi_hops + channel::csi_hop_distance(*cls);
  const auto topo = static_cast<std::uint16_t>(msg.topo_hops + 1);

  const net::FlowKey flow = net::flow_key(msg.src, msg.dst);
  const auto it = entries_.find(flow);
  const bool is_dst = msg.dst == host().id();
  // Join eligibility: we must be strictly closer to the destination than the
  // querying terminal, on a live path (prevents splicing a loop).
  const bool on_path = it != entries_.end() && it->second.valid &&
                       !it->second.repairing &&
                       it->second.hops_to_dst < msg.origin_hops_to_dst;
  if (is_dst || on_path) {
    net::BgcaLqReplyMsg reply;
    reply.origin = msg.origin;
    reply.src = msg.src;
    reply.dst = msg.dst;
    reply.bid = msg.bid;
    reply.csi_hops = csi_hops;
    reply.join_hops_to_dst = is_dst ? 0 : it->second.hops_to_dst;
    reply.join = host().id();
    host().send_control(net::make_control(from, reply));
    return;
  }
  if (msg.ttl <= 1) return;
  net::BgcaLqMsg fwd = msg;
  fwd.csi_hops = csi_hops;
  fwd.topo_hops = topo;
  fwd.ttl = static_cast<std::int16_t>(msg.ttl - 1);
  rebroadcast_after(
      csi_flood_jitter(*cls, cfg_.csi_jitter, host().protocol_rng()), fwd);
}

void BgcaProtocol::on_lq_reply(const net::BgcaLqReplyMsg& msg,
                               net::NodeId from) {
  const net::FlowKey flow = net::flow_key(msg.src, msg.dst);
  if (msg.origin == host().id()) {
    auto& e = entries_[flow];
    if (msg.bid != e.lq_bid) return;  // stale reply of an older query
    e.lq_candidates.push_back(
        Candidate{from, msg.csi_hops, msg.join_hops_to_dst});
    return;
  }
  // A relay on the reply path becomes part of the spliced partial route.
  auto& e = entries_[flow];
  e.valid = true;
  e.downstream = from;
  e.hops_to_dst = static_cast<std::uint16_t>(msg.join_hops_to_dst + 1);
  e.repairing = false;
  const auto up = history_.upstream(msg.origin, msg.bid, kTagLq);
  if (!up) return;
  e.upstream = *up;
  net::BgcaLqReplyMsg fwd = msg;
  fwd.join_hops_to_dst = e.hops_to_dst;
  host().send_control(net::make_control(*up, fwd));
}

void BgcaProtocol::finish_local_query(net::FlowKey flow, std::uint32_t bid) {
  auto& e = entries_[flow];
  if (e.lq_bid != bid) return;
  if (!e.lq_candidates.empty()) {
    const auto best = std::min_element(
        e.lq_candidates.begin(), e.lq_candidates.end(), Candidate::shorter);
    e.valid = true;
    e.downstream = best->first_hop;
    e.hops_to_dst = static_cast<std::uint16_t>(best->topo_hops + 1);
    e.repairing = false;
    e.lq_candidates.clear();
    host().count("bgca.lq_success");
    host().trace_route("repaired", net::flow_src(flow), net::flow_dst(flow),
                       bid, static_cast<double>(e.hops_to_dst));
    flush_pending(flow);
    return;
  }
  e.lq_candidates.clear();
  if (e.repairing) {
    // The link is gone and local repair failed: escalate.
    e.repairing = false;
    e.valid = false;
    escalate_to_source(flow, e);
  }
  // A guard-triggered (link still alive) query that found nothing simply
  // keeps the degraded route; the cooldown throttles the next attempt.
}

void BgcaProtocol::escalate_to_source(net::FlowKey flow, Entry& e) {
  if (net::flow_src(flow) == host().id()) {
    begin_discovery(flow);
    return;
  }
  if (e.upstream != host().id()) {
    host().send_control(net::make_control(
        e.upstream,
        net::ReerMsg{net::flow_src(flow), net::flow_dst(flow), host().id()}));
  }
  // Whatever was held for repair dies with the failed route.
  if (auto it = repair_pending_.find(flow); it != repair_pending_.end()) {
    for (const auto& p : it->second.release(host())) {
      host().drop_data(p, stats::DropReason::kLinkBreak);
    }
  }
}

void BgcaProtocol::on_reer(const net::ReerMsg& msg, net::NodeId from) {
  const net::FlowKey flow = net::flow_key(msg.src, msg.dst);
  const auto it = entries_.find(flow);
  if (it == entries_.end() || !it->second.valid ||
      it->second.downstream != from) {
    return;  // stale report from an abandoned route
  }
  it->second.valid = false;
  if (msg.src == host().id()) {
    begin_discovery(flow);
    return;
  }
  if (it->second.upstream != host().id()) {
    host().send_control(net::make_control(
        it->second.upstream, net::ReerMsg{msg.src, msg.dst, host().id()}));
  }
}

double BgcaProtocol::table_load() const {
  double lf = history_.load_factor();
  lf = std::max(lf, entries_.load_factor());
  lf = std::max(lf, sources_.load_factor());
  lf = std::max(lf, dests_.load_factor());
  lf = std::max(lf, repair_pending_.load_factor());
  return lf;
}

void BgcaProtocol::on_link_break(net::NodeId neighbor,
                                 std::vector<net::DataPacket> stranded) {
  host().count("bgca.link_break");
  host().trace_route("link_break", host().id(), neighbor);
  for (auto& [flow, e] : entries_) {
    if (!e.valid || e.downstream != neighbor) continue;
    e.valid = false;
    // Local repair first; stranded packets wait in the repair buffer.
    start_local_query(flow, /*broken=*/true);
  }
  for (auto& p : stranded) {
    auto& e = entries_[p.key()];
    if (!e.repairing) {
      host().drop_data(p, stats::DropReason::kLinkBreak);
      continue;
    }
    repair_pending_[p.key()].hold(host(), std::move(p));
  }
}

void BgcaProtocol::on_control(const net::ControlPacket& pkt,
                              net::NodeId from) {
  if (const auto* rreq = std::get_if<net::RreqMsg>(&pkt.payload)) {
    on_rreq(*rreq, from);
  } else if (const auto* rrep = std::get_if<net::RrepMsg>(&pkt.payload)) {
    on_rrep(*rrep, from);
  } else if (const auto* lq = std::get_if<net::BgcaLqMsg>(&pkt.payload)) {
    on_lq(*lq, from);
  } else if (const auto* rep = std::get_if<net::BgcaLqReplyMsg>(&pkt.payload)) {
    on_lq_reply(*rep, from);
  } else if (const auto* reer = std::get_if<net::ReerMsg>(&pkt.payload)) {
    on_reer(*reer, from);
  }
}

}  // namespace rica::routing
