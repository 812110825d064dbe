#include "routing/abr/abr.hpp"

#include <algorithm>
#include <utility>

namespace rica::routing {

namespace {
constexpr std::uint8_t kTagBq = 1;
constexpr std::uint8_t kTagLq = 2;

/// How long the source waits for a BQ reply before it re-floods; the other
/// on-demand protocols wait Discovery::kWait.
constexpr sim::Time kBqWait = sim::milliseconds(300);

/// The destination's route-selection order (§III: stability first, then
/// load, then length).
bool better_candidate(std::uint32_t a_ticks, std::uint32_t a_load,
                      std::uint16_t a_hops, std::uint32_t b_ticks,
                      std::uint32_t b_load, std::uint16_t b_hops) {
  if (a_ticks != b_ticks) return a_ticks > b_ticks;
  if (a_load != b_load) return a_load < b_load;
  return a_hops < b_hops;
}
}  // namespace

AbrProtocol::AbrProtocol(ProtocolHost& host, const AbrConfig& cfg)
    : Protocol(host), cfg_(cfg) {}

Discovery& AbrProtocol::source_state(net::FlowKey flow) {
  return sources_.try_emplace(flow, kBqWait).first->second;
}

std::uint32_t AbrProtocol::ticks(net::NodeId neighbor) const {
  const auto it = neighbors_.find(neighbor);
  if (it == neighbors_.end()) return 0;
  if (now() - it->second.last_beacon > cfg_.neighbor_timeout) return 0;
  return it->second.ticks;
}

std::optional<net::NodeId> AbrProtocol::downstream(net::FlowKey flow) const {
  const auto it = entries_.find(flow);
  if (it == entries_.end() || !it->second.valid) return std::nullopt;
  return it->second.downstream;
}

void AbrProtocol::start() {
  // Random phase desynchronizes beacons network-wide.
  const auto phase = sim::Time{static_cast<std::int64_t>(
      host().protocol_rng().uniform(
          0.0, static_cast<double>(cfg_.beacon_period.nanos())))};
  beacon_timer_.arm_after(host().simulator(), phase, [this] { send_beacon(); });
}

void AbrProtocol::send_beacon() {
  host().send_control(
      net::make_control(net::kBroadcastId, net::AbrBeaconMsg{host().id()}));
  beacon_timer_.arm_after(host().simulator(), cfg_.beacon_period,
                          [this] { send_beacon(); });
}

void AbrProtocol::on_beacon(net::NodeId from) {
  auto& n = neighbors_[from];
  if (now() - n.last_beacon > cfg_.neighbor_timeout) {
    n.ticks = 0;  // the association lapsed; start counting afresh
  }
  n.ticks = std::min(n.ticks + 1, cfg_.tick_cap);
  n.last_beacon = now();
}

std::uint32_t AbrProtocol::link_ticks(net::NodeId neighbor) {
  return ticks(neighbor);
}

// ---------------------------------------------------------------------------
// Data plane
// ---------------------------------------------------------------------------

void AbrProtocol::handle_data(net::DataPacket pkt, net::NodeId from) {
  const net::FlowKey flow = pkt.key();
  if (pkt.dst == host().id()) {
    host().deliver_local(pkt);
    return;
  }

  auto& e = entries_[flow];
  if (from == host().id()) {  // source
    if (e.repairing) {
      repair_pending_[flow].hold(host(), std::move(pkt));
      return;
    }
    if (e.valid) {
      host().forward_data(std::move(pkt), e.downstream);
      return;
    }
    source_state(flow).hold(host(), std::move(pkt));
    begin_discovery(flow);
    return;
  }

  e.upstream = from;
  if (e.repairing) {
    repair_pending_[flow].hold(host(), std::move(pkt));
    return;
  }
  if (!e.valid) {
    host().drop_data(pkt, stats::DropReason::kNoRoute);
    return;
  }
  host().forward_data(std::move(pkt), e.downstream);
}

// ---------------------------------------------------------------------------
// Discovery: BQ flood + stability-based selection
// ---------------------------------------------------------------------------

void AbrProtocol::begin_discovery(net::FlowKey flow) {
  source_state(flow).start(host(), "abr.discovery", net::flow_dst(flow),
                           [this, flow] { return send_bq(flow); });
}

std::uint32_t AbrProtocol::send_bq(net::FlowKey flow) {
  const std::uint32_t bid = history_.originate(host().id(), kTagBq);
  net::AbrBqMsg msg;
  msg.src = net::flow_src(flow);
  msg.dst = net::flow_dst(flow);
  msg.bid = bid;
  host().send_control(net::make_control(net::kBroadcastId, msg));
  return bid;
}

void AbrProtocol::on_bq(const net::AbrBqMsg& msg, net::NodeId from) {
  if (msg.src == host().id()) return;

  const std::uint32_t tick_sum = msg.tick_sum + link_ticks(from);
  const auto load_sum =
      msg.load_sum + static_cast<std::uint32_t>(host().buffered_count());
  const auto topo = static_cast<std::uint16_t>(msg.topo_hops + 1);

  if (msg.dst == host().id()) {
    // The destination compares every arriving copy (one per last hop);
    // duplicate suppression only applies to relay forwarding.
    const net::FlowKey flow = net::flow_key(msg.src, msg.dst);
    dests_[flow].add(host().simulator(), cfg_.dest_wait, msg.bid,
                     Candidate{from, tick_sum, load_sum, topo},
                     [this, flow] { close_dest_window(flow); });
    return;
  }
  if (!history_.record(msg.src, msg.bid, kTagBq, from)) return;
  if (topo >= cfg_.bq_ttl) return;
  net::AbrBqMsg fwd = msg;
  fwd.tick_sum = tick_sum;
  fwd.load_sum = load_sum;
  fwd.topo_hops = topo;
  host().send_control(net::make_control(net::kBroadcastId, fwd));
}

void AbrProtocol::close_dest_window(net::FlowKey flow) {
  auto& d = dests_[flow];
  const Candidate* best = d.close([](const Candidate& a, const Candidate& b) {
    return better_candidate(a.tick_sum, a.load_sum, a.topo_hops, b.tick_sum,
                            b.load_sum, b.topo_hops);
  });
  if (best == nullptr) return;
  host().send_control(net::make_control(
      best->first_hop, net::AbrReplyMsg{net::flow_src(flow),
                                        net::flow_dst(flow), d.bid(), 0}));
}

void AbrProtocol::on_reply(const net::AbrReplyMsg& msg, net::NodeId from) {
  const net::FlowKey flow = net::flow_key(msg.src, msg.dst);
  auto& e = entries_[flow];
  e.valid = true;
  e.downstream = from;
  e.hops_to_dst = static_cast<std::uint16_t>(msg.topo_hops + 1);
  e.repairing = false;

  if (msg.src == host().id()) {
    auto& s = source_state(flow);
    s.succeed();
    host().trace_route("established", msg.src, msg.dst, msg.bid,
                       static_cast<double>(msg.topo_hops + 1));
    for (auto& p : s.release(host())) {
      host().forward_data(std::move(p), e.downstream);
    }
    flush_repair(flow);
    return;
  }
  const auto up = history_.upstream(msg.src, msg.bid, kTagBq);
  if (!up) return;
  e.upstream = *up;
  net::AbrReplyMsg fwd = msg;
  fwd.topo_hops = static_cast<std::uint16_t>(msg.topo_hops + 1);
  host().send_control(net::make_control(*up, fwd));
}

// ---------------------------------------------------------------------------
// Local repair: LQ with RN backtracking
// ---------------------------------------------------------------------------

void AbrProtocol::start_local_query(net::FlowKey flow) {
  auto& e = entries_[flow];
  e.repairing = true;
  e.valid = false;
  const std::uint32_t bid = history_.originate(host().id(), kTagLq);
  e.lq_bid = bid;
  e.lq_candidates.clear();
  host().count("abr.lq");
  host().trace_route("repair_start", net::flow_src(flow), net::flow_dst(flow),
                     bid);

  net::AbrLqMsg msg;
  msg.origin = host().id();
  msg.src = net::flow_src(flow);
  msg.dst = net::flow_dst(flow);
  msg.bid = bid;
  msg.ttl = cfg_.lq_ttl;
  msg.origin_hops_to_dst = e.hops_to_dst;
  host().send_control(net::make_control(net::kBroadcastId, msg));

  e.lq_timer.arm_after(host().simulator(), cfg_.lq_timeout,
                       [this, flow, bid] { finish_local_query(flow, bid); });
}

void AbrProtocol::on_lq(const net::AbrLqMsg& msg, net::NodeId from) {
  if (msg.origin == host().id()) return;
  if (!history_.record(msg.origin, msg.bid, kTagLq, from)) return;

  const auto topo = static_cast<std::uint16_t>(msg.topo_hops + 1);

  const net::FlowKey flow = net::flow_key(msg.src, msg.dst);
  const auto it = entries_.find(flow);
  const bool is_dst = msg.dst == host().id();
  const bool on_path = it != entries_.end() && it->second.valid &&
                       !it->second.repairing &&
                       it->second.hops_to_dst < msg.origin_hops_to_dst;
  if (is_dst || on_path) {
    net::AbrLqReplyMsg reply;
    reply.origin = msg.origin;
    reply.src = msg.src;
    reply.dst = msg.dst;
    reply.bid = msg.bid;
    reply.join_hops_to_dst = is_dst ? 0 : it->second.hops_to_dst;
    reply.join = host().id();
    host().send_control(net::make_control(from, reply));
    return;
  }
  if (msg.ttl <= 1) return;
  net::AbrLqMsg fwd = msg;
  fwd.topo_hops = topo;
  fwd.ttl = static_cast<std::int16_t>(msg.ttl - 1);
  host().send_control(net::make_control(net::kBroadcastId, fwd));
}

void AbrProtocol::on_lq_reply(const net::AbrLqReplyMsg& msg,
                              net::NodeId from) {
  const net::FlowKey flow = net::flow_key(msg.src, msg.dst);
  if (msg.origin == host().id()) {
    auto& e = entries_[flow];
    if (msg.bid != e.lq_bid) return;
    e.lq_candidates.push_back(
        Candidate{from, 0, 0, msg.join_hops_to_dst});
    return;
  }
  auto& e = entries_[flow];
  e.valid = true;
  e.downstream = from;
  e.hops_to_dst = static_cast<std::uint16_t>(msg.join_hops_to_dst + 1);
  e.repairing = false;
  const auto up = history_.upstream(msg.origin, msg.bid, kTagLq);
  if (!up) return;
  e.upstream = *up;
  net::AbrLqReplyMsg fwd = msg;
  fwd.join_hops_to_dst = e.hops_to_dst;
  host().send_control(net::make_control(*up, fwd));
}

void AbrProtocol::finish_local_query(net::FlowKey flow, std::uint32_t bid) {
  auto& e = entries_[flow];
  if (e.lq_bid != bid || !e.repairing) return;
  if (!e.lq_candidates.empty()) {
    const auto best = std::min_element(
        e.lq_candidates.begin(), e.lq_candidates.end(),
        [](const Candidate& a, const Candidate& b) {
          return a.topo_hops < b.topo_hops;
        });
    e.valid = true;
    e.downstream = best->first_hop;
    e.hops_to_dst = static_cast<std::uint16_t>(best->topo_hops + 1);
    e.repairing = false;
    e.lq_candidates.clear();
    host().count("abr.lq_success");
    host().trace_route("repaired", net::flow_src(flow), net::flow_dst(flow),
                       bid, static_cast<double>(e.hops_to_dst));
    flush_repair(flow);
    return;
  }
  e.lq_candidates.clear();
  e.repairing = false;
  backtrack(flow, e);
}

void AbrProtocol::backtrack(net::FlowKey flow, Entry& e) {
  if (net::flow_src(flow) == host().id()) {
    // Backtracked all the way: full rediscovery, keep the held packets.
    begin_discovery(flow);
    return;
  }
  host().count("abr.rn");
  if (e.upstream != host().id()) {
    host().send_control(net::make_control(
        e.upstream,
        net::AbrRnMsg{net::flow_src(flow), net::flow_dst(flow), host().id()}));
  }
  // Packets held here cannot be salvaged once we give up the repair.
  if (auto it = repair_pending_.find(flow); it != repair_pending_.end()) {
    for (const auto& p : it->second.release(host())) {
      host().drop_data(p, stats::DropReason::kLinkBreak);
    }
  }
}

void AbrProtocol::on_rn(const net::AbrRnMsg& msg, net::NodeId from) {
  const net::FlowKey flow = net::flow_key(msg.src, msg.dst);
  const auto it = entries_.find(flow);
  if (it == entries_.end() || !it->second.valid ||
      it->second.downstream != from) {
    return;  // stale notification from an abandoned path
  }
  // Our downstream gave up; now it is our turn to repair locally.
  start_local_query(flow);
}

void AbrProtocol::flush_repair(net::FlowKey flow) {
  auto& e = entries_[flow];
  if (!e.valid) return;
  if (auto it = repair_pending_.find(flow); it != repair_pending_.end()) {
    for (auto& p : it->second.release(host())) {
      host().forward_data(std::move(p), e.downstream);
    }
  }
}

double AbrProtocol::table_load() const {
  double lf = history_.load_factor();
  lf = std::max(lf, neighbors_.load_factor());
  lf = std::max(lf, entries_.load_factor());
  lf = std::max(lf, sources_.load_factor());
  lf = std::max(lf, dests_.load_factor());
  lf = std::max(lf, repair_pending_.load_factor());
  return lf;
}

void AbrProtocol::on_link_break(net::NodeId neighbor,
                                std::vector<net::DataPacket> stranded) {
  host().count("abr.link_break");
  host().trace_route("link_break", host().id(), neighbor);
  // The broken association resets.
  neighbors_.erase(neighbor);

  for (auto& [flow, e] : entries_) {
    if ((!e.valid && !e.repairing) || e.downstream != neighbor) continue;
    if (net::flow_src(flow) == host().id() && e.hops_to_dst <= 1) {
      // Next hop was the destination itself: just rediscover.
      e.valid = false;
      begin_discovery(flow);
      continue;
    }
    start_local_query(flow);
  }
  for (auto& p : stranded) {
    auto& e = entries_[p.key()];
    if (e.repairing) {
      repair_pending_[p.key()].hold(host(), std::move(p));
    } else {
      host().drop_data(p, stats::DropReason::kLinkBreak);
    }
  }
}

void AbrProtocol::on_control(const net::ControlPacket& pkt, net::NodeId from) {
  if (std::get_if<net::AbrBeaconMsg>(&pkt.payload) != nullptr) {
    on_beacon(from);
  } else if (const auto* bq = std::get_if<net::AbrBqMsg>(&pkt.payload)) {
    on_bq(*bq, from);
  } else if (const auto* rep = std::get_if<net::AbrReplyMsg>(&pkt.payload)) {
    on_reply(*rep, from);
  } else if (const auto* lq = std::get_if<net::AbrLqMsg>(&pkt.payload)) {
    on_lq(*lq, from);
  } else if (const auto* lr = std::get_if<net::AbrLqReplyMsg>(&pkt.payload)) {
    on_lq_reply(*lr, from);
  } else if (const auto* rn = std::get_if<net::AbrRnMsg>(&pkt.payload)) {
    on_rn(*rn, from);
  }
}

}  // namespace rica::routing
