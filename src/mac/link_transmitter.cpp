#include "mac/link_transmitter.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <string>
#include <utility>

#include "net/wire.hpp"
#include "obs/perfetto.hpp"

namespace rica::mac {

LinkTransmitter::LinkTransmitter(net::NodeId self, sim::Simulator& sim,
                                 channel::ChannelModel& channel,
                                 stats::MetricsCollector& metrics,
                                 const LinkConfig& cfg)
    : self_(self), sim_(sim), channel_(channel), metrics_(metrics), cfg_(cfg) {}

LinkTransmitter::Link& LinkTransmitter::link(net::NodeId neighbor) {
  const auto [it, inserted] = links_.try_emplace(neighbor);
  if (inserted) it->second.q.bind(data_pool_);
  return it->second;
}

std::size_t LinkTransmitter::pool_high_water() const {
  return data_pool_.high_water();
}

void LinkTransmitter::trace_pkt(std::string_view stage,
                                const net::DataPacket& pkt, net::NodeId peer,
                                std::string_view detail) {
  auto& tracer = metrics_.tracer();
  if (!tracer.packet_on()) return;
  tracer.packet(obs::PacketTrace{stage, sim_.now(), pkt.flow, pkt.seq, self_,
                                 pkt.src, pkt.dst,
                                 static_cast<std::int64_t>(peer), pkt.hops,
                                 pkt.size_bytes, detail});
}

std::uint32_t LinkTransmitter::perfetto_tid(net::NodeId neighbor) {
  auto* writer = metrics_.tracer().perfetto();
  assert(writer != nullptr);
  char label[32];
  std::snprintf(label, sizeof(label), "link %u->%u", self_, neighbor);
  return writer->track(obs::PerfettoWriter::kDataPid, label);
}

void LinkTransmitter::enqueue(net::DataPacket pkt, net::NodeId next_hop) {
  assert(next_hop != self_ && "cannot enqueue to self");
  if (pkt.hops >= cfg_.hop_cap) {
    if (on_drop_) on_drop_(pkt, stats::DropReason::kLoopCap);
    return;
  }
  auto& link = this->link(next_hop);
  if (link.q.size() >= cfg_.buffer_cap) {
    if (on_drop_) on_drop_(pkt, stats::DropReason::kBufferOverflow);
    return;
  }
  trace_pkt("enqueued", pkt, next_hop);
  link.q.emplace_back(Queued{std::move(pkt), sim_.now()});
  metrics_.observe_queue_depth(link.q.size());
  pump(next_hop);
}

std::vector<net::DataPacket> LinkTransmitter::drain(net::NodeId neighbor) {
  std::vector<net::DataPacket> out;
  const auto it = links_.find(neighbor);
  if (it == links_.end()) return out;
  auto& link = it->second;
  // The head packet of a busy link is on the air; it stays.
  const std::size_t keep = link.busy && !link.q.empty() ? 1 : 0;
  std::size_t pos = 0;
  for (auto& q : link.q) {
    if (pos++ >= keep) out.push_back(std::move(q.pkt));
  }
  link.q.truncate(keep);
  return out;
}

std::size_t LinkTransmitter::buffered() const {
  std::size_t total = 0;
  for (const auto& [_, link] : links_) total += link.q.size();
  return total;
}

std::size_t LinkTransmitter::queue_length(net::NodeId neighbor) const {
  const auto it = links_.find(neighbor);
  return it == links_.end() ? 0 : it->second.q.size();
}

void LinkTransmitter::pump(net::NodeId neighbor) {
  auto& link = this->link(neighbor);
  if (link.busy) return;
  // Enforce the 3 s residency bound lazily at service time.
  while (!link.q.empty() &&
         sim_.now() - link.q.front().enqueued > cfg_.buffer_residency) {
    if (on_drop_) on_drop_(link.q.front().pkt, stats::DropReason::kExpired);
    link.q.pop_front();
  }
  if (link.q.empty()) return;
  link.busy = true;
  tx_attempt(neighbor);
}

void LinkTransmitter::tx_attempt(net::NodeId neighbor) {
  auto& link = this->link(neighbor);
  assert(link.busy && !link.q.empty());

  const auto sample = channel_.sample(self_, neighbor, sim_.now());
  if (!sample) {
    fail(neighbor, "no_channel");
    return;
  }
  const double rate = channel::throughput_bps(sample->csi);
  const auto& pkt = link.q.front().pkt;
  // A frame on the air is the encoded header plus the payload — charging
  // the bare payload (as this path once did) undercounts data airtime
  // relative to the byte-exact control accounting.
  const std::size_t frame_bytes = net::wire::kDataHeaderBytes + pkt.size_bytes;
  const sim::Time data_time = sim::seconds_f(frame_bytes * 8.0 / rate);
  const sim::Time ack_time = sim::seconds_f(cfg_.ack_bytes * 8.0 / rate);
  const auto csi = sample->csi;
  data_header_bits_ += net::wire::kDataHeaderBytes * 8u;
  // Every attempt's airtime, including attempts the receiver walks away
  // from mid-packet — wasted airtime belongs in the distribution.
  metrics_.observe_airtime(data_time);

  trace_pkt("tx_start", pkt, neighbor);
  if (auto* writer = metrics_.tracer().perfetto()) {
    char name[32];
    std::snprintf(name, sizeof(name), "flow%u#%u", pkt.flow, pkt.seq);
    writer->slice(obs::PerfettoWriter::kDataPid, perfetto_tid(neighbor),
                  "data", name, sim_.now(), data_time);
  }

  link.timer.arm_after(sim_, data_time, [this, neighbor, csi, ack_time] {
    auto& lnk = this->link(neighbor);
    if (!lnk.busy || lnk.q.empty()) return;  // link was torn down meanwhile
    if (!channel_.in_range(self_, neighbor, sim_.now())) {
      // Receiver moved away mid-packet: no ACK will come.
      fail(neighbor, "receiver_moved");
      return;
    }
    // Reception succeeded; the receiver acknowledges on PN(B,A).  ACK bits
    // count toward routing overhead (§III-A).
    metrics_.on_ack_tx(cfg_.ack_bytes * 8u);
    net::DataPacket delivered = std::move(lnk.q.front().pkt);
    lnk.q.pop_front();
    lnk.retries = 0;
    delivered.hops = static_cast<std::uint16_t>(delivered.hops + 1);
    delivered.tput_sum_bps += channel::throughput_bps(csi);
    trace_pkt("tx_end", delivered, neighbor);
    if (deliver_) deliver_(std::move(delivered), neighbor);
    // The sender frees the code once the ACK lands (rearming from inside
    // the timer's own callback: the airtime event is already dead).
    this->link(neighbor).timer.arm_after(sim_, ack_time, [this, neighbor] {
      this->link(neighbor).busy = false;
      pump(neighbor);
    });
  });
}

void LinkTransmitter::fail(net::NodeId neighbor, std::string_view cause) {
  auto& link = this->link(neighbor);
  if (!link.q.empty()) trace_pkt("tx_fail", link.q.front().pkt, neighbor, cause);
  ++link.retries;
  if (link.retries > cfg_.max_retries) {
    declare_break(neighbor);
    return;
  }
  link.timer.arm_after(sim_, cfg_.retry_backoff, [this, neighbor] {
    auto& lnk = this->link(neighbor);
    if (!lnk.busy) return;
    if (lnk.q.empty()) {
      lnk.busy = false;
      return;
    }
    tx_attempt(neighbor);
  });
}

void LinkTransmitter::declare_break(net::NodeId neighbor) {
  auto& link = this->link(neighbor);
  link.timer.cancel();  // O(1): whatever phase was in flight dies with the link
  std::vector<net::DataPacket> stranded;
  stranded.reserve(link.q.size());
  for (auto& q : link.q) stranded.push_back(std::move(q.pkt));
  link.q.clear();
  link.busy = false;
  link.retries = 0;
  if (on_break_) on_break_(neighbor, std::move(stranded));
}

}  // namespace rica::mac
