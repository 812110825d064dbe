#include "net/network.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "net/packet.hpp"
#include "net/wire.hpp"

namespace rica::net {

namespace {

void require_serial(const char* field, std::uint64_t value) {
  if (value != 1) {
    throw std::invalid_argument(
        std::string("NetworkConfig.") + field + " = " +
        std::to_string(value) +
        " is not supported: the event kernel is serial, so it must be 1 "
        "(sweep parallelism is --threads on the figure benches)");
  }
}

// Runs before any heavy member construction: cfg_ is the first member, so
// validating inside its initializer rejects oversized populations (and
// retired kernel knobs) before mobility/channel state is allocated.
const NetworkConfig& validate(const NetworkConfig& cfg) {
  // Airtime accounting leans on the wire layout constants; refuse to build
  // any network if they drifted from the live encoders.
  wire::check_wire_invariants();
  if (cfg.num_nodes > kMaxNodes) {
    throw std::invalid_argument(
        "NetworkConfig.num_nodes = " + std::to_string(cfg.num_nodes) +
        " exceeds the 2^24 node-id limit (routing history keys pack the "
        "origin id into 24 bits)");
  }
  require_serial("kernel.threads", cfg.kernel.threads);
  require_serial("kernel.shards", cfg.kernel.shards);
  return cfg;
}
}  // namespace

Network::Network(const NetworkConfig& cfg)
    : cfg_(validate(cfg)),
      rng_(cfg.seed),
      mobility_(cfg.num_nodes, cfg.mobility, rng_),
      channel_(cfg.channel, mobility_, rng_),
      common_mac_(sim_, channel_, rng_, metrics_, cfg.common_mac) {
  nodes_.reserve(cfg.num_nodes);
  for (std::size_t i = 0; i < cfg.num_nodes; ++i) {
    nodes_.push_back(std::make_unique<Node>(
        static_cast<NodeId>(i), sim_, channel_, common_mac_, metrics_,
        cfg.link, rng_.stream("protocol", i)));
  }
  for (auto& node : nodes_) {
    node->set_peer_delivery([this](NodeId to, DataPacket pkt, NodeId from) {
      nodes_.at(to)->receive_data(std::move(pkt), from);
    });
  }

  // One registration per statistic: the harness snapshots this registry
  // into MetricsSummary::stats, which is where readers and the sweep's fold
  // rules find it.  Counters sum across trials; gauges keep the per-trial
  // maximum.
  obs::Registry& reg = registry();
  reg.counter_fn("kernel.events_executed", [this] {
    return static_cast<double>(sim_.events_executed());
  });
  reg.counter_fn("kernel.batched_fires", [this] {
    return static_cast<double>(sim_.batched_fires());
  });
  reg.counter_fn("kernel.heap_fallbacks", [this] {
    return static_cast<double>(sim_.heap_fallbacks());
  });
  reg.gauge_fn("kernel.peak_pending", [this] {
    return static_cast<double>(sim_.peak_pending_events());
  });
  reg.gauge_fn("kernel.slab_high_water", [this] {
    return static_cast<double>(sim_.slab_high_water());
  });
  reg.gauge_fn("stack.pool_high_water", [this] {
    return static_cast<double>(pool_high_water());
  });
  reg.gauge_fn("stack.table_load", [this] { return table_load(); });
  reg.gauge_fn("stack.buffered_packets", [this] {
    return static_cast<double>(buffered_packets());
  });
  // Byte-exact overhead accounting (net/wire.hpp): control frames as
  // bytes-on-air (what fig. 4 compares), and the encoded data-frame header
  // bytes charged on top of every data payload.
  reg.counter_fn("net.control_bytes_on_air",
                 [this] { return metrics_.control_bits() / 8.0; });
  reg.counter_fn("net.data_header_bytes", [this] {
    std::uint64_t bits = 0;
    for (const auto& n : nodes_) bits += n->data_header_bits();
    return static_cast<double>(bits) / 8.0;
  });
}

std::size_t Network::pool_high_water() const {
  std::size_t hw = common_mac_.pool_high_water();
  for (const auto& n : nodes_) hw = std::max(hw, n->pool_high_water());
  return hw;
}

double Network::table_load() const {
  double lf = 0.0;
  for (const auto& n : nodes_) lf = std::max(lf, n->table_load());
  return lf;
}

std::uint64_t Network::buffered_packets() const {
  std::uint64_t total = 0;
  for (const auto& n : nodes_) total += n->buffered_count();
  return total;
}

void Network::start() {
  for (auto& node : nodes_) node->start();
}

void Network::set_delivery_observer(Node::DeliveryObserverFn fn) {
  for (auto& node : nodes_) node->set_delivery_observer(fn);
}

}  // namespace rica::net
