// Assembles a complete simulated ad hoc network: simulator, mobility,
// channel, common-channel MAC, metrics, and one Node per terminal.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "channel/channel_model.hpp"
#include "mac/common_channel.hpp"
#include "mac/link_transmitter.hpp"
#include "mobility/mobility_model.hpp"
#include "net/node.hpp"
#include "obs/registry.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "stats/metrics.hpp"

namespace rica::net {

/// Retired kernel-parallelism knobs.  The event kernel is serial
/// (sim/simulator.hpp); these fields remain only because the repository
/// benchmark (perfbench/) assigns them, and Network rejects any value
/// other than 1.  Sweep parallelism is `--threads` on the figure benches.
struct KernelConfig {
  unsigned threads = 1;      ///< must be 1
  std::uint32_t shards = 1;  ///< must be 1
};

/// Everything needed to instantiate a network.
struct NetworkConfig {
  std::size_t num_nodes = 50;
  mobility::MobilityConfig mobility{};  ///< model + field/speed/pause/params
  channel::ChannelConfig channel{};
  mac::CommonChannelConfig common_mac{};
  mac::LinkConfig link{};
  std::uint64_t seed = 1;
  KernelConfig kernel{};  ///< retired; see KernelConfig
};

// kMaxNodes (the 24-bit node-id ceiling this constructor enforces) lives in
// net/packet.hpp alongside the address types the wire codecs validate with.

/// Owns the full simulation stack.  Protocols are installed per node by the
/// harness (which knows which protocol family is under test); then start()
/// arms every node and the simulator can run.
class Network {
 public:
  explicit Network(const NetworkConfig& cfg);
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  [[nodiscard]] std::size_t size() const { return nodes_.size(); }
  [[nodiscard]] Node& node(NodeId id) { return *nodes_.at(id); }

  sim::Simulator& simulator() { return sim_; }
  mobility::MobilityManager& mobility() { return mobility_; }
  channel::ChannelModel& channel() { return channel_; }
  mac::CommonChannelMac& common_mac() { return common_mac_; }
  stats::MetricsCollector& metrics() { return metrics_; }
  [[nodiscard]] const sim::RngManager& rng() const { return rng_; }
  [[nodiscard]] const NetworkConfig& config() const { return cfg_; }

  /// Starts every node's protocol.  Call after installing protocols.
  void start();

  /// Peak live pooled entries across the whole stack: the control-queue
  /// pool of the common MAC and every node's data-queue pool (the gauge
  /// behind MetricsSummary::pool_high_water).
  [[nodiscard]] std::size_t pool_high_water() const;

  /// Max open-addressing table occupancy across all nodes (routing tables,
  /// history tables, link tables).
  [[nodiscard]] double table_load() const;

  /// Data packets currently buffered across every node's link queues (the
  /// sampler's queue-occupancy column).
  [[nodiscard]] std::uint64_t buffered_packets() const;

  /// The run's metrics registry, owned by metrics().  The network registers
  /// every kernel and stack statistic here at construction, and the harness
  /// snapshots it into MetricsSummary::stats after the run.
  /// Adding a statistic means adding one registration here — the summary,
  /// sweep folding, and serialized output all pick it up from the snapshot.
  [[nodiscard]] obs::Registry& registry() { return metrics_.registry(); }

  /// Installs one network-wide observer of final packet deliveries (the
  /// feedback path closed-loop traffic models ride on).  Called after
  /// metrics accounting; installing a new observer replaces the previous
  /// one.  The observer must outlive the simulation run.
  void set_delivery_observer(Node::DeliveryObserverFn fn);

 private:
  NetworkConfig cfg_;
  sim::Simulator sim_;
  sim::RngManager rng_;
  mobility::MobilityManager mobility_;
  channel::ChannelModel channel_;
  stats::MetricsCollector metrics_;
  mac::CommonChannelMac common_mac_;
  std::vector<std::unique_ptr<Node>> nodes_;
};

}  // namespace rica::net
