#include "compose.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <utility>

#include "core/rica.hpp"
#include "heap.hpp"
#include "net/network.hpp"
#include "routing/abr/abr.hpp"
#include "routing/aodv/aodv.hpp"
#include "routing/bgca/bgca.hpp"
#include "routing/linkstate/linkstate.hpp"
#include "traffic/traffic_model.hpp"

namespace perfbench {

namespace {

using rica::harness::ProtocolKind;
using rica::harness::ScenarioConfig;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::int64_t ns_since(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              t0)
      .count();
}

rica::net::NetworkConfig network_config(const ScenarioConfig& cfg) {
  rica::net::NetworkConfig net;
  net.num_nodes = cfg.num_nodes;
  net.mobility = rica::harness::scenario_mobility_config(cfg);
  net.channel.range_m = cfg.radio_range_m;
  net.seed = cfg.seed;
  net.kernel.threads = cfg.threads;
  net.kernel.shards = cfg.shards;
  return net;
}

std::unique_ptr<rica::routing::Protocol> make_protocol(
    const ScenarioConfig& cfg, rica::routing::ProtocolHost& host) {
  switch (cfg.protocol) {
    case ProtocolKind::kRica:
      return std::make_unique<rica::core::RicaProtocol>(host, cfg.rica);
    case ProtocolKind::kAodv:
      return std::make_unique<rica::routing::AodvProtocol>(host);
    case ProtocolKind::kBgca: {
      rica::routing::BgcaConfig bgca;
      bgca.flow_rate_bps = cfg.pkts_per_s * cfg.packet_bytes * 8.0;
      return std::make_unique<rica::routing::BgcaProtocol>(host, bgca);
    }
    case ProtocolKind::kAbr:
      return std::make_unique<rica::routing::AbrProtocol>(host);
    case ProtocolKind::kLinkState: {
      rica::routing::LinkStateConfig ls;
      ls.num_nodes = cfg.num_nodes;
      return std::make_unique<rica::routing::LinkStateProtocol>(host, ls);
    }
  }
  return nullptr;
}

/// Protocol install, plus the accurate t = 0 topology snapshot the paper
/// gives every link-state terminal.
void install_protocols(rica::net::Network& network, const ScenarioConfig& cfg,
                       LayerTrace* trace) {
  std::vector<rica::routing::Protocol*> real;
  real.reserve(network.size());
  for (rica::net::NodeId id = 0; id < network.size(); ++id) {
    auto& node = network.node(id);
    if (trace == nullptr) {
      auto proto = make_protocol(cfg, node);
      real.push_back(proto.get());
      node.set_protocol(std::move(proto));
    } else {
      auto traced = std::make_unique<TracedProtocol>(
          node, *trace, [&cfg](rica::routing::ProtocolHost& host) {
            return make_protocol(cfg, host);
          });
      real.push_back(&traced->inner());
      node.set_protocol(std::move(traced));
    }
  }
  if (cfg.protocol != ProtocolKind::kLinkState) return;
  const auto n = static_cast<std::uint32_t>(network.size());
  rica::routing::LinkStateProtocol::Topology topo(n);
  for (std::uint32_t a = 0; a < n; ++a) {
    for (std::uint32_t b = 0; b < n; ++b) {
      if (a == b) continue;
      if (const auto s =
              network.channel().sample(a, b, rica::sim::Time::zero())) {
        topo[a].emplace_back(b, s->csi);
      }
    }
    std::sort(topo[a].begin(), topo[a].end());
  }
  for (auto* proto : real) {
    static_cast<rica::routing::LinkStateProtocol*>(proto)->install_topology(
        topo);
  }
}

/// Flows whose endpoints share a component of the t = 0 range graph,
/// resampled up to 64 times exactly as the harness does.
std::vector<rica::traffic::Flow> connected_flows(
    rica::net::Network& network, const ScenarioConfig& cfg,
    const rica::traffic::TrafficConfig& tcfg) {
  const auto n = static_cast<std::uint32_t>(network.size());
  std::vector<std::uint32_t> comp(n, n);
  std::vector<std::uint32_t> stack;
  std::uint32_t next_comp = 0;
  for (std::uint32_t start = 0; start < n; ++start) {
    if (comp[start] != n) continue;
    comp[start] = next_comp;
    stack.push_back(start);
    while (!stack.empty()) {
      const auto u = stack.back();
      stack.pop_back();
      for (const auto v :
           network.channel().neighbors_of(u, rica::sim::Time::zero())) {
        if (comp[v] == n) {
          comp[v] = next_comp;
          stack.push_back(v);
        }
      }
    }
    ++next_comp;
  }
  auto flow_rng = network.rng().stream("flows");
  std::vector<rica::traffic::Flow> flows;
  for (int attempt = 0; attempt < 64; ++attempt) {
    flows = rica::traffic::make_flows(tcfg, cfg.num_pairs, cfg.num_nodes,
                                      cfg.pkts_per_s, flow_rng);
    if (std::all_of(flows.begin(), flows.end(), [&comp](const auto& f) {
          return comp[f.src] == comp[f.dst];
        })) {
      break;
    }
  }
  return flows;
}

ChannelProbe probe_channel(rica::net::Network& network, rica::sim::Time end) {
  // Up to 128 nodes spread over the id range; rounds advance sim time by
  // 1 ms so every sample steps its pair's fading process.
  constexpr std::size_t kMaxNodes = 128;
  constexpr std::uint64_t kMinSamples = 20000;
  constexpr int kMaxRounds = 200;
  const std::size_t n = network.size();
  const std::size_t stride = std::max<std::size_t>(1, n / kMaxNodes);
  std::vector<std::uint32_t> nodes;
  for (std::size_t id = 0; id < n && nodes.size() < kMaxNodes; id += stride) {
    nodes.push_back(static_cast<std::uint32_t>(id));
  }
  std::vector<std::vector<std::uint32_t>> nbrs(nodes.size());
  auto& channel = network.channel();
  ChannelProbe p;
  for (int round = 0; round < kMaxRounds && p.sample_calls < kMinSamples;
       ++round) {
    const rica::sim::Time t = end + rica::sim::milliseconds(round);
    auto t0 = Clock::now();
    for (std::size_t k = 0; k < nodes.size(); ++k) {
      channel.neighbors_of(nodes[k], t, nbrs[k]);
    }
    p.neighbors_ns += ns_since(t0);
    p.neighbors_calls += nodes.size();
    std::uint64_t in_range = 0;
    t0 = Clock::now();
    for (std::size_t k = 0; k < nodes.size(); ++k) {
      for (const auto b : nbrs[k]) {
        in_range += channel.sample(nodes[k], b, t).has_value() ? 1 : 0;
      }
    }
    p.sample_ns += ns_since(t0);
    p.sample_calls += in_range;
    if (in_range == 0) break;  // an isolated population: nothing to sample
  }
  return p;
}

}  // namespace

CellResult run_cell(const ScenarioConfig& cfg, const CellOptions& opt) {
  CellResult r;
  const std::uint64_t heap_base = heap::live_bytes();
  heap::reset_peak();
  const std::uint64_t allocs0 = heap::allocations();
  const auto t_begin = Clock::now();
  {
    rica::harness::validate_scenario(cfg);
    const auto tcfg = rica::traffic::parse_traffic_spec(cfg.traffic);
    const auto end = rica::sim::seconds_f(cfg.sim_s);

    auto t0 = Clock::now();
    auto network = std::make_unique<rica::net::Network>(network_config(cfg));
    r.times.network_s = since(t0);

    t0 = Clock::now();
    install_protocols(*network, cfg, opt.trace);
    r.times.protocols_s = since(t0);

    t0 = Clock::now();
    if (cfg.warmup_s > 0.0) {
      // One nanosecond past w, scheduled before anything else the run
      // schedules: the harness's measurement-window reset.
      const auto w = rica::sim::seconds_f(cfg.warmup_s);
      auto* net = network.get();
      network->simulator().at(w + rica::sim::Time{1},
                              [net, w] { net->metrics().reset_epoch(w); });
    }
    auto flows = connected_flows(*network, cfg, tcfg);
    r.times.flows_s = since(t0);

    t0 = Clock::now();
    auto generator = rica::traffic::make_traffic_model(
        tcfg, *network, std::move(flows), cfg.packet_bytes, end,
        network->rng().stream("traffic"));
    network->start();
    generator->start();
    r.times.start_s = since(t0);
    r.counters.setup_allocs = heap::allocations() - allocs0;

    if (!opt.setup_only) {
      // Host calls a protocol makes from start() are set-up work; the
      // trace covers run_until only, so its spans add up within run_s.
      if (opt.trace != nullptr) opt.trace->clear();
      auto& sim = network->simulator();
      const std::uint64_t run_allocs0 = heap::allocations();
      const auto run_t0 = Clock::now();
      auto slice_t0 = run_t0;
      for (int i = 1; i <= kSlices; ++i) {
        sim.run_until(rica::sim::Time{end.nanos() * i / kSlices});
        const auto now = Clock::now();
        r.slice_ms[i - 1] =
            std::chrono::duration<double, std::milli>(now - slice_t0).count();
        slice_t0 = now;
      }
      r.times.run_s = since(run_t0);
      r.counters.run_allocs = heap::allocations() - run_allocs0;

      t0 = Clock::now();
      r.summary = network->metrics().finalize(end);
      r.times.finalize_s = since(t0);

      auto& c = r.counters;
      c.events = sim.events_executed();
      c.batched_fires = sim.batched_fires();
      c.heap_fallbacks = sim.heap_fallbacks();
      c.peak_pending = sim.peak_pending_events();
      c.live_pairs = network->channel().live_pairs();
      c.index_rebuilds = network->channel().neighbor_index().rebuild_count();
      c.pool_high_water = network->pool_high_water();
      c.table_load = network->table_load();
      c.control_bytes_on_air = network->metrics().control_bits() / 8.0;
      if (opt.trace != nullptr) r.probe = probe_channel(*network, end);
    }

    t0 = Clock::now();
    generator.reset();
    network.reset();
    r.times.teardown_s = since(t0);
  }
  r.times.wall_s = since(t_begin);
  r.counters.peak_heap_bytes = heap::peak_bytes() - heap_base;
  return r;
}

Reference reference_of(const rica::stats::MetricsSummary& s) {
  return {s.stream_hash, s.generated, s.delivered, s.dropped,
          s.control_transmissions};
}

std::string check_cell(const ScenarioConfig& cfg, const CellResult& got,
                       const Reference& want) {
  const auto& s = got.summary;
  const Reference have = reference_of(s);
  const auto field = [](const char* name, std::uint64_t a, std::uint64_t b) {
    return std::string(name) + " " + std::to_string(a) +
           " != run_scenario " + std::to_string(b);
  };
  if (have.stream_hash != want.stream_hash) {
    return field("stream_hash", have.stream_hash, want.stream_hash);
  }
  if (have.generated != want.generated) {
    return field("generated", have.generated, want.generated);
  }
  if (have.delivered != want.delivered) {
    return field("delivered", have.delivered, want.delivered);
  }
  if (have.dropped != want.dropped) {
    return field("dropped", have.dropped, want.dropped);
  }
  if (have.control_transmissions != want.control_transmissions) {
    return field("control_transmissions", have.control_transmissions,
                 want.control_transmissions);
  }
  std::uint64_t by_reason = 0;
  for (const auto d : s.drops) by_reason += d;
  if (by_reason != s.dropped) return "dropped != sum of per-reason drops";
  if (cfg.warmup_s == 0.0 && s.delivered + s.dropped > s.generated) {
    return "delivered + dropped > generated";
  }
  if (got.counters.heap_fallbacks != 0) return "heap_fallbacks != 0";
  if (s.delivered == 0) return "nothing delivered";
  return {};
}

}  // namespace perfbench
