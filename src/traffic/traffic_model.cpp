#include "traffic/traffic_model.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "net/network.hpp"
#include "traffic/cbr.hpp"
#include "traffic/onoff.hpp"
#include "traffic/pareto.hpp"
#include "traffic/poisson.hpp"
#include "traffic/reqresp.hpp"
#include "util/spec_parse.hpp"

namespace rica::traffic {

namespace {

constexpr std::string_view kDomain = "traffic";

std::string csv(const std::vector<std::string>& names) {
  return util::csv_list(names);
}

double parse_double(std::string_view key, const std::string& value) {
  return util::parse_spec_double(kDomain, key, value);
}

void require(bool ok, std::string_view key, std::string_view constraint) {
  util::require_spec(ok, kDomain, key, constraint);
}

/// Applies one "key=value" onto cfg.  `pattern` and `hotspots` are shared
/// keys; the rest are scoped to the selected model.
void apply_param(TrafficConfig& cfg, const std::string& key,
                 const std::string& value) {
  if (key == "pattern") {
    cfg.pattern = flow_pattern_from_string(value);
    return;
  }
  if (key == "hotspots") {
    const double v = parse_double(key, value);
    require(v >= 1.0 && v <= 1e9 && v == std::floor(v), key,
            "a positive integer");
    cfg.hotspots = static_cast<std::size_t>(v);
    return;
  }
  switch (cfg.model) {
    case TrafficKind::kPoisson:
      throw std::invalid_argument("unknown poisson param: " + key +
                                  " (known: pattern, hotspots; rate and "
                                  "packet size are scenario flags)");
    case TrafficKind::kCbr:
      if (key == "jitter") {
        cfg.cbr_jitter = parse_double(key, value);
        require(cfg.cbr_jitter >= 0.0 && cfg.cbr_jitter < 1.0, key,
                "in [0, 1)");
        return;
      }
      throw std::invalid_argument("unknown cbr param: " + key +
                                  " (known: jitter, pattern, hotspots)");
    case TrafficKind::kOnOff:
      if (key == "on") {
        cfg.on_mean_s = parse_double(key, value);
        require(cfg.on_mean_s > 0.0, key, "> 0");
        return;
      }
      if (key == "off") {
        cfg.off_mean_s = parse_double(key, value);
        require(cfg.off_mean_s > 0.0, key, "> 0");
        return;
      }
      throw std::invalid_argument("unknown onoff param: " + key +
                                  " (known: on, off, pattern, hotspots)");
    case TrafficKind::kPareto:
      if (key == "on") {
        cfg.on_mean_s = parse_double(key, value);
        require(cfg.on_mean_s > 0.0, key, "> 0");
        return;
      }
      if (key == "off") {
        cfg.off_mean_s = parse_double(key, value);
        require(cfg.off_mean_s > 0.0, key, "> 0");
        return;
      }
      if (key == "shape") {
        cfg.pareto_shape = parse_double(key, value);
        require(cfg.pareto_shape > 1.0, key,
                "> 1 (the mean ON/OFF period must exist)");
        return;
      }
      throw std::invalid_argument(
          "unknown pareto param: " + key +
          " (known: on, off, shape, pattern, hotspots)");
    case TrafficKind::kReqResp:
      if (key == "think") {
        cfg.think_mean_s = parse_double(key, value);
        require(cfg.think_mean_s > 0.0, key, "> 0");
        return;
      }
      if (key == "timeout") {
        cfg.timeout_s = parse_double(key, value);
        require(cfg.timeout_s > 0.0, key, "> 0");
        return;
      }
      if (key == "req") {
        const double v = parse_double(key, value);
        require(v >= 1.0 && v <= 65535.0 && v == std::floor(v), key,
                "an integer in [1, 65535]");
        cfg.request_bytes = static_cast<std::uint16_t>(v);
        return;
      }
      throw std::invalid_argument(
          "unknown reqresp param: " + key +
          " (known: think, timeout, req, pattern, hotspots)");
  }
  throw std::invalid_argument("unknown traffic param: " + key);
}

/// Samples `count` distinct terminal ids via a partial Fisher-Yates shuffle
/// — the exact draw sequence random_flows has always used, so the `random`
/// pattern stays bit-identical to the pre-subsystem generator.
std::vector<net::NodeId> sample_distinct(std::size_t count,
                                         std::size_t num_nodes,
                                         sim::RandomStream& rng) {
  std::vector<net::NodeId> ids(num_nodes);
  std::iota(ids.begin(), ids.end(), 0u);
  for (std::size_t i = 0; i < count; ++i) {
    const auto j = static_cast<std::size_t>(
        rng.uniform_int(static_cast<std::int64_t>(i),
                        static_cast<std::int64_t>(num_nodes - 1)));
    std::swap(ids[i], ids[j]);
  }
  ids.resize(count);
  return ids;
}

void require_population(bool ok, std::string_view pattern,
                        std::string_view need, std::size_t num_pairs,
                        std::size_t num_nodes) {
  if (!ok) {
    throw std::invalid_argument(
        "traffic pattern '" + std::string(pattern) + "' needs " +
        std::string(need) + " (got " + std::to_string(num_pairs) +
        " pair(s) over " + std::to_string(num_nodes) + " node(s))");
  }
}

}  // namespace

std::string_view to_string(TrafficKind kind) {
  switch (kind) {
    case TrafficKind::kPoisson:
      return "poisson";
    case TrafficKind::kCbr:
      return "cbr";
    case TrafficKind::kOnOff:
      return "onoff";
    case TrafficKind::kPareto:
      return "pareto";
    case TrafficKind::kReqResp:
      return "reqresp";
  }
  return "?";
}

std::string_view to_string(FlowPattern pattern) {
  switch (pattern) {
    case FlowPattern::kRandom:
      return "random";
    case FlowPattern::kSink:
      return "sink";
    case FlowPattern::kHotspot:
      return "hotspot";
    case FlowPattern::kRing:
      return "ring";
  }
  return "?";
}

TrafficKind traffic_kind_from_string(std::string_view name) {
  const std::string n = util::lower(name);
  if (n == "poisson" || n == "exp") return TrafficKind::kPoisson;
  if (n == "cbr" || n == "constant") return TrafficKind::kCbr;
  if (n == "onoff" || n == "on-off" || n == "burst") return TrafficKind::kOnOff;
  if (n == "pareto") return TrafficKind::kPareto;
  if (n == "reqresp" || n == "req-resp" || n == "rpc") {
    return TrafficKind::kReqResp;
  }
  throw std::invalid_argument("unknown traffic model: " + std::string(name) +
                              " (known: " + csv(known_traffic_models()) + ")");
}

FlowPattern flow_pattern_from_string(std::string_view name) {
  const std::string n = util::lower(name);
  if (n == "random" || n == "pairs") return FlowPattern::kRandom;
  if (n == "sink" || n == "convergecast" || n == "many-to-one") {
    return FlowPattern::kSink;
  }
  if (n == "hotspot") return FlowPattern::kHotspot;
  if (n == "ring" || n == "cycle") return FlowPattern::kRing;
  throw std::invalid_argument("unknown flow pattern: " + std::string(name) +
                              " (known: " + csv(known_flow_patterns()) + ")");
}

const std::vector<std::string>& known_traffic_models() {
  static const std::vector<std::string> models = {"poisson", "cbr", "onoff",
                                                  "pareto", "reqresp"};
  return models;
}

const std::vector<std::string>& known_flow_patterns() {
  static const std::vector<std::string> patterns = {"random", "sink",
                                                    "hotspot", "ring"};
  return patterns;
}

TrafficConfig parse_traffic_spec(std::string_view spec, TrafficConfig base) {
  const auto parts = util::split_spec(spec, kDomain);
  base.model = traffic_kind_from_string(parts.head);
  for (const auto& [key, value] : parts.params) {
    apply_param(base, key, value);
  }
  return base;
}

std::vector<Flow> random_flows(std::size_t num_pairs, std::size_t num_nodes,
                               double pkts_per_s, sim::RandomStream& rng) {
  // Promoted from a debug assert: a Release build used to fall through to
  // uniform_int with an inverted range.  Fail loudly in every build type.
  // (Zero pairs stays valid — an empty flow set is the control-overhead-
  // only baseline it always was.)
  require_population(2 * num_pairs <= num_nodes, "random",
                     "two distinct endpoints per pair (2*pairs <= nodes)",
                     num_pairs, num_nodes);
  // Sample 2*num_pairs distinct terminals (partial Fisher-Yates), then pair
  // them up: source i talks to destination i.
  const auto ids = sample_distinct(2 * num_pairs, num_nodes, rng);
  std::vector<Flow> flows;
  flows.reserve(num_pairs);
  for (std::size_t i = 0; i < num_pairs; ++i) {
    flows.push_back(Flow{static_cast<std::uint32_t>(i), ids[2 * i],
                         ids[2 * i + 1], pkts_per_s});
  }
  return flows;
}

std::vector<Flow> make_flows(const TrafficConfig& cfg, std::size_t num_pairs,
                             std::size_t num_nodes, double pkts_per_s,
                             sim::RandomStream& rng) {
  std::vector<Flow> flows;
  if (num_pairs == 0) return flows;  // control-overhead-only baseline
  flows.reserve(num_pairs);
  switch (cfg.pattern) {
    case FlowPattern::kRandom:
      return random_flows(num_pairs, num_nodes, pkts_per_s, rng);
    case FlowPattern::kSink: {
      // ids[0] is the sink; every other sampled terminal sends to it.
      require_population(num_pairs + 1 <= num_nodes, "sink",
                         "pairs + 1 distinct terminals", num_pairs, num_nodes);
      const auto ids = sample_distinct(num_pairs + 1, num_nodes, rng);
      for (std::size_t i = 0; i < num_pairs; ++i) {
        flows.push_back(
            Flow{static_cast<std::uint32_t>(i), ids[i + 1], ids[0], pkts_per_s});
      }
      return flows;
    }
    case FlowPattern::kHotspot: {
      // The first k samples are the hotspots; sources share them round-robin.
      const std::size_t k = cfg.hotspots;
      require_population(k >= 1 && num_pairs + k <= num_nodes, "hotspot",
                         "pairs + hotspots distinct terminals", num_pairs,
                         num_nodes);
      const auto ids = sample_distinct(num_pairs + k, num_nodes, rng);
      for (std::size_t i = 0; i < num_pairs; ++i) {
        flows.push_back(Flow{static_cast<std::uint32_t>(i), ids[k + i],
                             ids[i % k], pkts_per_s});
      }
      return flows;
    }
    case FlowPattern::kRing: {
      // A random cycle: every sampled terminal is both a source and the
      // next terminal's destination, so discovery runs from both ends.
      require_population(num_pairs >= 2 && num_pairs <= num_nodes, "ring",
                         "at least 2 pairs and pairs <= nodes", num_pairs,
                         num_nodes);
      const auto ids = sample_distinct(num_pairs, num_nodes, rng);
      for (std::size_t i = 0; i < num_pairs; ++i) {
        flows.push_back(Flow{static_cast<std::uint32_t>(i), ids[i],
                             ids[(i + 1) % num_pairs], pkts_per_s});
      }
      return flows;
    }
  }
  throw std::invalid_argument("unknown flow pattern kind");
}

TrafficModel::TrafficModel(net::Network& network, std::vector<Flow> flows,
                           std::uint16_t packet_bytes, sim::Time stop,
                           sim::RandomStream rng)
    : network_(network),
      flows_(std::move(flows)),
      next_seq_(flows_.size(), 0),
      timers_(flows_.size()),
      packet_bytes_(packet_bytes),
      stop_(stop),
      rng_(std::move(rng)) {}

void TrafficModel::emit(std::size_t flow_idx, net::NodeId src, net::NodeId dst,
                        std::uint16_t bytes) {
  net::DataPacket pkt;
  pkt.flow = flows_[flow_idx].id;
  pkt.src = src;
  pkt.dst = dst;
  pkt.seq = next_seq_[flow_idx]++;
  pkt.gen_time = network_.simulator().now();
  pkt.size_bytes = bytes;
  network_.node(src).originate(std::move(pkt));
}

void OpenLoopTraffic::start() {
  for (std::size_t i = 0; i < flows_.size(); ++i) schedule_next(i);
}

std::uint16_t OpenLoopTraffic::next_packet_bytes(std::size_t) {
  return packet_bytes_;
}

void OpenLoopTraffic::schedule_next(std::size_t flow_idx) {
  const double gap_s = next_gap_s(flow_idx);
  const sim::Time at = network_.simulator().now() + sim::seconds_f(gap_s);
  if (at >= stop_) return;
  timers_[flow_idx].arm_at(network_.simulator(), at, [this, flow_idx] {
    const Flow& f = flows_[flow_idx];
    emit(flow_idx, f.src, f.dst, next_packet_bytes(flow_idx));
    schedule_next(flow_idx);
  });
}

std::unique_ptr<TrafficModel> make_traffic_model(
    const TrafficConfig& cfg, net::Network& network, std::vector<Flow> flows,
    std::uint16_t packet_bytes, sim::Time stop, sim::RandomStream rng) {
  switch (cfg.model) {
    case TrafficKind::kPoisson:
      return std::make_unique<PoissonTraffic>(network, std::move(flows),
                                              packet_bytes, stop,
                                              std::move(rng));
    case TrafficKind::kCbr:
      return std::make_unique<CbrTraffic>(network, std::move(flows),
                                          packet_bytes, stop, std::move(rng),
                                          cfg.cbr_jitter);
    case TrafficKind::kOnOff:
      return std::make_unique<OnOffTraffic>(network, std::move(flows),
                                            packet_bytes, stop, std::move(rng),
                                            cfg.on_mean_s, cfg.off_mean_s);
    case TrafficKind::kPareto:
      return std::make_unique<ParetoTraffic>(
          network, std::move(flows), packet_bytes, stop, std::move(rng),
          cfg.on_mean_s, cfg.off_mean_s, cfg.pareto_shape);
    case TrafficKind::kReqResp:
      return std::make_unique<ReqRespTraffic>(
          network, std::move(flows), packet_bytes, stop, std::move(rng),
          cfg.think_mean_s, cfg.timeout_s, cfg.request_bytes);
  }
  throw std::invalid_argument("unknown traffic model kind");
}

}  // namespace rica::traffic
