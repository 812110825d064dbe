// One benchmark cell: a scenario built and run through the library's public
// API in the order harness::run_scenario uses (observability off), with
// each phase timed from outside:
//
//   network   net::Network construction
//   protocols Node::set_protocol on every node, plus the link-state t = 0
//             topology install
//   flows     the warmup epoch-reset event and t = 0-connected flow choice
//             through traffic::make_flows
//   start     traffic::make_traffic_model, Network::start, generator start
//   run       Simulator::run_until, in kSlices equal slices of sim time
//   finalize  MetricsCollector::finalize
//   teardown  destruction of the generator and the network
//
// With a LayerTrace attached, every protocol is wrapped in the timing
// decorators of layer_trace.hpp.  Neither path changes the event stream:
// check_cell() compares each cell with harness::run_scenario.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "harness/scenario.hpp"
#include "layer_trace.hpp"
#include "stats/metrics.hpp"

namespace perfbench {

/// run_until slices per cell (the sim.slice_ms distribution).
inline constexpr int kSlices = 100;

/// Host seconds per phase.
struct PhaseTimes {
  double network_s = 0.0;
  double protocols_s = 0.0;
  double flows_s = 0.0;
  double start_s = 0.0;
  double run_s = 0.0;
  double finalize_s = 0.0;
  double teardown_s = 0.0;
  double wall_s = 0.0;  ///< config to destroyed network, all phases

  [[nodiscard]] double setup_s() const {
    return network_s + protocols_s + flows_s + start_s;
  }
};

/// Public counters read after the run, before teardown.
struct CellCounters {
  std::uint64_t events = 0;
  std::uint64_t batched_fires = 0;
  std::uint64_t heap_fallbacks = 0;
  std::uint64_t peak_pending = 0;
  std::uint64_t live_pairs = 0;
  std::uint64_t index_rebuilds = 0;
  std::uint64_t pool_high_water = 0;
  double table_load = 0.0;
  double control_bytes_on_air = 0.0;
  std::uint64_t setup_allocs = 0;
  std::uint64_t run_allocs = 0;
  std::uint64_t peak_heap_bytes = 0;  ///< above the live size at cell start
};

/// Post-run timings of the public ChannelModel queries on the cell's own
/// network (the calls the MAC and data plane make internally).
struct ChannelProbe {
  std::uint64_t neighbors_calls = 0;
  std::int64_t neighbors_ns = 0;
  std::uint64_t sample_calls = 0;
  std::int64_t sample_ns = 0;
};

struct CellResult {
  rica::stats::MetricsSummary summary;
  PhaseTimes times;
  CellCounters counters;
  std::array<double, kSlices> slice_ms{};
  ChannelProbe probe;
};

struct CellOptions {
  /// When set: decorate every protocol, and probe the channel after
  /// finalize (a decorated cell's timings are per-layer, never end-to-end).
  LayerTrace* trace = nullptr;
  bool setup_only = false;  ///< stop after start(), skip run/finalize
};

/// Builds, runs and destroys one cell.  Throws what the library throws.
[[nodiscard]] CellResult run_cell(const rica::harness::ScenarioConfig& cfg,
                                  const CellOptions& opt);

/// The outputs a cell must reproduce, from harness::run_scenario.
struct Reference {
  std::uint64_t stream_hash = 0;
  std::uint64_t generated = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t control_transmissions = 0;
};
[[nodiscard]] Reference reference_of(const rica::stats::MetricsSummary& s);

/// Empty when `got` matches `want` and the summary invariants hold
/// (dropped equals the per-reason sum, no heap-fallback closures, something
/// delivered, and without a warmup window delivered + dropped <= generated);
/// otherwise the first violation.  With a warmup, packets generated before
/// the window opens may be delivered or dropped inside it, so conservation
/// is not an invariant of such a cell.
[[nodiscard]] std::string check_cell(const rica::harness::ScenarioConfig& cfg,
                                     const CellResult& got,
                                     const Reference& want);

}  // namespace perfbench
