// rica_perfbench: the repository benchmark.
//
//   rica_perfbench --workload NAME --seed N --seconds S --trace 0|1
//   rica_perfbench --selftest
//
// Every run first replays each cell through harness::run_scenario (the
// reference outputs, and an untimed warm-up), then repeats the workload
// for S host seconds.  --trace 0 reports the end-to-end metrics with no
// instrumentation attached; --trace 1 alternates plain and decorated passes
// and reports the per-layer metrics.  Every measured cell is checked
// against its reference.  The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "compose.hpp"
#include "harness/scenario.hpp"
#include "layer_trace.hpp"
#include "workloads.hpp"

#ifndef RICA_PERFBENCH_BUILD_TYPE
#define RICA_PERFBENCH_BUILD_TYPE "unknown"
#endif
#if defined(__clang__)
#define RICA_PERFBENCH_COMPILER "clang " __clang_version__
#elif defined(__GNUC__)
#define RICA_PERFBENCH_COMPILER "gcc " __VERSION__
#else
#define RICA_PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

/// Set-up passes per run: setup_s is the median over at least this many.
constexpr std::size_t kSetupSamples = 15;

struct Metric {
  std::string name;
  std::string unit;
  std::string better;  ///< "lower" or "higher"
  double value = 0.0;
};
using Metrics = std::vector<Metric>;

void add(Metrics& m, std::string name, std::string unit, std::string better,
         double value) {
  if (!std::isfinite(value)) {
    throw std::runtime_error("metric " + name + " is not finite");
  }
  m.push_back({std::move(name), std::move(unit), std::move(better), value});
}

/// Linear-interpolated quantile, q in [0, 1].
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// True while one more pass of the mean length so far still ends within
/// `seconds` of `start`; the first pass always runs.
bool another_pass(Clock::time_point start, std::size_t passes,
                  double seconds) {
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - start).count();
  return elapsed + elapsed / static_cast<double>(passes) <= seconds;
}

// -- run context --------------------------------------------------------------

/// A fixed integer workload: its host time shows how fast this host ran
/// when the run started and ended.  Reported beside the metrics, never used
/// to scale them.
double calibration_ms() {
  const auto t0 = Clock::now();
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  std::uint64_t acc = 0;
  for (int i = 0; i < 40'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += x >> 61;
  }
  const double ms =
      std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
  if (acc == 0) std::printf("calibration checksum 0\n");  // keeps the loop
  return ms;
}

// -- checked cells ------------------------------------------------------------

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

std::vector<Reference> references(const Workload& w) {
  std::vector<Reference> refs;
  for (std::size_t i = 0; i < w.cells.size(); ++i) {
    const auto s = rica::harness::run_scenario(w.cells[i]);
    refs.push_back(reference_of(s));
    std::printf(
        "check %s cell %zu: hash=%016llx delivery=%.2f%% p95=%.3fms "
        "control_tx=%llu  [%s]\n",
        w.name.c_str(), i, static_cast<unsigned long long>(s.stream_hash),
        s.delivery_pct, s.delay_p95_ms,
        static_cast<unsigned long long>(s.control_transmissions),
        describe(w.cells[i]).c_str());
  }
  return refs;
}

/// One measured cell, checked against its reference.  nullopt when it
/// threw; a result that fails the check is returned and counted failed.
std::optional<CellResult> measured(const rica::harness::ScenarioConfig& cfg,
                                   const Reference& ref,
                                   const CellOptions& opt, Outcome& out) {
  ++out.attempted;
  try {
    auto r = run_cell(cfg, opt);
    const std::string err = check_cell(cfg, r, ref);
    if (!err.empty()) {
      ++out.failed;
      std::fprintf(stderr, "cell failed (%s): %s\n",
                   opt.trace ? "traced" : "plain", err.c_str());
    }
    return r;
  } catch (const std::exception& e) {
    ++out.failed;
    std::fprintf(stderr, "cell threw: %s\n", e.what());
    return std::nullopt;
  }
}

// -- end-to-end metrics (--trace 0) -------------------------------------------

Metrics end_to_end(const Workload& w, const std::vector<Reference>& refs,
                   double seconds, Outcome& out) {
  std::vector<double> wall, run, setup;
  double peak_sum = 0.0;  // per-cell peaks of the first pass
  const auto start = Clock::now();
  do {
    double rep_wall = 0.0, rep_run = 0.0, rep_setup = 0.0;
    for (std::size_t i = 0; i < w.cells.size(); ++i) {
      const auto r = measured(w.cells[i], refs[i], {}, out);
      if (!r) continue;
      rep_wall += r->times.wall_s;
      rep_run += r->times.run_s;
      rep_setup += r->times.setup_s();
      if (wall.empty()) {
        peak_sum += static_cast<double>(r->counters.peak_heap_bytes);
      }
    }
    wall.push_back(rep_wall);
    run.push_back(rep_run);
    setup.push_back(rep_setup);
  } while (another_pass(start, wall.size(), seconds));
  // Set-up is short, so it gets extra set-up-only passes for its median.
  while (setup.size() < kSetupSamples) {
    double rep_setup = 0.0;
    for (const auto& cfg : w.cells) {
      CellOptions opt;
      opt.setup_only = true;
      rep_setup += run_cell(cfg, opt).times.setup_s();
    }
    setup.push_back(rep_setup);
  }
  const auto spread = [](const char* name, const std::vector<double>& v) {
    std::printf("%-8s median=%.6f q1=%.6f q3=%.6f n=%zu\n", name, median(v),
                quantile(v, 0.25), quantile(v, 0.75), v.size());
  };
  spread("wall_s", wall);
  spread("run_s", run);
  std::printf("run_s per pass:");
  for (const double r : run) std::printf(" %.4f", r);
  std::printf("\n");
  spread("setup_s", setup);
  Metrics m;
  add(m, "wall_s", "s", "lower", median(wall));
  add(m, "run_s", "s", "lower", median(run));
  add(m, "setup_s", "s", "lower", median(setup));
  add(m, "peak_heap_mb", "MB", "lower",
      peak_sum / static_cast<double>(w.cells.size()) / 1e6);
  return m;
}

// -- per-layer metrics (--trace 1) --------------------------------------------

/// Deterministic per-pass tallies, summed over cells (gauges: max).
struct PassCounters {
  std::uint64_t events = 0, batched = 0, heap_fallbacks = 0, peak_pending = 0;
  std::uint64_t live_pairs = 0, index_rebuilds = 0, pool_high_water = 0;
  std::uint64_t setup_allocs = 0, run_allocs = 0;
  std::uint64_t control_tx = 0, collisions = 0, generated = 0, delivered = 0;
  std::array<std::uint64_t, rica::stats::kNumDropReasons> drops{};
  double table_load = 0.0, control_bytes = 0.0;

  void fold(const CellResult& r) {
    const auto& c = r.counters;
    events += c.events;
    batched += c.batched_fires;
    heap_fallbacks += c.heap_fallbacks;
    peak_pending = std::max(peak_pending, c.peak_pending);
    live_pairs = std::max(live_pairs, c.live_pairs);
    index_rebuilds += c.index_rebuilds;
    pool_high_water = std::max(pool_high_water, c.pool_high_water);
    setup_allocs += c.setup_allocs;
    run_allocs += c.run_allocs;
    table_load = std::max(table_load, c.table_load);
    control_bytes += c.control_bytes_on_air;
    const auto& s = r.summary;
    control_tx += s.control_transmissions;
    collisions += s.control_collisions;
    generated += s.generated;
    delivered += s.delivered;
    for (std::size_t i = 0; i < drops.size(); ++i) drops[i] += s.drops[i];
  }
};

Metrics per_layer(const Workload& w, const std::vector<Reference>& refs,
                  double seconds, Outcome& out) {
  std::vector<PhaseTimes> plain;  // per pass, summed over cells
  std::vector<double> traced_run, slices;
  PassCounters counters;
  LayerTrace trace;
  ChannelProbe probe;
  std::size_t traced_passes = 0;
  const auto start = Clock::now();
  do {
    PhaseTimes pass;
    PassCounters pass_counters;
    for (std::size_t i = 0; i < w.cells.size(); ++i) {
      const auto r = measured(w.cells[i], refs[i], {}, out);
      if (!r) continue;
      const auto& t = r->times;
      pass.network_s += t.network_s;
      pass.protocols_s += t.protocols_s;
      pass.flows_s += t.flows_s;
      pass.start_s += t.start_s;
      pass.run_s += t.run_s;
      pass.finalize_s += t.finalize_s;
      pass.teardown_s += t.teardown_s;
      slices.insert(slices.end(), r->slice_ms.begin(), r->slice_ms.end());
      pass_counters.fold(*r);
    }
    plain.push_back(pass);
    counters = pass_counters;

    double run = 0.0;
    for (std::size_t i = 0; i < w.cells.size(); ++i) {
      LayerTrace cell_trace;
      CellOptions opt;
      opt.trace = &cell_trace;
      const auto r = measured(w.cells[i], refs[i], opt, out);
      if (!r) continue;
      trace.merge(cell_trace);
      run += r->times.run_s;
      probe.neighbors_calls += r->probe.neighbors_calls;
      probe.neighbors_ns += r->probe.neighbors_ns;
      probe.sample_calls += r->probe.sample_calls;
      probe.sample_ns += r->probe.sample_ns;
    }
    traced_run.push_back(run);
    ++traced_passes;
  } while (another_pass(start, traced_passes, seconds));

  const auto phase = [&plain](double PhaseTimes::*field) {
    std::vector<double> v;
    for (const auto& p : plain) v.push_back(p.*field);
    return median(v);
  };
  const double plain_run = phase(&PhaseTimes::run_s);
  double traced_run_total = 0.0;
  for (const double r : traced_run) traced_run_total += r;
  const auto passes = static_cast<double>(traced_passes);
  const auto& c = counters;

  Metrics m;
  add(m, "harness.setup.network_s", "s", "lower",
      phase(&PhaseTimes::network_s));
  add(m, "harness.setup.protocols_s", "s", "lower",
      phase(&PhaseTimes::protocols_s));
  add(m, "harness.setup.flows_s", "s", "lower", phase(&PhaseTimes::flows_s));
  add(m, "harness.setup.start_s", "s", "lower", phase(&PhaseTimes::start_s));
  add(m, "harness.teardown_s", "s", "lower", phase(&PhaseTimes::teardown_s));
  add(m, "mem.setup_allocs", "count", "lower",
      static_cast<double>(c.setup_allocs));
  add(m, "stats.finalize_s", "s", "lower", phase(&PhaseTimes::finalize_s));

  add(m, "sim.events", "count", "lower", static_cast<double>(c.events));
  add(m, "sim.ns_per_event", "ns", "lower",
      ratio(plain_run * 1e9, static_cast<double>(c.events)));
  add(m, "sim.peak_pending", "count", "lower",
      static_cast<double>(c.peak_pending));
  add(m, "sim.batched_frac", "fraction", "higher",
      ratio(static_cast<double>(c.batched), static_cast<double>(c.events)));
  add(m, "sim.heap_fallbacks", "count", "lower",
      static_cast<double>(c.heap_fallbacks));
  add(m, "sim.slice_ms.p50", "ms", "lower", quantile(slices, 0.5));
  add(m, "sim.slice_ms.p90", "ms", "lower", quantile(slices, 0.9));

  // Routing handlers: calls per pass and self time per pass.
  const auto handler = [&](const std::string& name,
                           const LayerTrace::Totals& t) {
    add(m, name + ".calls", "count", "lower",
        static_cast<double>(t.calls) / passes);
    add(m, name + ".self_ns", "ns", "lower",
        static_cast<double>(t.self_ns) / passes);
  };
  handler("routing.handle_data", trace.totals(Span::kHandleData));
  std::uint64_t rx_ok = 0;
  std::int64_t routing_self = trace.totals(Span::kHandleData).self_ns +
                              trace.totals(Span::kOnLinkBreak).self_ns;
  for (std::size_t slot = 0; slot < kControlTypes; ++slot) {
    handler("routing.on_control." + std::string(control_type_names()[slot]),
            trace.control(slot));
    rx_ok += trace.control(slot).calls;
    routing_self += trace.control(slot).self_ns;
  }
  handler("routing.on_link_break", trace.totals(Span::kOnLinkBreak));
  const double traced_ns = traced_run_total * 1e9;
  add(m, "routing.self_frac", "fraction", "lower",
      ratio(static_cast<double>(routing_self), traced_ns));
  add(m, "routing.host_frac", "fraction", "lower",
      ratio(static_cast<double>(trace.top_level_ns() - routing_self),
            traced_ns));
  add(m, "routing.timer_host.calls", "count", "lower",
      static_cast<double>(trace.timer_host().calls) / passes);
  add(m, "routing.timer_host.ns", "ns", "lower",
      static_cast<double>(trace.timer_host().incl_ns) / passes);

  // Host services: calls per pass and inclusive ns per call.
  const auto service = [&](const std::string& name, Span span,
                           bool with_time) {
    const auto& t = trace.totals(span);
    add(m, name + ".calls", "count", "lower",
        static_cast<double>(t.calls) / passes);
    if (with_time) {
      add(m, name + ".ns_per_call", "ns", "lower",
          ratio(static_cast<double>(t.incl_ns), static_cast<double>(t.calls)));
    }
  };
  service("channel.csi", Span::kLinkCsi, true);
  service("channel.neighbors", Span::kNeighbors, true);
  add(m, "channel.live_pairs", "count", "lower",
      static_cast<double>(c.live_pairs));
  add(m, "channel.index_rebuilds", "count", "lower",
      static_cast<double>(c.index_rebuilds));
  add(m, "channel.probe.neighbors_of_ns", "ns", "lower",
      ratio(static_cast<double>(probe.neighbors_ns),
            static_cast<double>(probe.neighbors_calls)));
  add(m, "channel.probe.sample_ns", "ns", "lower",
      ratio(static_cast<double>(probe.sample_ns),
            static_cast<double>(probe.sample_calls)));

  service("mac.enqueue", Span::kSendControl, true);
  add(m, "mac.control_tx", "count", "lower", static_cast<double>(c.control_tx));
  add(m, "mac.collided_rx", "count", "lower",
      static_cast<double>(c.collisions));
  const double ok_per_pass = static_cast<double>(rx_ok) / passes;
  add(m, "mac.rx_ok_frac", "fraction", "higher",
      ratio(ok_per_pass, ok_per_pass + static_cast<double>(c.collisions)));
  add(m, "mac.control_bytes_on_air", "bytes", "lower", c.control_bytes);
  service("mac.forward", Span::kForward, true);
  service("mac.drain", Span::kDrain, false);
  add(m, "mac.pool_high_water", "count", "lower",
      static_cast<double>(c.pool_high_water));

  service("net.deliver", Span::kDeliver, true);
  service("net.drop", Span::kDrop, false);
  for (std::size_t i = 0; i < c.drops.size(); ++i) {
    add(m,
        "net.drops." + std::string(rica::stats::to_string(
                           static_cast<rica::stats::DropReason>(i))),
        "count", "lower", static_cast<double>(c.drops[i]));
  }
  add(m, "traffic.generated", "count", "higher",
      static_cast<double>(c.generated));
  add(m, "traffic.delivered", "count", "higher",
      static_cast<double>(c.delivered));
  add(m, "mem.run_allocs_per_event", "count", "lower",
      ratio(static_cast<double>(c.run_allocs), static_cast<double>(c.events)));
  add(m, "mem.table_load", "fraction", "lower", c.table_load);

  add(m, "residual.frac", "fraction", "lower",
      ratio(traced_ns - static_cast<double>(trace.top_level_ns()), traced_ns));
  add(m, "trace.overhead_frac", "fraction", "lower",
      ratio(median(traced_run), plain_run) - 1.0);
  std::printf("traced passes=%zu plain run_s=%.6f traced run_s=%.6f\n",
              traced_passes, plain_run, median(traced_run));
  return m;
}

// -- output -------------------------------------------------------------------

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(const Metrics& m, const Outcome& out) {
  for (const auto& x : m) {
    std::printf("metric %-40s %22.9f %-8s (%s is better)\n", x.name.c_str(),
                x.value, x.unit.c_str(), x.better.c_str());
  }
  std::string json = "{\"correct\": ";
  json += out.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < m.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + m[i].name + "\": {\"value\": " + json_number(m[i].value) +
            ", \"unit\": \"" + m[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

/// Metric names, units and directions as one JSON line (the self-test's
/// input for the BENCHMARK.json cross-check).
void print_catalog(const std::string& label, const Metrics& m) {
  std::string json = "selftest-catalog " + label + " [";
  for (std::size_t i = 0; i < m.size(); ++i) {
    if (i > 0) json += ", ";
    json += "{\"name\": \"" + m[i].name + "\", \"unit\": \"" + m[i].unit +
            "\", \"better\": \"" + m[i].better + "\"}";
  }
  std::printf("%s]\n", json.c_str());
}

int run_workload(const std::string& name, std::uint64_t seed, double seconds,
                 bool traced) {
  const double calib_before = calibration_ms();
  const Workload w = make_workload(name, seed);
  const auto refs = references(w);
  Outcome out;
  const Metrics m = traced ? per_layer(w, refs, seconds, out)
                           : end_to_end(w, refs, seconds, out);
  const double calib_after = calibration_ms();
  std::printf(
      "{\"context\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"cells\": %zu, \"build_type\": \"%s\", "
      "\"compiler\": \"%s\", \"nproc\": %u, \"calibration_ms_before\": %.3f, "
      "\"calibration_ms_after\": %.3f}}\n",
      name.c_str(), static_cast<unsigned long long>(seed), seconds,
      traced ? 1 : 0, w.cells.size(), RICA_PERFBENCH_BUILD_TYPE,
      RICA_PERFBENCH_COMPILER, std::thread::hardware_concurrency(),
      calib_before, calib_after);
  print_result(m, out);
  return 0;
}

// -- self-test ----------------------------------------------------------------

/// Tiny cells covering every protocol, the link-state topology install, a
/// warmup window and non-default traffic (closed-loop request/response
/// re-enters the routing layer from inside deliver_local).
std::vector<rica::harness::ScenarioConfig> selftest_cells() {
  std::vector<rica::harness::ScenarioConfig> cells;
  for (const auto protocol : rica::harness::kAllProtocols) {
    rica::harness::ScenarioConfig cfg;
    cfg.protocol = protocol;
    cfg.num_nodes = 20;
    cfg.field_m = 600.0;
    cfg.num_pairs = 4;
    cfg.sim_s = 4.0;
    cfg.seed = 7;
    cells.push_back(cfg);
  }
  auto warm = cells[1];
  warm.warmup_s = 1.5;
  cells.push_back(warm);
  auto reqresp = cells[0];
  reqresp.traffic = "reqresp:think=0.2";
  cells.push_back(reqresp);
  auto onoff = cells[3];
  onoff.traffic = "onoff:on=0.5,off=0.5,pattern=sink";
  onoff.mean_speed_kmh = 0.0;
  cells.push_back(onoff);
  auto still_ls = cells[4];
  still_ls.mean_speed_kmh = 0.0;
  cells.push_back(still_ls);
  return cells;
}

int selftest() {
  int failures = 0;
  for (const auto& cfg : selftest_cells()) {
    const Reference ref = reference_of(rica::harness::run_scenario(cfg));
    LayerTrace trace;
    CellOptions traced;
    traced.trace = &trace;
    const std::string plain_err = check_cell(cfg, run_cell(cfg, {}), ref);
    const std::string traced_err = check_cell(cfg, run_cell(cfg, traced), ref);
    const bool spans = trace.totals(Span::kHandleData).calls > 0 &&
                       trace.top_level_ns() > 0;
    const bool ok = plain_err.empty() && traced_err.empty() && spans;
    failures += ok ? 0 : 1;
    std::printf("selftest cell %s: %s%s%s%s\n", describe(cfg).c_str(),
                ok ? "ok" : "FAIL", plain_err.empty() ? "" : " plain: ",
                plain_err.c_str(),
                traced_err.empty() ? (spans ? "" : " no spans recorded")
                                   : (" traced: " + traced_err).c_str());
  }
  // Every named metric is emitted: each workload at a shrunken duration,
  // one pass per mode.
  for (const auto& name : workload_names()) {
    const Workload w = make_workload(name, 1, 0.25);
    const auto refs = references(w);
    for (const bool traced : {false, true}) {
      Outcome out;
      const Metrics m =
          traced ? per_layer(w, refs, 0.0, out) : end_to_end(w, refs, 0.0, out);
      failures += out.failed > 0 ? 1 : 0;
      print_catalog(name + (traced ? " per_layer" : " end_to_end"), m);
    }
  }
  std::printf("selftest: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: rica_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1\n       rica_perfbench --selftest\n",
               why);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr,
               "error: rica_perfbench built without NDEBUG; timings need a "
               "Release build\n");
  return 2;
#endif
  if (std::strcmp(RICA_PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr,
                 "error: rica_perfbench build type is %s, not Release\n",
                 RICA_PERFBENCH_BUILD_TYPE);
    return 2;
  }
  try {
    if (argc == 2 && std::strcmp(argv[1], "--selftest") == 0) {
      return perfbench::selftest();
    }
    std::string workload;
    std::optional<std::uint64_t> seed;
    std::optional<double> seconds;
    std::optional<int> trace;
    for (int i = 1; i + 1 < argc; i += 2) {
      const std::string key = argv[i];
      const std::string value = argv[i + 1];
      if (key == "--workload") {
        workload = value;
      } else if (key == "--seed") {
        seed = std::stoull(value);
      } else if (key == "--seconds") {
        seconds = std::stod(value);
      } else if (key == "--trace") {
        trace = std::stoi(value);
      } else {
        return perfbench::usage(("unknown flag " + key).c_str());
      }
    }
    if (argc % 2 == 0) return perfbench::usage("every flag takes a value");
    if (workload.empty() || !seed || !seconds || !trace) {
      return perfbench::usage("--workload, --seed, --seconds, --trace needed");
    }
    if (*seconds <= 0.0 || (*trace != 0 && *trace != 1)) {
      return perfbench::usage("--seconds must be > 0 and --trace 0 or 1");
    }
    return perfbench::run_workload(workload, *seed, *seconds, *trace == 1);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
