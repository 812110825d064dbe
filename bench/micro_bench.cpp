// Engine micro-benchmarks (google-benchmark): event queue, channel sampling,
// mobility evaluation, the flood history table, Dijkstra, and a full-stack
// end-to-end run.  Not a paper figure — these guard the simulator's
// performance so the paper-scale sweeps (25 trials x 500 s x 5 protocols)
// stay tractable.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "channel/channel_model.hpp"
#include "harness/flags.hpp"
#include "harness/scenario.hpp"
#include "harness/sweep.hpp"
#include "mac/common_channel.hpp"
#include "mobility/mobility_model.hpp"
#include "net/packet.hpp"
#include "routing/tables.hpp"
#include "sim/event_engine.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "stats/metrics.hpp"

namespace {

using namespace rica;

/// Field side for a population, taken from the scenario preset with that
/// population (paper/dense-urban/large-scale) so bench density tracks any
/// preset retuning.
double field_for(std::int64_t num_nodes) {
  for (const auto& preset : harness::scenario_presets()) {
    if (preset.num_nodes == static_cast<std::size_t>(num_nodes)) {
      return preset.field_m;
    }
  }
  return 1000.0;
}

// -- event-kernel benchmarks -------------------------------------------------
// The slab-backed timing wheel on a mixed-delay schedule/pop workload (64
// events in flight, delays spread over the protocol stack's 0..1 ms range)
// and on the Timer rearm churn pattern.  These rows are the perf-regression
// guard's inputs (scripts/check_bench_regression.py vs BENCH_scale.json).

void BM_EventEngineScheduleAndPop(benchmark::State& state) {
  sim::EventEngine q;
  sim::RandomStream rng(1);
  std::int64_t t = 0;
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) {
      q.schedule(sim::Time{t + rng.uniform_int(0, 1'000'000)}, [] {});
    }
    for (int i = 0; i < 64; ++i) {
      auto fired = q.fire_next();
      t = fired.at.nanos();
      benchmark::DoNotOptimize(fired.id);
    }
  }
  state.SetItemsProcessed(state.iterations() * 128);
}
BENCHMARK(BM_EventEngineScheduleAndPop);

// Cancel-heavy churn: the protocol stack's Timer rearm pattern (schedule,
// cancel, schedule again).  The wheel unlinks in O(1) and recycles the slot.

void BM_EventEngineCancelChurn(benchmark::State& state) {
  sim::EventEngine q;
  sim::RandomStream rng(3);
  std::int64_t t = 0;
  for (auto _ : state) {
    for (int i = 0; i < 32; ++i) {
      const auto id =
          q.schedule(sim::Time{t + rng.uniform_int(0, 1'000'000)}, [] {});
      q.cancel(id);
      q.schedule(sim::Time{t + rng.uniform_int(0, 1'000'000)}, [] {});
    }
    for (int i = 0; i < 32; ++i) t = q.fire_next().at.nanos();
  }
  state.SetItemsProcessed(state.iterations() * 96);
}
BENCHMARK(BM_EventEngineCancelChurn);

void BM_SimulatorTimerChain(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    int count = 0;
    std::function<void()> tick = [&] {
      if (++count < 1000) sim.after(sim::microseconds(10), tick);
    };
    sim.after(sim::microseconds(10), tick);
    sim.run_until(sim::seconds(1));
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimulatorTimerChain);

void BM_MobilityPositionQuery(benchmark::State& state) {
  sim::RngManager rng(7);
  mobility::MobilityConfig cfg;
  cfg.max_speed_mps = 20.0;
  mobility::MobilityManager mgr(50, cfg, rng);
  std::int64_t t = 0;
  for (auto _ : state) {
    t += 1'000'000;  // 1 ms forward
    for (std::uint32_t n = 0; n < 50; ++n) {
      benchmark::DoNotOptimize(mgr.position(n, sim::Time{t}));
    }
  }
  state.SetItemsProcessed(state.iterations() * 50);
}
BENCHMARK(BM_MobilityPositionQuery);

// Per-model snapshot() cost at the neighbor index's rebuild cadence
// (250 ms epochs, 200 nodes): what one index rebuild pays for mobility
// evaluation under each trajectory model.
void BM_MobilitySnapshot(benchmark::State& state, const char* spec) {
  sim::RngManager rng(7);
  auto cfg = mobility::parse_mobility_spec(spec);
  cfg.max_speed_mps = 20.0;
  mobility::MobilityManager mgr(200, cfg, rng);
  std::vector<mobility::Vec2> out;
  std::int64_t t = 0;
  for (auto _ : state) {
    t += 250'000'000;  // one rebuild epoch forward
    mgr.snapshot(sim::Time{t}, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * 200);
}
BENCHMARK_CAPTURE(BM_MobilitySnapshot, waypoint, "waypoint");
BENCHMARK_CAPTURE(BM_MobilitySnapshot, walk, "walk");
BENCHMARK_CAPTURE(BM_MobilitySnapshot, gauss_markov, "gauss-markov");
BENCHMARK_CAPTURE(BM_MobilitySnapshot, group, "group");
BENCHMARK_CAPTURE(BM_MobilitySnapshot, manhattan, "manhattan");

void BM_ChannelSample(benchmark::State& state) {
  sim::RngManager rng(11);
  mobility::MobilityConfig wcfg;
  wcfg.max_speed_mps = 10.0;
  mobility::MobilityManager mgr(50, wcfg, rng);
  channel::ChannelModel channel(channel::ChannelConfig{}, mgr, rng);
  std::int64_t t = 0;
  std::uint32_t a = 0;
  for (auto _ : state) {
    t += 100'000;  // 0.1 ms
    a = (a + 1) % 49;
    benchmark::DoNotOptimize(channel.sample(a, a + 1, sim::Time{t}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ChannelSample);

// Fading samples at metro density (500 nodes over 3 km², ~33 neighbours
// each).  BM_ChannelSample cycles 49 pairs, so its pair table stays in
// cache; this cycles every in-range pair of the network, as a metro run's
// RREQ floods do.  Every 4th pass starts a fresh model over the pairs in
// range at that moment, so a quarter of the samples are first contacts
// (table miss plus stream creation).  Only the samples are timed.
void BM_ChannelSampleMetro(benchmark::State& state) {
  const auto& metro = harness::find_preset("metro");
  sim::RngManager rng(17);
  mobility::MobilityConfig wcfg;
  wcfg.field = mobility::Field{metro.field_m, metro.field_m};
  wcfg.max_speed_mps = 10.0;
  mobility::MobilityManager mgr(metro.num_nodes, wcfg, rng);
  std::unique_ptr<channel::ChannelModel> channel;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  std::int64_t t = 0;
  const auto fresh_model = [&] {
    channel = std::make_unique<channel::ChannelModel>(channel::ChannelConfig{},
                                                      mgr, rng);
    pairs.clear();
    std::vector<std::uint32_t> nbrs;
    for (std::uint32_t a = 0; a < metro.num_nodes; ++a) {
      channel->neighbors_of(a, sim::Time{t}, nbrs);
      for (const auto b : nbrs) {
        if (a < b) pairs.emplace_back(a, b);
      }
    }
  };
  fresh_model();
  std::size_t next = 0;
  int pass = 0;
  for (auto _ : state) {
    if (next == pairs.size()) {
      next = 0;
      if (++pass % 4 == 0) {
        state.PauseTiming();
        fresh_model();
        state.ResumeTiming();
      }
    }
    t += 10'000;  // 10 us: a pass moves nodes ~1 m
    const auto [a, b] = pairs[next++];
    benchmark::DoNotOptimize(channel->sample(a, b, sim::Time{t}));
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["pairs"] = static_cast<double>(pairs.size());
}
BENCHMARK(BM_ChannelSampleMetro);

// One relay's flood history table at metro scale: a 6 s metro RICA run
// records ~170k floods over 500 nodes, ~340 per node.  The floods come from
// random origins with each origin's bids counting up, as in a run.
constexpr int kFloodsPerNode = 340;

std::vector<std::pair<net::NodeId, std::uint32_t>> metro_floods() {
  sim::RandomStream rng(23);
  std::vector<std::uint32_t> next_bid(500, 1);
  std::vector<std::pair<net::NodeId, std::uint32_t>> floods;
  for (int i = 0; i < kFloodsPerNode; ++i) {
    const auto origin = static_cast<net::NodeId>(rng.uniform_int(0, 499));
    floods.emplace_back(origin, next_bid[origin]++);
  }
  return floods;
}

// First copies: a fresh table records every flood (growth included).
void BM_HistoryTableRecord(benchmark::State& state) {
  const auto floods = metro_floods();
  for (auto _ : state) {
    routing::HistoryTable h;
    for (const auto& [origin, bid] : floods) {
      benchmark::DoNotOptimize(h.record(origin, bid, 1, origin));
    }
  }
  state.SetItemsProcessed(state.iterations() * kFloodsPerNode);
}
BENCHMARK(BM_HistoryTableRecord);

// Duplicate copies: the history-first lookup a relay makes before it would
// measure the link, against a table holding every flood.
void BM_HistoryTableDuplicate(benchmark::State& state) {
  const auto floods = metro_floods();
  routing::HistoryTable h;
  for (const auto& [origin, bid] : floods) h.record(origin, bid, 1, origin);
  std::size_t next = 0;
  for (auto _ : state) {
    const auto& [origin, bid] = floods[next];
    next = next + 1 == floods.size() ? 0 : next + 1;
    benchmark::DoNotOptimize(h.seen(origin, bid, 1));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HistoryTableDuplicate);

void BM_NeighborScan(benchmark::State& state) {
  sim::RngManager rng(13);
  mobility::MobilityConfig wcfg;
  wcfg.max_speed_mps = 10.0;
  mobility::MobilityManager mgr(50, wcfg, rng);
  channel::ChannelModel channel(channel::ChannelConfig{}, mgr, rng);
  std::int64_t t = 0;
  for (auto _ : state) {
    t += 1'000'000;
    benchmark::DoNotOptimize(channel.neighbors_of(0, sim::Time{t}));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NeighborScan);

// Neighbor query scaling: the spatial grid index vs the brute-force O(N)
// scan, at 50/200/500 nodes (paper / dense-urban / large-scale densities).
// The scale-out acceptance bar is >=5x at 500 nodes (BENCH_scale.json).
void neighbor_query_bench(benchmark::State& state, bool use_index) {
  const std::int64_t n = state.range(0);
  sim::RngManager rng(13);
  mobility::MobilityConfig wcfg;
  wcfg.field = mobility::Field{field_for(n), field_for(n)};
  wcfg.max_speed_mps = 10.0;
  mobility::MobilityManager mgr(static_cast<std::size_t>(n), wcfg, rng);
  channel::ChannelConfig ccfg;
  ccfg.use_neighbor_index = use_index;
  channel::ChannelModel channel(ccfg, mgr, rng);
  std::int64_t t = 0;
  std::uint32_t node = 0;
  for (auto _ : state) {
    t += 1'000'000;  // 1 ms forward: amortizes index rebuilds as a run does
    node = (node + 1) % static_cast<std::uint32_t>(n);
    benchmark::DoNotOptimize(
        use_index ? channel.neighbors_of(node, sim::Time{t})
                  : channel.neighbors_of_bruteforce(node, sim::Time{t}));
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_NeighborQueryGrid(benchmark::State& state) {
  neighbor_query_bench(state, /*use_index=*/true);
}
BENCHMARK(BM_NeighborQueryGrid)->Arg(50)->Arg(200)->Arg(500);

void BM_NeighborQueryBrute(benchmark::State& state) {
  neighbor_query_bench(state, /*use_index=*/false);
}
BENCHMARK(BM_NeighborQueryBrute)->Arg(50)->Arg(200)->Arg(500);

// The common-channel broadcast plane: range(0)+1 co-located nodes, so every
// broadcast reaches range(0) receivers.  Each iteration queues one RREQ at
// each of four rotating senders and runs 40 ms: carrier sense serializes
// them (three defer and back off), and every frame's start and end touch
// each receiver's on-air state.  Items are receptions.
void BM_CommonChannelFlood(benchmark::State& state) {
  const auto receivers = static_cast<net::NodeId>(state.range(0));
  const net::NodeId n = receivers + 1;
  sim::RngManager rng(17);
  mobility::MobilityConfig wcfg;
  wcfg.field = mobility::Field{100.0, 100.0};
  wcfg.max_speed_mps = 0.0;
  mobility::MobilityManager mgr(n, wcfg, rng);
  channel::ChannelModel channel(channel::ChannelConfig{}, mgr, rng);
  sim::Simulator sim;
  stats::MetricsCollector metrics;
  mac::CommonChannelMac mac(sim, channel, rng, metrics, {});
  std::int64_t received = 0;
  for (net::NodeId id = 0; id < n; ++id) {
    mac.register_node(id, [&received](const net::ControlPacket&,
                                      net::NodeId) { ++received; });
  }
  const auto rreq = net::make_control(net::kBroadcastId, net::RreqMsg{});
  net::NodeId sender = 0;
  for (auto _ : state) {
    for (int k = 0; k < 4; ++k) {
      mac.send(sender, rreq);
      sender = (sender + 1) % n;
    }
    sim.run_until(sim.now() + sim::milliseconds(40));
  }
  state.SetItemsProcessed(received);
}
BENCHMARK(BM_CommonChannelFlood)->Arg(8)->Arg(32)->Arg(64);

void BM_FullStackScenario(benchmark::State& state) {
  // One second of simulated network per iteration, full 50-node stack.
  const auto proto = static_cast<harness::ProtocolKind>(state.range(0));
  for (auto _ : state) {
    harness::ScenarioConfig cfg;
    cfg.protocol = proto;
    cfg.sim_s = 1.0;
    cfg.mean_speed_kmh = 36.0;
    const auto r = harness::run_scenario(cfg);
    benchmark::DoNotOptimize(r.delivered);
  }
}
BENCHMARK(BM_FullStackScenario)
    ->DenseRange(0, 4)
    ->Unit(benchmark::kMillisecond);

// The contention-heavy end-to-end row: one second of the dense-urban preset
// (200 nodes / 1 km², RICA).  This is where batch-firing and the pooled/flat
// memory paths earn their keep, and a key perf-regression-guard input.
void BM_FullStackDenseUrban(benchmark::State& state) {
  for (auto _ : state) {
    harness::ScenarioConfig cfg = harness::preset_config("dense-urban");
    cfg.sim_s = 1.0;
    const auto r = harness::run_scenario(cfg);
    benchmark::DoNotOptimize(r.delivered);
  }
}
BENCHMARK(BM_FullStackDenseUrban)->Unit(benchmark::kMillisecond);

// Sweep throughput: the 5-protocol grid slice at two speeds, on `range(0)`
// worker threads.  Measures the parallel harness's wall-clock scaling, so
// real time (not CPU time) is the meaningful axis.
void BM_SweepThroughput(benchmark::State& state) {
  harness::BenchScale scale{};
  scale.trials = 1;
  scale.sim_s = 1.0;
  scale.seed = 1;
  scale.threads = static_cast<int>(state.range(0));
  scale.verbose = false;
  const std::vector<double> speeds{0.0, 36.0};
  const std::vector<double> loads{10.0};
  for (auto _ : state) {
    const auto grid = harness::run_speed_sweep(speeds, loads, scale);
    benchmark::DoNotOptimize(grid.size());
  }
  state.SetItemsProcessed(state.iterations() * speeds.size() * loads.size() *
                          harness::kAllProtocols.size());
}
BENCHMARK(BM_SweepThroughput)
    ->Arg(1)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// City-scale full stack: the metro preset (500 nodes / 3 km²) for 0.5 s of
// sim time.  Throughput is kernel events per wall-clock second
// (UseRealTime).  The single row keeps its historical `/0` argument so its
// name matches the committed baseline in BENCH_scale.json.
void BM_CityScaleKernel(benchmark::State& state) {
  std::uint64_t events = 0;
  for (auto _ : state) {
    harness::ScenarioConfig cfg = harness::preset_config("metro");
    cfg.sim_s = 0.5;
    const auto r = harness::run_scenario(cfg);
    events += static_cast<std::uint64_t>(r.stat("kernel.events_executed"));
    benchmark::DoNotOptimize(r.delivered);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_CityScaleKernel)
    ->Arg(0)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

// Custom main: stamp the *simulator's* build type into the benchmark
// context.  google-benchmark's own "library_build_type" field reports how
// the system libbenchmark was compiled (debug on some distro packages),
// which says nothing about rica_core's optimization level; the regression
// guard keys off this marker and refuses debug numbers.
int main(int argc, char** argv) {
#ifdef NDEBUG
  benchmark::AddCustomContext("rica_build_type", "release");
#else
  benchmark::AddCustomContext("rica_build_type", "debug");
#endif
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
