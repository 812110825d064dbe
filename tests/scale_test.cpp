// Scale-out core: spatial neighbor-index equivalence with the brute-force
// scan (across every mobility model), batched mobility snapshots, hashed
// per-cell trial seeds, scenario presets, and serial/parallel sweep
// determinism (including the mobility axis).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "channel/channel_model.hpp"
#include "harness/flags.hpp"
#include "harness/scenario.hpp"
#include "harness/sweep.hpp"
#include "mobility/mobility_model.hpp"
#include "mobility/trace.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"

namespace rica {
namespace {

// ---------------------------------------------------------------------------
// Mobility snapshots
// ---------------------------------------------------------------------------

TEST(MobilitySnapshot, MatchesLazyPerNodeQueries) {
  mobility::MobilityConfig cfg;
  cfg.field = mobility::Field{800.0, 800.0};
  cfg.max_speed_mps = 15.0;
  // Two managers over the same seed realize identical trajectories, so the
  // batched API can be checked against the lazy one without interference.
  sim::RngManager rng(42);
  mobility::MobilityManager batched(20, cfg, rng);
  mobility::MobilityManager lazy(20, cfg, rng);

  for (int step = 0; step <= 40; ++step) {
    const auto t = sim::seconds_f(0.7 * step);
    const auto snap = batched.snapshot(t);
    ASSERT_EQ(snap.size(), 20u);
    for (std::uint32_t id = 0; id < 20; ++id) {
      EXPECT_EQ(snap[id], lazy.position(id, t))
          << "node " << id << " at t=" << t.seconds();
    }
  }
}

TEST(MobilitySnapshot, ExposesSpeedBound) {
  mobility::MobilityConfig cfg;
  cfg.max_speed_mps = 12.5;
  sim::RngManager rng(1);
  mobility::MobilityManager mgr(5, cfg, rng);
  EXPECT_DOUBLE_EQ(mgr.max_speed_mps(), 12.5);
}

// ---------------------------------------------------------------------------
// Neighbor index == brute force, across models and configurations
// ---------------------------------------------------------------------------

struct IndexCase {
  std::uint64_t seed;
  std::size_t num_nodes;
  double field_m;
  double max_speed_mps;
  double range_m;
  std::string mobility = "waypoint";
};

/// Strictly ascending ids: the order the brute-force scan produces and the
/// MAC's receiver loop (hence event order) depends on, which the indexed
/// path must reproduce without sorting.
bool strictly_ascending(const std::vector<std::uint32_t>& ids) {
  return std::adjacent_find(ids.begin(), ids.end(),
                            std::greater_equal<>()) == ids.end();
}

/// The core index == brute-force property, shared by the parameterized
/// synthetic-model cases and the runtime-generated trace-replay case.
void check_index_equivalence(const IndexCase& p) {
  mobility::MobilityConfig wcfg = mobility::parse_mobility_spec(p.mobility);
  wcfg.field = mobility::Field{p.field_m, p.field_m};
  wcfg.max_speed_mps = p.max_speed_mps;
  sim::RngManager rng(p.seed);
  mobility::MobilityManager mgr(p.num_nodes, wcfg, rng);

  channel::ChannelConfig ccfg;
  ccfg.range_m = p.range_m;
  ASSERT_TRUE(ccfg.use_neighbor_index);
  channel::ChannelModel channel(ccfg, mgr, rng);

  // The MAC's overload refills one buffer per sender; a stale tail or a
  // leftover bit in the id bitset would surface here.
  std::vector<std::uint32_t> reused{7, 3, 5};
  for (int step = 0; step <= 60; ++step) {
    const auto t = sim::seconds_f(0.5 * step);  // crosses many rebuild epochs
    for (std::uint32_t node = 0; node < p.num_nodes; ++node) {
      const auto indexed = channel.neighbors_of(node, t);
      const auto brute = channel.neighbors_of_bruteforce(node, t);
      ASSERT_EQ(indexed, brute)
          << "node " << node << " at t=" << t.seconds() << " (seed " << p.seed
          << ", n=" << p.num_nodes << ", field=" << p.field_m << ", mobility="
          << p.mobility << ")";
      ASSERT_TRUE(strictly_ascending(indexed));
      channel.neighbors_of(node, t, reused);
      ASSERT_EQ(reused, brute);
    }
  }
  EXPECT_GE(channel.neighbor_index().rebuild_count(), 2u)
      << "the sweep should have crossed rebuild epochs";
}

class NeighborIndexEquivalence : public ::testing::TestWithParam<IndexCase> {};

TEST_P(NeighborIndexEquivalence, GridMatchesBruteForceOverTime) {
  check_index_equivalence(GetParam());
}

TEST(TraceNeighborIndex, GridMatchesBruteForceOverTime) {
  // The trace model's data-derived max_speed_mps() is the exact bound its
  // replayed chord velocities realize, so the index's staleness slack — and
  // with it the index == brute bit-identity — must hold unmodified.
  mobility::MobilityConfig src = mobility::parse_mobility_spec("gauss-markov");
  src.field = mobility::Field{1000.0, 1000.0};
  src.max_speed_mps = 25.0;
  const sim::RngManager rng(61);
  const auto model = mobility::make_mobility_model(60, src, rng);
  const auto path = (std::filesystem::temp_directory_path() /
                     "rica_scale_trace.trace")
                        .string();
  // Cover the 30 s query sweep; a coarse-ish dt leaves real chord motion.
  mobility::write_bonnmotion_trace(*model, sim::seconds(31),
                                   sim::milliseconds(400), path);

  check_index_equivalence(
      IndexCase{67, 60, 1000.0, 25.0, 250.0, "trace:file=" + path});
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    RandomizedConfigs, NeighborIndexEquivalence,
    ::testing::Values(
        IndexCase{3, 1, 500.0, 10.0, 250.0},     // degenerate single node
        IndexCase{5, 25, 1414.2, 0.0, 250.0},    // static sparse-rural
        IndexCase{7, 60, 1000.0, 25.0, 250.0},   // fast paper-density
        IndexCase{11, 40, 2000.0, 15.0, 100.0},  // short range, big field
        IndexCase{13, 120, 1000.0, 40.0, 250.0}  // dense-urban, very fast
        ));

INSTANTIATE_TEST_SUITE_P(
    AllMobilityModels, NeighborIndexEquivalence,
    ::testing::Values(
        IndexCase{19, 60, 1000.0, 25.0, 250.0, "walk"},
        IndexCase{23, 60, 1000.0, 25.0, 250.0, "gauss-markov"},
        IndexCase{29, 60, 1000.0, 25.0, 250.0, "group"},
        IndexCase{31, 60, 1000.0, 25.0, 250.0, "manhattan"},
        IndexCase{37, 40, 1414.2, 35.0, 150.0, "walk:leg=3"},
        IndexCase{41, 40, 1414.2, 35.0, 150.0,
                  "gauss-markov:alpha=0.2,step=0.4"},
        IndexCase{43, 40, 1414.2, 35.0, 150.0, "group:size=4,radius=120"},
        IndexCase{47, 40, 1414.2, 35.0, 150.0,
                  "manhattan:spacing=150,turn=0.5"},
        IndexCase{53, 30, 800.0, 0.0, 250.0, "group"}  // static group
        ));

class IndexedStackEquivalence
    : public ::testing::TestWithParam<const char*> {};

TEST_P(IndexedStackEquivalence, InRangeAndSampleMatchBruteChannel) {
  // Two full stacks over identical seeds: one indexed, one brute-force.
  // Identical query sequences must observe identical channels — this is
  // what makes the index invisible to every protocol, under every model.
  mobility::MobilityConfig wcfg = mobility::parse_mobility_spec(GetParam());
  wcfg.max_speed_mps = 20.0;
  sim::RngManager rng(99);
  mobility::MobilityManager mgr_a(40, wcfg, rng);
  mobility::MobilityManager mgr_b(40, wcfg, rng);

  channel::ChannelConfig indexed_cfg;
  channel::ChannelConfig brute_cfg;
  brute_cfg.use_neighbor_index = false;
  channel::ChannelModel indexed(indexed_cfg, mgr_a, rng);
  channel::ChannelModel brute(brute_cfg, mgr_b, rng);

  for (int step = 0; step <= 20; ++step) {
    const auto t = sim::seconds_f(0.9 * step);
    for (std::uint32_t a = 0; a < 40; ++a) {
      for (std::uint32_t b = 0; b < 40; ++b) {
        ASSERT_EQ(indexed.in_range(a, b, t), brute.in_range(a, b, t));
        if (b == 0) {
          const auto via_index = indexed.neighbors_of(a, t);
          ASSERT_EQ(via_index, brute.neighbors_of(a, t));
          ASSERT_TRUE(strictly_ascending(via_index));
        }
        const auto sa = indexed.sample(a, b, t);
        const auto sb = brute.sample(a, b, t);
        ASSERT_EQ(sa.has_value(), sb.has_value());
        if (sa) {
          ASSERT_EQ(sa->snr_db, sb->snr_db);
          ASSERT_EQ(sa->csi, sb->csi);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllModels, IndexedStackEquivalence,
                         ::testing::Values("waypoint", "walk", "gauss-markov",
                                           "group", "manhattan"),
                         [](const ::testing::TestParamInfo<const char*>& i) {
                           std::string name(i.param);
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(SortFreeNeighbors, AscendAcrossRebuildBoundariesAndCellEdges) {
  // A 6x6 lattice at exactly the grid pitch (cell size = range = 250 m):
  // every static node sits on a cell edge and its lattice neighbours sit at
  // exactly the range, which counts as in range.  Ids run against the
  // grid's row-major cell order (x descends as the id grows), and every odd
  // node drifts at 10 m/s, so cell membership shifts between rebuilds.
  constexpr int kSide = 6;
  const auto path = (std::filesystem::temp_directory_path() /
                     "rica_scale_cell_edges.trace")
                        .string();
  {
    std::ofstream f(path);
    for (int id = 0; id < kSide * kSide; ++id) {
      const double x = 100.0 + 250.0 * (kSide - 1 - id % kSide);
      const double y = 100.0 + 250.0 * (id / kSide);
      f << "0 " << x << ' ' << y;
      if (id % 2 == 1) f << " 20 " << x + 200.0 << ' ' << y;
      f << '\n';
    }
  }
  mobility::MobilityConfig wcfg =
      mobility::parse_mobility_spec("trace:file=" + path);
  wcfg.field = mobility::Field{2000.0, 2000.0};
  const sim::RngManager rng(5);
  mobility::MobilityManager mgr_a(kSide * kSide, wcfg, rng);
  mobility::MobilityManager mgr_b(kSide * kSide, wcfg, rng);
  channel::ChannelConfig indexed_cfg;
  channel::ChannelConfig brute_cfg;
  brute_cfg.use_neighbor_index = false;
  channel::ChannelModel indexed(indexed_cfg, mgr_a, rng);
  channel::ChannelModel brute(brute_cfg, mgr_b, rng);

  // Query on both sides of every rebuild boundary: a snapshot serves
  // queries up to exactly one epoch after it and is rebuilt one
  // nanosecond later.
  const auto epoch = sim::seconds_f(indexed_cfg.index_epoch_s);
  std::vector<std::uint32_t> got;
  std::size_t on_range_edge = 0;
  for (int k = 0; k <= 80; ++k) {
    for (const auto t : {epoch * k, epoch * k + sim::nanoseconds(1)}) {
      for (std::uint32_t node = 0; node < kSide * kSide; ++node) {
        indexed.neighbors_of(node, t, got);
        const auto want = brute.neighbors_of(node, t);
        ASSERT_EQ(got, want) << "node " << node << " at t=" << t.nanos();
        ASSERT_TRUE(strictly_ascending(got));
        if (t == sim::Time::zero()) on_range_edge += want.size();
      }
    }
  }
  std::remove(path.c_str());
  // At t=0 every lattice neighbour is exactly at range: 2 axes * 6 lines
  // * 5 adjacent pairs * 2 directions = 120 (node, neighbour) entries.
  EXPECT_EQ(on_range_edge, 120u);
  EXPECT_GE(indexed.neighbor_index().rebuild_count(), 40u);
}

// ---------------------------------------------------------------------------
// Hashed per-cell trial seeds
// ---------------------------------------------------------------------------

TEST(TrialSeed, DeterministicAndCellIndependent) {
  harness::ScenarioConfig cfg;
  EXPECT_EQ(harness::trial_seed(cfg, 0), harness::trial_seed(cfg, 0));
  EXPECT_NE(harness::trial_seed(cfg, 0), harness::trial_seed(cfg, 1));

  // The old seed, seed+1, ... scheme made trial 1 of base seed 1 collide
  // with trial 0 of base seed 2.  The hashed scheme must not.
  harness::ScenarioConfig shifted = cfg;
  shifted.seed = cfg.seed + 1;
  EXPECT_NE(harness::trial_seed(cfg, 1), harness::trial_seed(shifted, 0));

  // Every cell coordinate feeds the hash.
  harness::ScenarioConfig other = cfg;
  other.protocol = harness::ProtocolKind::kAodv;
  EXPECT_NE(harness::trial_seed(cfg, 0), harness::trial_seed(other, 0));
  other = cfg;
  other.mean_speed_kmh += 14.4;
  EXPECT_NE(harness::trial_seed(cfg, 0), harness::trial_seed(other, 0));
  other = cfg;
  other.pkts_per_s *= 2.0;
  EXPECT_NE(harness::trial_seed(cfg, 0), harness::trial_seed(other, 0));
  other = cfg;
  other.num_nodes = 200;
  EXPECT_NE(harness::trial_seed(cfg, 0), harness::trial_seed(other, 0));
  other = cfg;
  other.mobility = "gauss-markov";
  EXPECT_NE(harness::trial_seed(cfg, 0), harness::trial_seed(other, 0));
}

// ---------------------------------------------------------------------------
// Scenario presets
// ---------------------------------------------------------------------------

TEST(Presets, KnownPopulations) {
  EXPECT_EQ(harness::preset_config("paper").num_nodes, 50u);
  EXPECT_EQ(harness::preset_config("dense-urban").num_nodes, 200u);
  EXPECT_EQ(harness::preset_config("sparse-rural").num_nodes, 25u);
  EXPECT_EQ(harness::preset_config("metro").num_nodes, 500u);
  EXPECT_EQ(harness::preset_config("large-scale").num_nodes, 10000u);
  EXPECT_NEAR(harness::preset_config("sparse-rural").field_m, 1414.2, 0.1);
  EXPECT_NEAR(harness::preset_config("metro").field_m, 1732.1, 0.1);
  EXPECT_NEAR(harness::preset_config("large-scale").field_m, 14142.1, 0.1);
  EXPECT_EQ(harness::scenario_presets().size(), 5u);
}

TEST(Presets, UnknownNameThrows) {
  EXPECT_THROW({ auto cfg = harness::preset_config("metropolis"); (void)cfg; },
               std::invalid_argument);
}

TEST(Presets, PairsScaleWithPopulation) {
  EXPECT_EQ(harness::preset_config("paper").num_pairs, 10u);
  EXPECT_EQ(harness::preset_config("dense-urban").num_pairs, 40u);
  EXPECT_EQ(harness::preset_config("large-scale").num_pairs, 2000u);
}

// ---------------------------------------------------------------------------
// Parallel sweep == serial sweep, bit for bit
// ---------------------------------------------------------------------------

void expect_identical(const harness::ScenarioResult& a,
                      const harness::ScenarioResult& b) {
  EXPECT_EQ(a.generated, b.generated);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.delivery_pct, b.delivery_pct);
  EXPECT_EQ(a.avg_delay_ms, b.avg_delay_ms);
  EXPECT_EQ(a.overhead_kbps, b.overhead_kbps);
  EXPECT_EQ(a.avg_link_tput_kbps, b.avg_link_tput_kbps);
  EXPECT_EQ(a.avg_hops, b.avg_hops);
  EXPECT_EQ(a.drops, b.drops);
  EXPECT_EQ(a.control_transmissions, b.control_transmissions);
  EXPECT_EQ(a.control_collisions, b.control_collisions);
  EXPECT_EQ(a.tput_kbps_series, b.tput_kbps_series);
  EXPECT_EQ(a.stream_hash, b.stream_hash);
}

TEST(ParallelSweep, BitIdenticalToSerial) {
  harness::BenchScale serial{};
  serial.trials = 2;
  serial.sim_s = 4.0;
  serial.seed = 7;
  serial.threads = 1;
  serial.verbose = false;

  harness::BenchScale parallel = serial;
  parallel.threads = 4;

  const std::vector<double> speeds{0.0, 36.0};
  const std::vector<double> loads{10.0};
  const auto grid_serial = harness::run_speed_sweep(speeds, loads, serial);
  const auto grid_parallel = harness::run_speed_sweep(speeds, loads, parallel);

  ASSERT_EQ(grid_serial.size(), grid_parallel.size());
  ASSERT_EQ(grid_serial.size(),
            speeds.size() * loads.size() * harness::kAllProtocols.size());
  for (std::size_t i = 0; i < grid_serial.size(); ++i) {
    SCOPED_TRACE("cell " + std::to_string(i));
    EXPECT_EQ(grid_serial[i].protocol, grid_parallel[i].protocol);
    EXPECT_EQ(grid_serial[i].mean_speed_kmh, grid_parallel[i].mean_speed_kmh);
    EXPECT_EQ(grid_serial[i].pkts_per_s, grid_parallel[i].pkts_per_s);
    expect_identical(grid_serial[i].result, grid_parallel[i].result);
  }
}

TEST(ParallelSweep, MobilityAxisBitIdenticalToSerial) {
  // The new mobility axis must preserve the determinism guarantee: a
  // parallel sweep over every model equals the serial enumeration.
  harness::BenchScale serial{};
  serial.trials = 1;
  serial.sim_s = 2.0;
  serial.seed = 11;
  serial.threads = 1;
  serial.verbose = false;

  harness::BenchScale parallel = serial;
  parallel.threads = 4;

  const std::vector<double> speeds{36.0};
  const std::vector<double> loads{10.0};
  const auto& models = mobility::known_mobility_models();
  const auto grid_serial =
      harness::run_speed_sweep(speeds, loads, models, serial);
  const auto grid_parallel =
      harness::run_speed_sweep(speeds, loads, models, parallel);

  ASSERT_EQ(grid_serial.size(), grid_parallel.size());
  ASSERT_EQ(grid_serial.size(),
            models.size() * speeds.size() * loads.size() *
                harness::kAllProtocols.size());
  for (std::size_t i = 0; i < grid_serial.size(); ++i) {
    SCOPED_TRACE("cell " + std::to_string(i) + " (" +
                 grid_serial[i].mobility + ")");
    EXPECT_EQ(grid_serial[i].protocol, grid_parallel[i].protocol);
    EXPECT_EQ(grid_serial[i].mobility, grid_parallel[i].mobility);
    expect_identical(grid_serial[i].result, grid_parallel[i].result);
  }
}

TEST(ParallelSweep, UnknownPresetThrowsBeforeRunning) {
  harness::BenchScale scale{};
  scale.trials = 1;
  scale.sim_s = 1.0;
  scale.seed = 1;
  scale.verbose = false;
  scale.preset = "no-such-preset";
  EXPECT_THROW(harness::run_speed_sweep({0.0}, {10.0}, scale),
               std::invalid_argument);
}

TEST(ParallelSweep, UnknownMobilityThrowsBeforeRunning) {
  harness::BenchScale scale{};
  scale.trials = 1;
  scale.sim_s = 1.0;
  scale.seed = 1;
  scale.verbose = false;
  EXPECT_THROW(
      harness::run_speed_sweep({0.0}, {10.0}, {"teleport"}, scale),
      std::invalid_argument);
}

TEST(ParallelSweep, UnreadableTraceThrowsBeforeRunning) {
  // The up-front validation loads trace files, so a bad path aborts the
  // sweep before any (potentially minutes-long) synthetic cell runs.
  harness::BenchScale scale{};
  scale.trials = 1;
  scale.sim_s = 1.0;
  scale.seed = 1;
  scale.verbose = false;
  EXPECT_THROW(
      harness::run_speed_sweep(
          {0.0}, {10.0},
          {"waypoint", "trace:file=/nonexistent/rica-no-such.trace"}, scale),
      std::invalid_argument);
}

}  // namespace
}  // namespace rica
