// Harness units: flag parsing, table rendering, bench scales, the RICA
// adaptive-checking extension plumbed through the scenario config, the
// --warmup measurement window (epoch-reset semantics: a warmed-up run's
// counters equal the post-window deltas of a cold run), and the strict
// trace/spec error paths (file:line diagnostics, never a silent clamp).
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/flags.hpp"
#include "harness/scenario.hpp"
#include "harness/sweep.hpp"
#include "harness/table.hpp"
#include "mobility/trace.hpp"
#include "net/network.hpp"

namespace rica::harness {
namespace {

Flags parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Flags(static_cast<int>(argv.size()), argv.data());
}

TEST(Flags, SpaceSeparatedValues) {
  const auto f = parse({"--trials", "7", "--sim-time", "250.5"});
  EXPECT_EQ(f.get("trials", 0), 7);
  EXPECT_DOUBLE_EQ(f.get("sim-time", 0.0), 250.5);
}

TEST(Flags, EqualsSeparatedValues) {
  const auto f = parse({"--seed=99", "--protocol=bgca"});
  EXPECT_EQ(f.get("seed", std::uint64_t{0}), 99u);
  EXPECT_EQ(f.get("protocol", std::string{}), "bgca");
}

TEST(Flags, BareBooleanFlag) {
  const auto f = parse({"--paper-scale"});
  EXPECT_TRUE(f.has("paper-scale"));
  EXPECT_FALSE(f.has("trials"));
}

TEST(Flags, ListParsing) {
  const auto f = parse({"--speeds", "0,14.4,72"});
  const auto v = f.get_list("speeds", {});
  ASSERT_EQ(v.size(), 3u);
  EXPECT_DOUBLE_EQ(v[0], 0.0);
  EXPECT_DOUBLE_EQ(v[1], 14.4);
  EXPECT_DOUBLE_EQ(v[2], 72.0);
}

TEST(Flags, ListFallback) {
  const auto f = parse({});
  const auto v = f.get_list("speeds", {1.0, 2.0});
  ASSERT_EQ(v.size(), 2u);
}

TEST(Flags, PositionalArgumentRejected) {
  EXPECT_THROW(parse({"oops"}), std::invalid_argument);
}

TEST(Flags, DefaultsWhenAbsent) {
  const auto f = parse({});
  EXPECT_EQ(f.get("trials", 5), 5);
  EXPECT_EQ(f.get("name", std::string{"x"}), "x");
}

TEST(Flags, RejectUnreadNamesEachUnreadFlag) {
  const auto f = parse({"--protocl", "aodv", "--trials", "3", "--shards=8"});
  EXPECT_EQ(f.get("trials", 1), 3);
  try {
    f.reject_unread();
    FAIL() << "unread flags were accepted";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("--protocl"), std::string::npos) << msg;
    EXPECT_NE(msg.find("--shards"), std::string::npos) << msg;
    EXPECT_EQ(msg.find("--trials"), std::string::npos) << msg;
  }
}

TEST(Flags, RejectUnreadPassesOnceEveryFlagIsRead) {
  const auto f = parse({"--paper-scale", "--seed=4"});
  EXPECT_TRUE(f.has("paper-scale"));
  EXPECT_EQ(f.get("seed", std::uint64_t{0}), 4u);
  EXPECT_NO_THROW(f.reject_unread());
  // bench_scale reads every shared scale flag, sweep --threads included.
  const auto g = parse({"--trials", "2", "--threads", "4", "--preset",
                        "metro", "--warmup", "1"});
  (void)bench_scale(g, 3, 100.0);
  EXPECT_NO_THROW(g.reject_unread());
}

TEST(BenchScale, DefaultsApply) {
  const auto f = parse({});
  const auto s = bench_scale(f, 3, 100.0);
  EXPECT_EQ(s.trials, 3);
  EXPECT_DOUBLE_EQ(s.sim_s, 100.0);
  EXPECT_EQ(s.seed, 1u);
}

TEST(BenchScale, PaperScaleShorthand) {
  const auto f = parse({"--paper-scale"});
  const auto s = bench_scale(f, 3, 100.0);
  EXPECT_EQ(s.trials, 25);
  EXPECT_DOUBLE_EQ(s.sim_s, 500.0);
}

TEST(BenchScale, ExplicitOverridesBeatPaperScale) {
  const auto f = parse({"--paper-scale", "--trials", "2"});
  const auto s = bench_scale(f, 3, 100.0);
  EXPECT_EQ(s.trials, 2);
  EXPECT_DOUBLE_EQ(s.sim_s, 500.0);
}

TEST(BenchScale, MobilityAndPauseDefaults) {
  const auto f = parse({});
  const auto s = bench_scale(f, 3, 100.0);
  EXPECT_EQ(s.mobility, "waypoint");
  EXPECT_DOUBLE_EQ(s.pause_s, 3.0);
}

TEST(BenchScale, MobilitySpecWithParamsParses) {
  const auto f = parse({"--mobility", "gauss-markov:alpha=0.9,step=0.5",
                        "--pause", "0"});
  const auto s = bench_scale(f, 3, 100.0);
  EXPECT_EQ(s.mobility, "gauss-markov:alpha=0.9,step=0.5");
  EXPECT_DOUBLE_EQ(s.pause_s, 0.0);
}

TEST(BenchScale, UnknownMobilityModelFailsFastListingModels) {
  const auto f = parse({"--mobility", "teleport"});
  try {
    (void)bench_scale(f, 3, 100.0);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("waypoint"), std::string::npos);
    EXPECT_NE(msg.find("manhattan"), std::string::npos);
    // The trace replay spelling is advertised alongside the synthetic
    // models, so users discover `--mobility trace:file=...` from the error.
    EXPECT_NE(msg.find("trace:file="), std::string::npos);
  }
}

TEST(BenchScale, NegativePauseRejected) {
  const auto f = parse({"--pause", "-1"});
  EXPECT_THROW((void)bench_scale(f, 3, 100.0), std::invalid_argument);
}

TEST(BenchScale, TrafficDefaultsToPoisson) {
  const auto s = bench_scale(parse({}), 3, 100.0);
  EXPECT_EQ(s.traffic, "poisson");
}

TEST(BenchScale, TrafficSpecWithParamsParses) {
  const auto f =
      parse({"--traffic", "onoff:on=0.5,off=2,pattern=hotspot,hotspots=4"});
  const auto s = bench_scale(f, 3, 100.0);
  EXPECT_EQ(s.traffic, "onoff:on=0.5,off=2,pattern=hotspot,hotspots=4");
}

TEST(BenchScale, UnknownTrafficModelFailsFastListingModels) {
  const auto f = parse({"--traffic", "warpdrive"});
  try {
    (void)bench_scale(f, 3, 100.0);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("poisson"), std::string::npos) << msg;
    EXPECT_NE(msg.find("reqresp"), std::string::npos) << msg;
  }
}

TEST(BenchScale, BadTrafficParamFailsFast) {
  const auto f = parse({"--traffic", "cbr:jitter=2"});
  EXPECT_THROW((void)bench_scale(f, 3, 100.0), std::invalid_argument);
}

TEST(ScenarioTraffic, SpecFlowsIntoRunnableConfig) {
  ScenarioConfig cfg;
  cfg.traffic = "cbr:jitter=0.1,pattern=sink";
  cfg.sim_s = 2.0;
  const auto r = run_scenario(cfg);
  EXPECT_GT(r.generated, 0u);
  cfg.traffic = "cbr:jitter=-1";
  EXPECT_THROW((void)run_scenario(cfg), std::invalid_argument);
}

TEST(ScenarioTraffic, OverfullPairRequestFailsWithClearMessage) {
  // The 2*pairs <= nodes guard used to be a debug assert that vanished in
  // Release builds and fed uniform_int an inverted range; it must now be a
  // thrown error in every build type, carrying the arithmetic.
  ScenarioConfig cfg;
  cfg.num_nodes = 50;
  cfg.num_pairs = 26;
  cfg.sim_s = 1.0;
  try {
    (void)run_scenario(cfg);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("random"), std::string::npos) << msg;
    EXPECT_NE(msg.find("26"), std::string::npos) << msg;
    EXPECT_NE(msg.find("50"), std::string::npos) << msg;
  }
}

TEST(BenchScale, WarmupDefaultsToPresetCappedAtTwentyPercent) {
  // Long run: the paper preset's 20 s default applies whole.
  EXPECT_DOUBLE_EQ(bench_scale(parse({}), 3, 500.0).warmup_s, 20.0);
  // Short smoke run: capped at 20% of the simulated time.
  EXPECT_DOUBLE_EQ(bench_scale(parse({}), 3, 10.0).warmup_s, 2.0);
  // Bigger presets warm up longer.
  const auto f = parse({"--preset", "sparse-rural"});
  EXPECT_DOUBLE_EQ(bench_scale(f, 3, 500.0).warmup_s, 30.0);
}

TEST(BenchScale, ExplicitWarmupWinsAndIsValidated) {
  EXPECT_DOUBLE_EQ(bench_scale(parse({"--warmup", "7"}), 3, 100.0).warmup_s,
                   7.0);
  EXPECT_DOUBLE_EQ(bench_scale(parse({"--warmup", "0"}), 3, 100.0).warmup_s,
                   0.0);
  EXPECT_THROW((void)bench_scale(parse({"--warmup", "-2"}), 3, 100.0),
               std::invalid_argument);
  EXPECT_THROW((void)bench_scale(parse({"--warmup", "100"}), 3, 100.0),
               std::invalid_argument);
}

TEST(ScenarioMobility, SpecFlowsIntoRunnableConfig) {
  // A non-default spec must produce a runnable scenario (exercised end to
  // end by the sweep tests); a bad spec must fail at scenario build time.
  ScenarioConfig cfg;
  cfg.mobility = "group:size=5,radius=80";
  cfg.sim_s = 2.0;
  const auto r = run_scenario(cfg);
  EXPECT_GT(r.generated, 0u);
  cfg.mobility = "group:radius=-4";
  EXPECT_THROW((void)run_scenario(cfg), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Warmup semantics: one epoch-reset event, counters == post-window deltas
// ---------------------------------------------------------------------------

TEST(Warmup, CountersEqualPostWindowDeltasOfColdRun) {
  // A run to time w is the exact prefix of a run to time T (traffic and
  // protocol events are generated lazily), so the cold run's counter deltas
  // over (w, T] are recoverable from two finalizations — and a warmed-up
  // run must reproduce them exactly, because the epoch reset only zeroes
  // accumulators without touching the event stream.
  ScenarioConfig base;
  base.protocol = ProtocolKind::kRica;
  base.mean_speed_kmh = 36.0;
  base.seed = 5;

  ScenarioConfig prefix = base;
  prefix.sim_s = 8.0;
  ScenarioConfig total = base;
  total.sim_s = 20.0;
  ScenarioConfig warmed = total;
  warmed.warmup_s = 8.0;

  const auto rp = run_scenario(prefix);
  const auto rt = run_scenario(total);
  const auto rw = run_scenario(warmed);

  EXPECT_EQ(rw.measure_start, sim::seconds(8));
  EXPECT_EQ(rw.generated, rt.generated - rp.generated);
  EXPECT_EQ(rw.delivered, rt.delivered - rp.delivered);
  EXPECT_EQ(rw.control_transmissions,
            rt.control_transmissions - rp.control_transmissions);
  EXPECT_EQ(rw.control_collisions,
            rt.control_collisions - rp.control_collisions);
  for (std::size_t i = 0; i < stats::kNumDropReasons; ++i) {
    EXPECT_EQ(rw.drops[i], rt.drops[i] - rp.drops[i]) << "drop reason " << i;
  }
  // The whole warmup machinery is a single extra event.
  EXPECT_EQ(rw.stat("kernel.events_executed"),
            rt.stat("kernel.events_executed") + 1);
  // Overhead is the delta of control+ACK bits over the 12 s window (kbps *
  // seconds = kbits; reconstructed, so compare with a rounding tolerance).
  const double window_kbits =
      rt.overhead_kbps * total.sim_s - rp.overhead_kbps * prefix.sim_s;
  EXPECT_NEAR(rw.overhead_kbps, window_kbits / (total.sim_s - warmed.warmup_s),
              1e-9 * (1.0 + rw.overhead_kbps));
}

TEST(Warmup, ZeroWarmupIsBitIdenticalToDefaultRun) {
  ScenarioConfig cfg;
  cfg.protocol = ProtocolKind::kAodv;
  cfg.sim_s = 6.0;
  cfg.seed = 11;
  const auto plain = run_scenario(cfg);
  cfg.warmup_s = 0.0;
  const auto zero = run_scenario(cfg);
  EXPECT_EQ(plain.stream_hash, zero.stream_hash);
  EXPECT_EQ(plain.generated, zero.generated);
  EXPECT_EQ(plain.delivered, zero.delivered);
  EXPECT_EQ(plain.overhead_kbps, zero.overhead_kbps);
  EXPECT_EQ(plain.stats, zero.stats);
  EXPECT_EQ(plain.measure_start, sim::Time::zero());
  EXPECT_EQ(zero.measure_start, sim::Time::zero());
}

TEST(Warmup, BoundaryEventsStayOutsideTheWindow) {
  // The measured window is (w, sim_end]: an event at exactly t == w belongs
  // to the transient.  run_scenario arms the reset first (lowest tie-break
  // seq at its timestamp) but at w + 1 ns, so it still fires after every
  // event stamped w.  Replicate that arming order around a hand-scheduled
  // boundary event.
  sim::Simulator sim;
  stats::MetricsCollector metrics;
  const sim::Time w = sim::seconds(2);
  sim.at(w + sim::Time{1}, [&] { metrics.reset_epoch(w); });
  sim.at(w, [&] { metrics.on_control_tx(100); });          // boundary
  sim.at(w + sim::Time{1}, [&] { metrics.on_control_tx(300); });  // same
  // timestamp as the reset but armed later -> fires after it: in-window.
  sim.at(sim::seconds(3), [&] { metrics.on_control_tx(500); });
  sim.run_until(sim::seconds(4));

  EXPECT_EQ(metrics.epoch_start(), w);
  const auto s = metrics.finalize(sim::seconds(4));
  EXPECT_EQ(s.control_transmissions, 2u);  // 300 + 500; the t==w tx is gone
  EXPECT_DOUBLE_EQ(s.overhead_kbps * (4.0 - 2.0), 0.8);  // kbits over (w, T]
}

TEST(Warmup, InvalidWindowsRejected) {
  ScenarioConfig cfg;
  cfg.sim_s = 10.0;
  cfg.warmup_s = -1.0;
  EXPECT_THROW((void)run_scenario(cfg), std::invalid_argument);
  cfg.warmup_s = 10.0;  // no measurement window left
  EXPECT_THROW((void)run_scenario(cfg), std::invalid_argument);
  cfg.warmup_s = 12.0;
  EXPECT_THROW((void)run_scenario(cfg), std::invalid_argument);
}

TEST(Warmup, FlowsThroughSweepCells) {
  BenchScale scale{};
  scale.trials = 1;
  scale.sim_s = 3.0;
  scale.seed = 2;
  scale.threads = 1;
  scale.warmup_s = 1.0;
  scale.verbose = false;
  const auto grid = run_speed_sweep({36.0}, {10.0}, scale);
  ASSERT_EQ(grid.size(), kAllProtocols.size());
  for (const auto& cell : grid) {
    EXPECT_EQ(cell.result.measure_start, sim::seconds(1))
        << to_string(cell.protocol);
  }
}

// ---------------------------------------------------------------------------
// Trace error paths: file:line diagnostics, never a silent clamp
// ---------------------------------------------------------------------------

/// Writes `content` to a temp trace file and returns the path.
class TraceErrorPaths : public ::testing::Test {
 protected:
  std::string write_trace(const std::string& content) {
    const auto path =
        (std::filesystem::temp_directory_path() /
         ("rica_harness_trace_" + std::to_string(counter_++) + ".trace"))
            .string();
    std::ofstream(path) << content;
    paths_.push_back(path);
    return path;
  }

  void TearDown() override {
    for (const auto& path : paths_) std::remove(path.c_str());
  }

  /// Expects load_trace to throw an invalid_argument whose message carries
  /// the offending `file:line:` location plus `detail`.
  void expect_error(const std::string& content, int line,
                    const std::string& detail) {
    const auto path = write_trace(content);
    try {
      (void)mobility::load_trace(path, mobility::Field{1000.0, 1000.0});
      FAIL() << "expected std::invalid_argument for: " << detail;
    } catch (const std::invalid_argument& e) {
      const std::string msg = e.what();
      EXPECT_NE(msg.find(path), std::string::npos) << msg;
      if (line > 0) {
        EXPECT_NE(msg.find(":" + std::to_string(line) + ":"),
                  std::string::npos)
            << "expected line " << line << " in: " << msg;
      }
      EXPECT_NE(msg.find(detail), std::string::npos) << msg;
    }
  }

 private:
  int counter_ = 0;
  std::vector<std::string> paths_;
};

TEST_F(TraceErrorPaths, BonnMotionMalformedNumber) {
  expect_error("0.0 10.0 10.0 5.0 twenty 10.0\n", 1, "expected a number");
}

TEST_F(TraceErrorPaths, BonnMotionTripleCount) {
  expect_error("0.0 10.0 10.0\n0.0 20.0\n", 2, "triples");
}

TEST_F(TraceErrorPaths, BonnMotionNonMonotonicTimestamps) {
  expect_error("0.0 10.0 10.0 8.0 20.0 20.0 4.0 30.0 30.0\n", 1,
               "non-monotonic timestamp");
}

TEST_F(TraceErrorPaths, BonnMotionEqualTimestampTeleportRejected) {
  expect_error("0.0 10.0 10.0 5.0 20.0 20.0 5.0 90.0 90.0\n", 1,
               "non-monotonic timestamp");
}

TEST_F(TraceErrorPaths, BonnMotionNegativeTimestamp) {
  expect_error("-1.0 10.0 10.0\n", 1, "negative timestamp");
}

TEST_F(TraceErrorPaths, BonnMotionOutOfArenaCoordinate) {
  expect_error("0.0 10.0 10.0 5.0 1200.0 10.0\n", 1, "outside the");
}

TEST_F(TraceErrorPaths, SetdestUnrecognizedLine) {
  expect_error("$node_(0) set X_ 1.0\n$node_(0) set Y_ 1.0\nwarp 0 99\n", 3,
               "unrecognized line");
}

TEST_F(TraceErrorPaths, SetdestMalformedCommand) {
  expect_error(
      "$node_(0) set X_ 1.0\n$node_(0) set Y_ 1.0\n"
      "$ns_ at 1.0 \"$node_(0) teleport 5 5 1\"\n",
      3, "setdest");
}

TEST_F(TraceErrorPaths, SetdestBeforeInitialPosition) {
  expect_error("$ns_ at 1.0 \"$node_(0) setdest 5.0 5.0 1.0\"\n", 1,
               "before its initial");
}

TEST_F(TraceErrorPaths, SetdestNonMonotonicCommandTimes) {
  expect_error(
      "$node_(0) set X_ 1.0\n$node_(0) set Y_ 1.0\n"
      "$ns_ at 9.0 \"$node_(0) setdest 5.0 5.0 1.0\"\n"
      "$ns_ at 3.0 \"$node_(0) setdest 9.0 9.0 1.0\"\n",
      4, "non-monotonic command time");
}

TEST_F(TraceErrorPaths, SetdestNonPositiveSpeed) {
  expect_error(
      "$node_(0) set X_ 1.0\n$node_(0) set Y_ 1.0\n"
      "$ns_ at 1.0 \"$node_(0) setdest 5.0 5.0 0\"\n",
      3, "speed must be > 0");
}

TEST_F(TraceErrorPaths, SetdestOutOfArenaDestination) {
  expect_error(
      "$node_(0) set X_ 1.0\n$node_(0) set Y_ 1.0\n"
      "$ns_ at 1.0 \"$node_(0) setdest 5000.0 5.0 1.0\"\n",
      3, "outside the");
}

TEST_F(TraceErrorPaths, SetdestRepeatedPlacementRejected) {
  // A second `set X_`/`set Y_` would teleport the node around the knot log
  // (and dodge the arena check): strict error, not a silent rewrite.
  expect_error(
      "$node_(0) set X_ 1.0\n$node_(0) set Y_ 1.0\n"
      "$node_(0) set X_ 5000.0\n",
      3, "position set twice");
}

TEST_F(TraceErrorPaths, SetdestNodeIdHole) {
  // Node 1 is placed but node 0 never is: the id space has a hole.
  expect_error("$node_(1) set X_ 1.0\n$node_(1) set Y_ 1.0\n", 0,
               "no initial position");
}

TEST(TraceScenario, MissingFileAndShortTracesFailLoudly) {
  ScenarioConfig cfg;
  cfg.mobility = "trace:file=/nonexistent/rica-no-such.trace";
  cfg.sim_s = 1.0;
  try {
    (void)run_scenario(cfg);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("cannot open trace file"),
              std::string::npos);
  }

  // A trace with fewer nodes than the scenario population is an error, not
  // a silent reuse of trajectories.
  const auto path = (std::filesystem::temp_directory_path() /
                     "rica_harness_short.trace")
                        .string();
  std::ofstream(path) << "0.0 10.0 10.0\n0.0 20.0 20.0\n";
  cfg.mobility = "trace:file=" + path;
  try {
    (void)run_scenario(cfg);  // paper default: 50 nodes
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("trace covers 2 node(s)"), std::string::npos) << msg;
    EXPECT_NE(msg.find("50"), std::string::npos) << msg;
  }
  std::remove(path.c_str());
}

TEST(TraceScenario, SpecWithoutFileRejectedEagerly) {
  EXPECT_THROW((void)mobility::parse_mobility_spec("trace"),
               std::invalid_argument);
  EXPECT_THROW((void)mobility::parse_mobility_spec("trace:file="),
               std::invalid_argument);
  EXPECT_THROW((void)mobility::parse_mobility_spec("trace:dt=5"),
               std::invalid_argument);
  // The flags layer validates eagerly too, before any cell runs.
  const auto f = parse({"--mobility", "trace"});
  EXPECT_THROW((void)bench_scale(f, 3, 100.0), std::invalid_argument);
}

TEST(TableTest, AlignsColumns) {
  Table t({"a", "long_header"});
  t.add_row({"xxxxxx", "1"});
  std::ostringstream os;
  t.print(os);
  const auto out = os.str();
  EXPECT_NE(out.find("long_header"), std::string::npos);
  EXPECT_NE(out.find("xxxxxx"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(TableTest, FmtPrecision) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(10.0, 0), "10");
}

TEST(AdaptiveChecks, ReducesIdleOverheadAtZeroMobility) {
  // With a frozen channel the adaptive destination backs off toward the
  // 4 s maximum, spending less of the common channel than the fixed 1 s
  // schedule, without giving up delivery.
  ScenarioConfig fixed;
  fixed.protocol = ProtocolKind::kRica;
  fixed.mean_speed_kmh = 0.0;
  fixed.sim_s = 40.0;
  fixed.seed = 3;
  ScenarioConfig adaptive = fixed;
  adaptive.rica.adaptive_checks = true;

  const auto rf = run_scenario(fixed);
  const auto ra = run_scenario(adaptive);
  EXPECT_LT(ra.overhead_kbps, rf.overhead_kbps);
  EXPECT_GT(ra.delivery_pct, rf.delivery_pct - 3.0);
}

TEST(AdaptiveChecks, StillDeliversUnderMobility) {
  ScenarioConfig cfg;
  cfg.protocol = ProtocolKind::kRica;
  cfg.mean_speed_kmh = 54.0;
  cfg.sim_s = 30.0;
  cfg.rica.adaptive_checks = true;
  const auto r = run_scenario(cfg);
  EXPECT_GT(r.delivery_pct, 70.0);
}

// ---------------------------------------------------------------------------
// validate_scenario: one thrown pass for population, retired kernel knobs,
// and warmup bounds, with messages naming the offending value
// (run_scenario calls this before any construction).
// ---------------------------------------------------------------------------

// Captures the exception message so tests can pin its content.
std::string validation_error(const ScenarioConfig& cfg) {
  try {
    validate_scenario(cfg);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return {};
}

TEST(ValidateScenario, DefaultAndPresetConfigsPass) {
  EXPECT_NO_THROW(validate_scenario(ScenarioConfig{}));
  for (const auto& preset : scenario_presets()) {
    EXPECT_NO_THROW(validate_scenario(preset_config(preset.name)));
  }
}

TEST(ValidateScenario, RejectsEmptyAndOversizedPopulations) {
  ScenarioConfig cfg;
  cfg.num_nodes = 0;
  EXPECT_THROW(validate_scenario(cfg), std::invalid_argument);
  cfg.num_nodes = (std::size_t{1} << 24) + 1;
  const auto msg = validation_error(cfg);
  EXPECT_NE(msg.find("16777217"), std::string::npos) << msg;
  EXPECT_NE(msg.find("2^24"), std::string::npos) << msg;
  cfg.num_nodes = std::size_t{1} << 24;  // the limit itself is legal
  EXPECT_NO_THROW(validate_scenario(cfg));
}

TEST(ValidateScenario, RejectsRetiredKernelKnobs) {
  // The kernel is serial: threads and shards survive only as fields the
  // repository benchmark assigns, and any value but 1 is an error naming
  // the field — from validate_scenario, run_scenario and Network alike.
  for (const char* field : {"threads", "shards"}) {
    ScenarioConfig cfg;
    net::NetworkConfig net;
    if (std::string(field) == "threads") {
      cfg.threads = 2;
      net.kernel.threads = 2;
    } else {
      cfg.shards = 2;
      net.kernel.shards = 2;
    }
    SCOPED_TRACE(field);
    const auto msg = validation_error(cfg);
    EXPECT_NE(msg.find(std::string(field) + " = 2"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("serial"), std::string::npos) << msg;
    EXPECT_NE(msg.find("--threads"), std::string::npos) << msg;
    EXPECT_THROW({ auto r = run_scenario(cfg); (void)r; },
                 std::invalid_argument);
    try {
      net::Network network(net);
      ADD_FAILURE() << "Network accepted kernel." << field << " = 2";
    } catch (const std::invalid_argument& e) {
      const std::string net_msg = e.what();
      EXPECT_NE(net_msg.find(std::string("kernel.") + field + " = 2"),
                std::string::npos)
          << net_msg;
      EXPECT_NE(net_msg.find("serial"), std::string::npos) << net_msg;
    }
  }
}

TEST(ValidateScenario, RejectsWarmupOutsideTheRun) {
  ScenarioConfig cfg;
  cfg.warmup_s = -1.0;
  EXPECT_THROW(validate_scenario(cfg), std::invalid_argument);
  cfg.warmup_s = cfg.sim_s;
  const auto msg = validation_error(cfg);
  EXPECT_NE(msg.find("measurement window"), std::string::npos) << msg;
}

// ---------------------------------------------------------------------------
// One stats path: named protocol counts live in the registry snapshot, so
// average() folds them like every other counter.
// ---------------------------------------------------------------------------

TEST(Average, NamedCountsSumAcrossTrials) {
  ScenarioConfig cfg;
  cfg.protocol = ProtocolKind::kRica;
  cfg.sim_s = 5.0;
  cfg.seed = 3;
  double sum = 0.0;
  for (int t = 0; t < 2; ++t) {
    ScenarioConfig one = cfg;
    one.seed = trial_seed(cfg, t);
    sum += run_scenario(one).stat("rica.discovery");
  }
  EXPECT_GT(sum, 0.0);
  EXPECT_EQ(run_trials(cfg, 2).stat("rica.discovery"), sum);
}

TEST(RicaConfigPlumbing, CheckPeriodAffectsOverhead) {
  ScenarioConfig slow;
  slow.protocol = ProtocolKind::kRica;
  slow.mean_speed_kmh = 36.0;
  slow.sim_s = 30.0;
  slow.rica.check_period = sim::seconds(4);
  ScenarioConfig fast = slow;
  fast.rica.check_period = sim::milliseconds(250);
  const auto rs = run_scenario(slow);
  const auto rf = run_scenario(fast);
  EXPECT_GT(rf.overhead_kbps, rs.overhead_kbps);
}

}  // namespace
}  // namespace rica::harness
