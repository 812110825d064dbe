// Golden fixed-seed regression suite: one small run per protocol (plus
// warmup, trace-replay, and traffic-model variants) whose ordered
// generated/delivered/dropped/control event stream is digested into an
// FNV-1a hash (stats::MetricsCollector::stream_hash) and asserted against
// captured reference hashes checked in at tests/data/golden_hashes.txt.
// With the legacy event-queue backend retired, the pinned capture is what
// keeps determinism anchored: a change to event ordering, RNG stream
// layout, packet bookkeeping, or metrics accounting moves the digest and
// fails the suite.
//
// Intentional behavior changes re-record the capture by running this binary
// once with RICA_GOLDEN_UPDATE=1 in the environment (it rewrites
// golden_hashes.txt in the source tree); review the diff like any other
// source change.  Update mode prints one "key old -> new" line per moved
// digest and the number of unchanged keys, ready to paste into a change
// note.  Every case also asserts run == rerun, so in-process determinism is
// checked even in update mode.
//
// The channel's fading draws are defined in-tree (sim::CounterStream:
// SplitMix64 plus Box-Muller), but mobility, traffic and MAC backoff still
// draw through the standard library's distribution algorithms, so the
// capture is re-recorded per toolchain family if libc++ and libstdc++ ever
// disagree; CI runs a single toolchain, which is the configuration the
// capture pins.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "harness/scenario.hpp"
#include "mobility/mobility_model.hpp"
#include "mobility/trace.hpp"
#include "obs/flight_recorder.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "stats/metrics.hpp"

namespace rica {
namespace {

// ---------------------------------------------------------------------------
// Captured-hash registry: loads tests/data/golden_hashes.txt, checks one
// digest per scenario key, and (in update mode) rewrites the capture.
// ---------------------------------------------------------------------------

class GoldenRegistry {
 public:
  static GoldenRegistry& instance() {
    static GoldenRegistry reg;
    return reg;
  }

  void check(const std::string& key, std::uint64_t hash) {
    if (update_mode_) {
      hashes_[key] = hash;
      flush();
      return;
    }
    const auto it = hashes_.find(key);
    if (it == hashes_.end()) {
      ADD_FAILURE() << "no captured golden hash for key '" << key
                    << "' in " << path()
                    << " — run this binary once with RICA_GOLDEN_UPDATE=1 "
                       "to record it";
      return;
    }
    EXPECT_EQ(hash, it->second)
        << "stream hash for '" << key << "' drifted from the capture in "
        << path()
        << " — if the behavior change is intentional, re-record with "
           "RICA_GOLDEN_UPDATE=1 and review the diff";
  }

  /// Update mode: prints each re-recorded key as "key old -> new", then
  /// the count of keys whose digest did not move.
  void report() const {
    if (!update_mode_) return;
    std::size_t unchanged = 0;
    for (const auto& [key, hash] : hashes_) {
      const auto old = captured_.find(key);
      if (old != captured_.end() && old->second == hash) {
        ++unchanged;
        continue;
      }
      std::printf("[golden-update] %s %s -> %016llx\n", key.c_str(),
                  old == captured_.end() ? "(none)" : hex(old->second).c_str(),
                  static_cast<unsigned long long>(hash));
    }
    std::printf("[golden-update] %zu keys unchanged\n", unchanged);
  }

 private:
  static std::string path() {
    return std::string(RICA_TEST_DATA_DIR) + "/golden_hashes.txt";
  }

  static std::string hex(std::uint64_t hash) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(hash));
    return buf;
  }

  GoldenRegistry() {
    update_mode_ = std::getenv("RICA_GOLDEN_UPDATE") != nullptr;
    std::ifstream in(path());
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      std::istringstream fields(line);
      std::string key;
      std::string digest;
      if (fields >> key >> digest) {
        hashes_[key] = std::stoull(digest, nullptr, 16);
      }
    }
    captured_ = hashes_;
  }

  void flush() const {
    std::ofstream out(path(), std::ios::trunc);
    out << "# Captured golden stream hashes (FNV-1a over the ordered metrics"
           " event stream).\n"
        << "# Re-record: RICA_GOLDEN_UPDATE=1 ./golden_test\n";
    for (const auto& [key, hash] : hashes_) {
      out << key << " " << hex(hash) << "\n";
    }
  }

  std::map<std::string, std::uint64_t> hashes_;  // sorted: stable file diffs
  std::map<std::string, std::uint64_t> captured_;  // as loaded from the file
  bool update_mode_ = false;
};

/// Prints the update-mode report once every case has run.
class GoldenReport : public ::testing::Environment {
 public:
  void TearDown() override { GoldenRegistry::instance().report(); }
};
[[maybe_unused]] const auto* const kGoldenReport =
    ::testing::AddGlobalTestEnvironment(new GoldenReport);

harness::ScenarioConfig golden_config(harness::ProtocolKind protocol) {
  harness::ScenarioConfig cfg;
  cfg.protocol = protocol;
  cfg.mean_speed_kmh = 36.0;
  cfg.sim_s = 5.0;
  cfg.seed = 0x90140ULL;  // fixed golden seed
  return cfg;
}

void expect_identical(const harness::ScenarioResult& a,
                      const harness::ScenarioResult& b) {
  EXPECT_EQ(a.stream_hash, b.stream_hash);
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
  EXPECT_EQ(a.measure_start, b.measure_start);
  EXPECT_EQ(a.delay_p50_ms, b.delay_p50_ms);
  EXPECT_EQ(a.delay_p95_ms, b.delay_p95_ms);
  EXPECT_EQ(a.delay_p99_ms, b.delay_p99_ms);
  EXPECT_EQ(a.jain_fairness, b.jain_fairness);
  // Every registry statistic — kernel observability and the named protocol
  // counts alike — must replay bit-identically too: any drift here means
  // the engine or the pooled/flat memory layout behaved differently.
  EXPECT_EQ(a.stats, b.stats);
  ASSERT_EQ(a.flow_summaries.size(), b.flow_summaries.size());
  for (std::size_t i = 0; i < a.flow_summaries.size(); ++i) {
    EXPECT_EQ(a.flow_summaries[i].flow, b.flow_summaries[i].flow);
    EXPECT_EQ(a.flow_summaries[i].generated, b.flow_summaries[i].generated);
    EXPECT_EQ(a.flow_summaries[i].delivered, b.flow_summaries[i].delivered);
    EXPECT_EQ(a.flow_summaries[i].dropped, b.flow_summaries[i].dropped);
    EXPECT_EQ(a.flow_summaries[i].tput_kbps, b.flow_summaries[i].tput_kbps);
    EXPECT_EQ(a.flow_summaries[i].delay_p95_ms,
              b.flow_summaries[i].delay_p95_ms);
  }
}

/// Runs the scenario twice (run == rerun determinism), checks the digest
/// against the capture, and logs it for CI diagnosability.
void run_and_check(const harness::ScenarioConfig& cfg, const std::string& key) {
  const auto first = harness::run_scenario(cfg);
  const auto second = harness::run_scenario(cfg);
  expect_identical(first, second);
  EXPECT_NE(first.stream_hash, stats::kFnvOffsetBasis);
  EXPECT_GT(first.generated, 0u);
  // Every closure the stack schedules must fit the engine's inline buffer;
  // an oversized one silently costs a heap cell per event, so pin it to
  // zero across the whole protocol x traffic matrix.
  EXPECT_EQ(first.stat("kernel.heap_fallbacks"), 0.0)
      << "an event closure outgrew EventEngine::kInlineBytes";
  // A real scenario always has same-tick bursts and queued packets: the
  // batch path and the pools must actually be exercised, not just present.
  EXPECT_GT(first.stat("kernel.batched_fires"), 0.0);
  EXPECT_GT(first.stat("stack.pool_high_water"), 0.0);
  EXPECT_GT(first.stat("stack.table_load"), 0.0);
  GoldenRegistry::instance().check(key, first.stream_hash);
  std::printf("[golden] %-36s stream_hash=%016llx\n", key.c_str(),
              static_cast<unsigned long long>(first.stream_hash));
}

class GoldenRun : public ::testing::TestWithParam<harness::ProtocolKind> {};

TEST_P(GoldenRun, StreamHashMatchesCapture) {
  const auto cfg = golden_config(GetParam());
  run_and_check(cfg, "run:" + std::string(harness::to_string(GetParam())));
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, GoldenRun,
    ::testing::Values(harness::ProtocolKind::kRica,
                      harness::ProtocolKind::kBgca,
                      harness::ProtocolKind::kAbr,
                      harness::ProtocolKind::kAodv,
                      harness::ProtocolKind::kLinkState),
    [](const ::testing::TestParamInfo<harness::ProtocolKind>& info) {
      return std::string(harness::to_string(info.param));
    });

TEST(GoldenWarmup, WarmupWindowMatchesCapture) {
  // The epoch-reset event must not disturb determinism: the warmed-up
  // digest covers only the post-transient stream and is pinned like the
  // full-run digests.
  auto cfg = golden_config(harness::ProtocolKind::kRica);
  cfg.warmup_s = 2.0;
  const auto result = harness::run_scenario(cfg);
  EXPECT_EQ(result.measure_start, sim::seconds(2));
  run_and_check(cfg, "warmup:rica");
}

// Traffic variants join the determinism envelope: every workload model
// (and the non-default flow patterns) is pinned — including reqresp, whose
// closed-loop feedback schedules events from inside delivery callbacks.
class GoldenTraffic : public ::testing::TestWithParam<const char*> {};

std::string sanitize(const char* spec) {
  std::string name(spec);
  for (auto& c : name) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return name;
}

TEST_P(GoldenTraffic, StreamHashMatchesCapture) {
  auto cfg = golden_config(harness::ProtocolKind::kRica);
  cfg.traffic = GetParam();
  run_and_check(cfg, "traffic:" + sanitize(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(
    AllTrafficModels, GoldenTraffic,
    ::testing::Values("cbr:jitter=0.2", "onoff:on=0.5,off=0.5",
                      "pareto:on=0.5,off=0.5,shape=1.5",
                      "reqresp:think=0.3,timeout=1",
                      "poisson:pattern=sink",
                      "cbr:pattern=hotspot,hotspots=2",
                      "poisson:pattern=ring"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      return sanitize(info.param);
    });

TEST(GoldenInstrumented, FullObservabilityMatchesCapture) {
  // The observability stack — span derivation, the always-on flight
  // recorder, and the anomaly watchdogs — must leave the pinned stream
  // untouched: none of its hooks may fold, reorder, or suppress a metrics
  // event.  The instrumented digest is checked against the SAME key the
  // bare suite pins, so this test fails the moment instrumentation would
  // silently re-record the capture.
  auto cfg = golden_config(harness::ProtocolKind::kRica);
  cfg.trace_filter = "all";  // spans included
  cfg.flight_recorder = obs::FlightRecorder::kDefaultCapacity;
  cfg.flight_dump =
      (std::filesystem::temp_directory_path() / "rica_golden_flight.jsonl")
          .string();
  cfg.watchdogs = true;
  const auto result = harness::run_scenario(cfg);
  GoldenRegistry::instance().check("run:RICA", result.stream_hash);
  // The instrumentation itself must have produced its artifact.
  std::error_code ec;
  EXPECT_GT(std::filesystem::file_size(cfg.flight_dump, ec), 0u);
  std::remove(cfg.flight_dump.c_str());
}

TEST(GoldenTrace, TraceMobilityMatchesCapture) {
  // Replayed mobility joins the determinism envelope: record this golden
  // scenario's own motion, replay it, and pin the digest.
  auto cfg = golden_config(harness::ProtocolKind::kRica);
  cfg.sim_s = 4.0;

  const auto mob = harness::scenario_mobility_config(cfg);
  const sim::RngManager rng(cfg.seed);
  const auto model = mobility::make_mobility_model(cfg.num_nodes, mob, rng);
  const auto path =
      (std::filesystem::temp_directory_path() / "rica_golden_trace.trace")
          .string();
  mobility::write_bonnmotion_trace(*model, sim::seconds_f(cfg.sim_s),
                                   sim::milliseconds(500), path);

  cfg.mobility = "trace:file=" + path;
  run_and_check(cfg, "trace:rica");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rica
