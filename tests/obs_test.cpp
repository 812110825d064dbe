// Observability-layer suite: trace filter parsing, the metrics registry
// and its fold semantics, JSONL record schemas, byte-identical trace
// determinism (including under concurrent runs), Perfetto JSON structure,
// the time-series sampler, the drop-reason taxonomy's sum property, and
// the null-sink contract (tracing must never move the golden stream hash).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "harness/scenario.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "sim/time.hpp"
#include "stats/metrics.hpp"

namespace rica {
namespace {

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

struct TempFile {
  explicit TempFile(const std::string& tag) {
    path = (std::filesystem::temp_directory_path() /
            ("rica_obs_" + tag + ".tmp"))
               .string();
  }
  ~TempFile() { std::remove(path.c_str()); }
  std::string path;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::stringstream ss(text);
  std::string line;
  while (std::getline(ss, line)) out.push_back(line);
  return out;
}

/// Minimal JSON well-formedness scan: braces/brackets balance outside
/// strings, strings terminate, no stray control characters.  Not a parser,
/// but enough to catch broken quoting or truncated records.
bool json_balanced(const std::string& text) {
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (const char c : text) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      if (--depth < 0) return false;
    }
  }
  return depth == 0 && !in_string;
}

/// True when `line` contains `"key":` (JSONL records use fixed key order,
/// but schema presence is what matters for consumers).
bool has_key(const std::string& line, const std::string& key) {
  return line.find("\"" + key + "\":") != std::string::npos;
}

std::string field_of(const std::string& line, const std::string& key) {
  const auto at = line.find("\"" + key + "\":");
  if (at == std::string::npos) return {};
  auto start = at + key.size() + 3;
  bool quoted = false;
  if (start < line.size() && line[start] == '"') {
    quoted = true;
    ++start;
  }
  auto end = start;
  while (end < line.size() &&
         (quoted ? line[end] != '"'
                 : (line[end] != ',' && line[end] != '}'))) {
    ++end;
  }
  return line.substr(start, end - start);
}

harness::ScenarioConfig short_config() {
  harness::ScenarioConfig cfg;
  cfg.protocol = harness::ProtocolKind::kRica;
  cfg.mean_speed_kmh = 36.0;
  cfg.sim_s = 3.0;
  cfg.seed = 0x90140ULL;
  return cfg;
}

// ---------------------------------------------------------------------------
// Filter parsing
// ---------------------------------------------------------------------------

TEST(TraceFilter, ParsesCategoriesAndLists) {
  using obs::TraceFilter;
  EXPECT_EQ(obs::parse_trace_filter("packet"), TraceFilter::kPacket);
  EXPECT_EQ(obs::parse_trace_filter("route"), TraceFilter::kRoute);
  EXPECT_EQ(obs::parse_trace_filter("kernel"), TraceFilter::kKernel);
  EXPECT_EQ(obs::parse_trace_filter("span"), TraceFilter::kSpan);
  EXPECT_EQ(obs::parse_trace_filter("all"), TraceFilter::kAll);
  EXPECT_TRUE(obs::has(TraceFilter::kAll, TraceFilter::kSpan));
  EXPECT_EQ(obs::parse_trace_filter("packet,route"),
            TraceFilter::kPacket | TraceFilter::kRoute);
  EXPECT_EQ(obs::parse_trace_filter("route,span"),
            TraceFilter::kRoute | TraceFilter::kSpan);
  EXPECT_THROW((void)obs::parse_trace_filter("packets"),
               std::invalid_argument);
  EXPECT_THROW((void)obs::parse_trace_filter(""), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

TEST(Registry, OwnedAndLazyEntriesSnapshotSorted) {
  obs::Registry reg;
  auto& c = reg.counter("b.count");
  c.add(3);
  c.add();
  auto& g = reg.gauge("a.level");
  g.set(2.5);
  std::uint64_t lazy = 7;
  reg.counter_fn("c.lazy", [&lazy] { return static_cast<double>(lazy); });

  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].name, "a.level");
  EXPECT_EQ(snap[0].kind, obs::StatKind::kGauge);
  EXPECT_EQ(snap[0].value, 2.5);
  EXPECT_EQ(snap[1].name, "b.count");
  EXPECT_EQ(snap[1].value, 4.0);
  EXPECT_EQ(snap[2].name, "c.lazy");
  EXPECT_EQ(snap[2].value, 7.0);

  lazy = 11;  // lazy entries re-read at every snapshot
  EXPECT_EQ(reg.read("c.lazy"), 11.0);
  EXPECT_EQ(reg.read("missing"), 0.0);
}

TEST(Registry, FoldSumsCountersAndMaxesGauges) {
  std::map<std::string, obs::Sample> acc;
  obs::fold_samples(acc, std::vector<obs::Sample>{
                             {"events", obs::StatKind::kCounter, 10.0},
                             {"peak", obs::StatKind::kGauge, 5.0}});
  obs::fold_samples(acc, std::vector<obs::Sample>{
                             {"events", obs::StatKind::kCounter, 32.0},
                             {"peak", obs::StatKind::kGauge, 3.0}});
  EXPECT_EQ(acc.at("events").value, 42.0);
  EXPECT_EQ(acc.at("peak").value, 5.0);
}

TEST(Registry, AverageFoldsSummaryStats) {
  harness::ScenarioResult a;
  a.stats["kernel.events_executed"] =
      obs::Sample{"kernel.events_executed", obs::StatKind::kCounter, 100.0};
  a.stats["stack.table_load"] =
      obs::Sample{"stack.table_load", obs::StatKind::kGauge, 0.4};
  a.dropped = 2;
  harness::ScenarioResult b = a;
  b.stats["kernel.events_executed"].value = 50.0;
  b.stats["stack.table_load"].value = 0.7;
  b.dropped = 3;
  const auto avg = harness::average({a, b});
  EXPECT_EQ(avg.stats.at("kernel.events_executed").value, 150.0);
  EXPECT_EQ(avg.stats.at("stack.table_load").value, 0.7);
  EXPECT_EQ(avg.dropped, 5u);
}

// ---------------------------------------------------------------------------
// Drop-reason taxonomy
// ---------------------------------------------------------------------------

TEST(DropTaxonomy, PerReasonCountersPartitionTheTotal) {
  stats::MetricsCollector m;
  net::DataPacket pkt;
  pkt.flow = 0;
  m.on_generated(pkt);
  m.on_generated(pkt);
  m.on_generated(pkt);
  m.on_dropped(pkt, stats::DropReason::kBufferOverflow);
  m.on_dropped(pkt, stats::DropReason::kNoRoute);
  m.on_dropped(pkt, stats::DropReason::kNoRoute);
  const auto s = m.finalize(sim::seconds(1));
  EXPECT_EQ(s.dropped, 3u);
  EXPECT_EQ(s.drops[0], 1u);
  EXPECT_EQ(s.drops[2], 2u);
  std::uint64_t sum = 0;
  for (const auto d : s.drops) sum += d;
  EXPECT_EQ(s.dropped, sum);
}

TEST(DropTaxonomy, ScenarioTotalEqualsReasonSum) {
  auto cfg = short_config();
  cfg.mean_speed_kmh = 72.0;  // mobility-induced breakage exercises reasons
  const auto r = harness::run_scenario(cfg);
  std::uint64_t sum = 0;
  for (const auto d : r.drops) sum += d;
  EXPECT_EQ(r.dropped, sum);
}

// ---------------------------------------------------------------------------
// JSONL schema
// ---------------------------------------------------------------------------

TEST(JsonlTrace, EveryRecordTypeMatchesItsSchema) {
  TempFile trace("schema");
  auto cfg = short_config();
  cfg.trace_out = trace.path;
  cfg.trace_filter = "all";
  cfg.perfetto_out = {};  // kernel records ride the trace filter alone
  (void)harness::run_scenario(cfg);

  const auto lines = lines_of(slurp(trace.path));
  ASSERT_FALSE(lines.empty());
  std::map<std::string, std::uint64_t> stages;
  std::size_t kernels = 0;
  for (const auto& line : lines) {
    ASSERT_TRUE(json_balanced(line)) << line;
    ASSERT_EQ(line.front(), '{') << line;
    ASSERT_EQ(line.back(), '}') << line;
    const auto type = field_of(line, "type");
    if (type == "packet") {
      for (const char* key : {"stage", "t_ns", "flow", "seq", "node", "src",
                              "dst", "peer", "hops", "bytes", "detail"}) {
        EXPECT_TRUE(has_key(line, key)) << key << " missing in " << line;
      }
      stages[field_of(line, "stage")]++;
    } else if (type == "route") {
      for (const char* key : {"stage", "t_ns", "node", "src", "dst", "bid",
                              "metric", "protocol", "msg", "bytes"}) {
        EXPECT_TRUE(has_key(line, key)) << key << " missing in " << line;
      }
      stages[field_of(line, "stage")]++;
    } else if (type == "kernel") {
      for (const char* key :
           {"t_ns", "events_executed", "batched_fires", "pending"}) {
        EXPECT_TRUE(has_key(line, key)) << key << " missing in " << line;
      }
      ++kernels;
    } else if (type == "span") {
      for (const char* key :
           {"kind", "t_ns", "span", "parent", "trace", "flow", "seq", "node",
            "src", "dst", "start_ns", "dur_ns", "detail"}) {
        EXPECT_TRUE(has_key(line, key)) << key << " missing in " << line;
      }
      stages[field_of(line, "kind")]++;
    } else {
      FAIL() << "unknown record type '" << type << "' in " << line;
    }
  }
  // The packet, route, and span lifecycles must actually appear.
  for (const char* stage : {"generated", "enqueued", "tx_start", "tx_end",
                            "delivered", "discovery_start", "control_tx",
                            "established", "packet", "queue", "airtime",
                            "discovery"}) {
    EXPECT_GT(stages[stage], 0u) << "no '" << stage << "' records";
  }
  EXPECT_GT(kernels, 0u) << "no kernel observation records";
}

TEST(JsonlTrace, FilterNarrowsTheStream) {
  TempFile trace("filter");
  auto cfg = short_config();
  cfg.trace_out = trace.path;
  cfg.trace_filter = "route";
  (void)harness::run_scenario(cfg);
  for (const auto& line : lines_of(slurp(trace.path))) {
    EXPECT_EQ(field_of(line, "type"), "route") << line;
  }
}

// ---------------------------------------------------------------------------
// Determinism
// ---------------------------------------------------------------------------

TEST(TraceDeterminism, RunRerunAndConcurrentRunsAreByteIdentical) {
  auto cfg = short_config();
  TempFile first("det_a");
  TempFile second("det_b");
  cfg.trace_out = first.path;
  (void)harness::run_scenario(cfg);
  cfg.trace_out = second.path;
  (void)harness::run_scenario(cfg);
  const auto reference = slurp(first.path);
  ASSERT_FALSE(reference.empty());
  EXPECT_EQ(reference, slurp(second.path));

  // Concurrent instrumented runs (the sweep's threaded shape): each thread
  // owns its sink, and sim-time stamping leaves nothing wall-clock to race.
  TempFile left("det_l");
  TempFile right("det_r");
  auto run_with = [&cfg](const std::string& path) {
    auto local = cfg;
    local.trace_out = path;
    (void)harness::run_scenario(local);
  };
  std::thread a(run_with, left.path);
  std::thread b(run_with, right.path);
  a.join();
  b.join();
  EXPECT_EQ(reference, slurp(left.path));
  EXPECT_EQ(reference, slurp(right.path));
}

TEST(TraceDeterminism, NullSinkLeavesGoldenStreamUntouched) {
  // The zero-cost-off contract, stated as the golden suite sees it: a fully
  // instrumented run and a bare run produce the same metrics stream hash —
  // and the bare run's hash is the one pinned in golden_hashes.txt.
  auto cfg = short_config();
  cfg.sim_s = 5.0;  // the golden suite's exact configuration (run:RICA)
  const auto bare = harness::run_scenario(cfg);

  TempFile trace("null_t");
  TempFile perfetto("null_p");
  TempFile series("null_s");
  auto traced = cfg;
  traced.trace_out = trace.path;
  traced.perfetto_out = perfetto.path;
  traced.series_out = series.path;
  traced.sample_dt_s = 0.5;
  const auto instrumented = harness::run_scenario(traced);

  EXPECT_EQ(bare.stream_hash, instrumented.stream_hash);
  EXPECT_EQ(bare.generated, instrumented.generated);
  EXPECT_EQ(bare.delivered, instrumented.delivered);
  EXPECT_EQ(bare.drops, instrumented.drops);
  EXPECT_EQ(bare.control_transmissions, instrumented.control_transmissions);
  // Sampler events are real kernel events: work moves, the stream does not.
  EXPECT_GT(instrumented.stat("kernel.events_executed"),
            bare.stat("kernel.events_executed"));

  // Cross-check against the pinned capture so this suite fails the moment
  // the observability layer would silently re-record the golden hashes.
  std::ifstream in(std::string(RICA_TEST_DATA_DIR) + "/golden_hashes.txt");
  ASSERT_TRUE(in.is_open());
  std::map<std::string, std::uint64_t> pinned;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string key, hex;
    if (fields >> key >> hex) pinned[key] = std::stoull(hex, nullptr, 16);
  }
  EXPECT_EQ(pinned.size(), 14u) << "golden capture gained or lost entries";
  ASSERT_TRUE(pinned.count("run:RICA"));
  EXPECT_EQ(bare.stream_hash, pinned.at("run:RICA"))
      << "bare run drifted from the pinned golden capture";
}

// ---------------------------------------------------------------------------
// Registry <-> summary plumbing
// ---------------------------------------------------------------------------

TEST(SummaryStats, OneSnapshotCarriesKernelStackAndNamedCounts) {
  const auto r = harness::run_scenario(short_config());
  const auto kind = [&r](const char* name) { return r.stats.at(name).kind; };
  for (const char* name : {"kernel.events_executed", "kernel.batched_fires",
                           "kernel.heap_fallbacks", "rica.discovery"}) {
    EXPECT_EQ(kind(name), obs::StatKind::kCounter) << name;
  }
  for (const char* name : {"kernel.peak_pending", "kernel.slab_high_water",
                           "stack.pool_high_water", "stack.table_load"}) {
    EXPECT_EQ(kind(name), obs::StatKind::kGauge) << name;
  }
  EXPECT_GT(r.stat("kernel.events_executed"), 0.0);
  EXPECT_GE(r.stat("kernel.events_executed"), r.stat("kernel.batched_fires"));
  EXPECT_GE(r.stat("kernel.slab_high_water"), r.stat("kernel.peak_pending"));
  // The named protocol counts ride the same snapshot as the kernel's.
  EXPECT_GT(r.stat("rica.discovery"), 0.0);
  EXPECT_EQ(r.stat("no.such.stat"), 0.0);
}

// ---------------------------------------------------------------------------
// Perfetto writer
// ---------------------------------------------------------------------------

TEST(Perfetto, EmitsWellFormedTraceEventJson) {
  TempFile out("perfetto");
  auto cfg = short_config();
  cfg.perfetto_out = out.path;
  (void)harness::run_scenario(cfg);

  const auto text = slurp(out.path);
  ASSERT_FALSE(text.empty());
  EXPECT_EQ(text.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_TRUE(json_balanced(text)) << "unbalanced trace_event JSON";
  // The three record shapes chrome://tracing renders: metadata naming the
  // tracks, complete ("X") duration slices, and counter ("C") samples.
  EXPECT_NE(text.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"process_name\""), std::string::npos);

  // Byte-identity holds for the profile too.
  TempFile again("perfetto2");
  cfg.perfetto_out = again.path;
  (void)harness::run_scenario(cfg);
  EXPECT_EQ(text, slurp(again.path));
}

// ---------------------------------------------------------------------------
// Series sampler
// ---------------------------------------------------------------------------

TEST(SeriesSampler, WritesOneRowPerPeriodWithStableColumns) {
  TempFile out("series");
  auto cfg = short_config();
  cfg.series_out = out.path;
  cfg.sample_dt_s = 0.5;
  (void)harness::run_scenario(cfg);

  const auto lines = lines_of(slurp(out.path));
  ASSERT_FALSE(lines.empty());
  EXPECT_EQ(lines[0],
            "t_s,pending_events,events_executed,buffered_packets,delivered,"
            "delivery_rate_pps,control_kbps");
  // 3 s at 0.5 s per sample: rows at 0.5..3.0 inclusive.
  EXPECT_EQ(lines.size(), 1u + 6u);
  double prev_t = -1.0;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    std::stringstream row(lines[i]);
    std::string cell;
    std::vector<std::string> cells;
    while (std::getline(row, cell, ',')) cells.push_back(cell);
    ASSERT_EQ(cells.size(), 7u) << lines[i];
    const double t = std::stod(cells[0]);
    EXPECT_GT(t, prev_t);
    prev_t = t;
  }

  // Rerun is byte-identical (the sampler is part of the determinism
  // contract like every other sink).
  TempFile again("series2");
  cfg.series_out = again.path;
  (void)harness::run_scenario(cfg);
  EXPECT_EQ(slurp(out.path), slurp(again.path));
}

TEST(SeriesSampler, SampleDtWithoutPathIsRejected) {
  auto cfg = short_config();
  cfg.sample_dt_s = 0.5;
  EXPECT_THROW((void)harness::run_scenario(cfg), std::invalid_argument);
}

}  // namespace
}  // namespace rica
