// The pluggable traffic subsystem: spec-string parsing and validation, the
// four flow patterns, per-model arrival behavior, closed-loop reqresp
// feedback, per-flow conservation across every model x pattern cell, the
// fairness/percentile metrics, and the sweep's traffic axis determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/scenario.hpp"
#include "harness/sweep.hpp"
#include "obs/histogram.hpp"
#include "net/network.hpp"
#include "routing/aodv/aodv.hpp"
#include "stats/metrics.hpp"
#include "traffic/cbr.hpp"
#include "traffic/poisson.hpp"
#include "traffic/reqresp.hpp"
#include "traffic/traffic_model.hpp"

namespace rica {
namespace {

// ---------------------------------------------------------------------------
// Spec parsing
// ---------------------------------------------------------------------------

TEST(TrafficSpec, ModelsAndAliasesParse) {
  using traffic::TrafficKind;
  EXPECT_EQ(traffic::traffic_kind_from_string("poisson"),
            TrafficKind::kPoisson);
  EXPECT_EQ(traffic::traffic_kind_from_string("CBR"), TrafficKind::kCbr);
  EXPECT_EQ(traffic::traffic_kind_from_string("on-off"), TrafficKind::kOnOff);
  EXPECT_EQ(traffic::traffic_kind_from_string("burst"), TrafficKind::kOnOff);
  EXPECT_EQ(traffic::traffic_kind_from_string("pareto"),
            TrafficKind::kPareto);
  EXPECT_EQ(traffic::traffic_kind_from_string("rpc"), TrafficKind::kReqResp);
  for (const auto& name : traffic::known_traffic_models()) {
    EXPECT_EQ(traffic::to_string(traffic::traffic_kind_from_string(name)),
              name);
  }
}

TEST(TrafficSpec, PatternsAndAliasesParse) {
  using traffic::FlowPattern;
  EXPECT_EQ(traffic::flow_pattern_from_string("random"),
            FlowPattern::kRandom);
  EXPECT_EQ(traffic::flow_pattern_from_string("convergecast"),
            FlowPattern::kSink);
  EXPECT_EQ(traffic::flow_pattern_from_string("hotspot"),
            FlowPattern::kHotspot);
  EXPECT_EQ(traffic::flow_pattern_from_string("cycle"), FlowPattern::kRing);
  for (const auto& name : traffic::known_flow_patterns()) {
    EXPECT_EQ(traffic::to_string(traffic::flow_pattern_from_string(name)),
              name);
  }
}

TEST(TrafficSpec, UnknownModelListsTheKnownOnes) {
  try {
    (void)traffic::parse_traffic_spec("warpdrive");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    for (const auto& name : traffic::known_traffic_models()) {
      EXPECT_NE(msg.find(name), std::string::npos) << msg;
    }
  }
}

TEST(TrafficSpec, UnknownPatternListsTheKnownOnes) {
  try {
    (void)traffic::parse_traffic_spec("poisson:pattern=starburst");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    for (const auto& name : traffic::known_flow_patterns()) {
      EXPECT_NE(msg.find(name), std::string::npos) << msg;
    }
  }
}

TEST(TrafficSpec, UnknownKeyListsTheKnownKeys) {
  try {
    (void)traffic::parse_traffic_spec("cbr:rate=5");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("jitter"), std::string::npos) << msg;
    EXPECT_NE(msg.find("pattern"), std::string::npos) << msg;
  }
}

TEST(TrafficSpec, ModelScopedParamsParse) {
  const auto cbr = traffic::parse_traffic_spec("cbr:jitter=0.25");
  EXPECT_DOUBLE_EQ(cbr.cbr_jitter, 0.25);
  const auto onoff = traffic::parse_traffic_spec("onoff:on=0.5,off=2");
  EXPECT_DOUBLE_EQ(onoff.on_mean_s, 0.5);
  EXPECT_DOUBLE_EQ(onoff.off_mean_s, 2.0);
  const auto pareto =
      traffic::parse_traffic_spec("pareto:on=1,off=3,shape=1.4");
  EXPECT_DOUBLE_EQ(pareto.pareto_shape, 1.4);
  const auto rr =
      traffic::parse_traffic_spec("reqresp:think=0.5,timeout=3,req=128");
  EXPECT_DOUBLE_EQ(rr.think_mean_s, 0.5);
  EXPECT_DOUBLE_EQ(rr.timeout_s, 3.0);
  EXPECT_EQ(rr.request_bytes, 128);
  const auto hs =
      traffic::parse_traffic_spec("poisson:pattern=hotspot,hotspots=4");
  EXPECT_EQ(hs.pattern, traffic::FlowPattern::kHotspot);
  EXPECT_EQ(hs.hotspots, 4u);
}

TEST(TrafficSpec, SharedPatternKeyWorksForEveryModel) {
  for (const auto& model : traffic::known_traffic_models()) {
    const auto cfg = traffic::parse_traffic_spec(model + ":pattern=sink");
    EXPECT_EQ(cfg.pattern, traffic::FlowPattern::kSink) << model;
  }
}

TEST(TrafficSpec, OutOfRangeParamsRejected) {
  EXPECT_THROW((void)traffic::parse_traffic_spec("cbr:jitter=1"),
               std::invalid_argument);
  EXPECT_THROW((void)traffic::parse_traffic_spec("cbr:jitter=-0.1"),
               std::invalid_argument);
  EXPECT_THROW((void)traffic::parse_traffic_spec("onoff:on=0"),
               std::invalid_argument);
  EXPECT_THROW((void)traffic::parse_traffic_spec("pareto:shape=1"),
               std::invalid_argument);
  EXPECT_THROW((void)traffic::parse_traffic_spec("reqresp:think=0"),
               std::invalid_argument);
  EXPECT_THROW((void)traffic::parse_traffic_spec("reqresp:req=0"),
               std::invalid_argument);
  EXPECT_THROW((void)traffic::parse_traffic_spec("reqresp:req=70000"),
               std::invalid_argument);
  EXPECT_THROW((void)traffic::parse_traffic_spec("poisson:hotspots=0"),
               std::invalid_argument);
  EXPECT_THROW((void)traffic::parse_traffic_spec("poisson:pattern"),
               std::invalid_argument);  // malformed: no key=value
  EXPECT_THROW((void)traffic::parse_traffic_spec("cbr:jitter=abc"),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Flow patterns
// ---------------------------------------------------------------------------

TEST(FlowPatterns, RandomMatchesTheLegacyDraws) {
  // The `random` pattern must reproduce random_flows draw for draw — the
  // bit-identity the pre-subsystem golden hashes ride on.
  sim::RandomStream a(42);
  sim::RandomStream b(42);
  traffic::TrafficConfig cfg;  // pattern defaults to random
  const auto legacy = traffic::random_flows(10, 50, 10.0, a);
  const auto routed = traffic::make_flows(cfg, 10, 50, 10.0, b);
  ASSERT_EQ(legacy.size(), routed.size());
  for (std::size_t i = 0; i < legacy.size(); ++i) {
    EXPECT_EQ(legacy[i].src, routed[i].src);
    EXPECT_EQ(legacy[i].dst, routed[i].dst);
    EXPECT_EQ(legacy[i].id, routed[i].id);
  }
}

TEST(FlowPatterns, SinkConvergesOnOneDestination) {
  sim::RandomStream rng(7);
  traffic::TrafficConfig cfg;
  cfg.pattern = traffic::FlowPattern::kSink;
  const auto flows = traffic::make_flows(cfg, 8, 30, 10.0, rng);
  ASSERT_EQ(flows.size(), 8u);
  std::set<net::NodeId> srcs;
  for (const auto& f : flows) {
    EXPECT_EQ(f.dst, flows[0].dst);
    EXPECT_NE(f.src, f.dst);
    srcs.insert(f.src);
  }
  EXPECT_EQ(srcs.size(), 8u);              // sources distinct
  EXPECT_EQ(srcs.count(flows[0].dst), 0u);  // the sink never sends
}

TEST(FlowPatterns, HotspotSharesKDestinationsRoundRobin) {
  sim::RandomStream rng(9);
  traffic::TrafficConfig cfg;
  cfg.pattern = traffic::FlowPattern::kHotspot;
  cfg.hotspots = 3;
  const auto flows = traffic::make_flows(cfg, 7, 40, 10.0, rng);
  ASSERT_EQ(flows.size(), 7u);
  std::set<net::NodeId> dsts;
  std::set<net::NodeId> srcs;
  for (const auto& f : flows) {
    EXPECT_NE(f.src, f.dst);
    dsts.insert(f.dst);
    srcs.insert(f.src);
  }
  EXPECT_EQ(dsts.size(), 3u);  // exactly k hotspots in play
  EXPECT_EQ(srcs.size(), 7u);  // sources distinct...
  for (const auto s : srcs) EXPECT_EQ(dsts.count(s), 0u);  // ...and disjoint
  // Round-robin assignment: flows i and i+k share a destination.
  for (std::size_t i = 0; i + 3 < flows.size(); ++i) {
    EXPECT_EQ(flows[i].dst, flows[i + 3].dst);
  }
}

TEST(FlowPatterns, RingIsOneCycle) {
  sim::RandomStream rng(11);
  traffic::TrafficConfig cfg;
  cfg.pattern = traffic::FlowPattern::kRing;
  const auto flows = traffic::make_flows(cfg, 6, 20, 10.0, rng);
  ASSERT_EQ(flows.size(), 6u);
  std::set<net::NodeId> srcs;
  std::set<net::NodeId> dsts;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    EXPECT_NE(flows[i].src, flows[i].dst);
    // Each terminal's destination is the next terminal's source.
    EXPECT_EQ(flows[i].dst, flows[(i + 1) % flows.size()].src);
    srcs.insert(flows[i].src);
    dsts.insert(flows[i].dst);
  }
  EXPECT_EQ(srcs, dsts);        // every terminal both sends and receives
  EXPECT_EQ(srcs.size(), 6u);   // once each: a single cycle
}

TEST(FlowPatterns, PopulationRequirementsThrow) {
  sim::RandomStream rng(1);
  traffic::TrafficConfig cfg;
  // random: 2*pairs must fit (the promoted Release-build assert).
  EXPECT_THROW((void)traffic::random_flows(26, 50, 10.0, rng),
               std::invalid_argument);
  EXPECT_THROW((void)traffic::make_flows(cfg, 26, 50, 10.0, rng),
               std::invalid_argument);
  // Zero pairs stays a valid control-overhead-only baseline, any pattern.
  EXPECT_TRUE(traffic::make_flows(cfg, 0, 50, 10.0, rng).empty());
  EXPECT_TRUE(traffic::random_flows(0, 50, 10.0, rng).empty());
  cfg.pattern = traffic::FlowPattern::kSink;  // pairs + 1 sink
  EXPECT_THROW((void)traffic::make_flows(cfg, 50, 50, 10.0, rng),
               std::invalid_argument);
  cfg.pattern = traffic::FlowPattern::kHotspot;  // pairs + k hotspots
  cfg.hotspots = 3;
  EXPECT_THROW((void)traffic::make_flows(cfg, 48, 50, 10.0, rng),
               std::invalid_argument);
  cfg.pattern = traffic::FlowPattern::kRing;  // a cycle needs >= 2, <= nodes
  EXPECT_THROW((void)traffic::make_flows(cfg, 1, 50, 10.0, rng),
               std::invalid_argument);
  EXPECT_THROW((void)traffic::make_flows(cfg, 51, 50, 10.0, rng),
               std::invalid_argument);
}

TEST(FlowPatterns, ErrorMessagesCarryTheArithmetic) {
  sim::RandomStream rng(1);
  try {
    (void)traffic::random_flows(26, 50, 10.0, rng);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("random"), std::string::npos) << msg;
    EXPECT_NE(msg.find("26"), std::string::npos) << msg;
    EXPECT_NE(msg.find("50"), std::string::npos) << msg;
  }
}

// ---------------------------------------------------------------------------
// Model behavior on a tiny static network
// ---------------------------------------------------------------------------

/// A 4-node static network where everyone hears everyone (100 m field,
/// 250 m radios), AODV everywhere — the rig the legacy Poisson tests use.
std::unique_ptr<net::Network> tiny_network(std::uint64_t seed) {
  net::NetworkConfig cfg;
  cfg.num_nodes = 4;
  cfg.mobility.field = mobility::Field{100.0, 100.0};
  cfg.mobility.max_speed_mps = 0.0;
  cfg.seed = seed;
  auto net = std::make_unique<net::Network>(cfg);
  for (net::NodeId id = 0; id < net->size(); ++id) {
    net->node(id).set_protocol(
        std::make_unique<routing::AodvProtocol>(net->node(id)));
  }
  net->start();
  return net;
}

TEST(CbrTrafficTest, ZeroJitterTicksAtExactlyTheRate) {
  auto net = tiny_network(7);
  std::vector<traffic::Flow> flows{{0, 0, 3, 10.0}};
  traffic::CbrTraffic gen(*net, flows, 512, sim::seconds(100),
                          net->rng().stream("traffic"), /*jitter=*/0.0);
  gen.start();
  net->simulator().run_until(sim::seconds(100));
  // One random phase offset in [0, 0.1), then a packet every 100 ms: 1000
  // arrivals land inside [phase, 100).
  EXPECT_NEAR(static_cast<double>(net->metrics().generated()), 1000.0, 1.0);
}

TEST(CbrTrafficTest, JitterPreservesTheMeanRate) {
  auto net = tiny_network(8);
  std::vector<traffic::Flow> flows{{0, 0, 3, 10.0}};
  traffic::CbrTraffic gen(*net, flows, 512, sim::seconds(100),
                          net->rng().stream("traffic"), /*jitter=*/0.5);
  gen.start();
  net->simulator().run_until(sim::seconds(100));
  // Gaps are U[0.05, 0.15] s (mean 0.1): ~1000 arrivals, sd ~ sqrt(n)*cv.
  EXPECT_NEAR(static_cast<double>(net->metrics().generated()), 1000.0, 60.0);
}

TEST(OnOffTrafficTest, BurstsPreserveTheOfferedLoad) {
  harness::ScenarioConfig cfg;
  cfg.protocol = harness::ProtocolKind::kAodv;
  cfg.mean_speed_kmh = 0.0;
  cfg.sim_s = 200.0;
  cfg.num_pairs = 4;
  cfg.seed = 5;
  cfg.traffic = "onoff:on=0.5,off=0.5";
  const auto r = harness::run_scenario(cfg);
  // 4 flows x 10 pkt/s x 200 s = 8000 expected; ON/OFF roughly doubles the
  // Poisson variance, so keep a wide 5-sigma-ish band.
  EXPECT_NEAR(static_cast<double>(r.generated), 8000.0, 700.0);
}

TEST(ParetoTrafficTest, HeavyTailsStillPreserveTheOfferedLoad) {
  harness::ScenarioConfig cfg;
  cfg.protocol = harness::ProtocolKind::kAodv;
  cfg.mean_speed_kmh = 0.0;
  cfg.sim_s = 200.0;
  cfg.num_pairs = 4;
  cfg.seed = 6;
  // shape 2.5 keeps the period variance finite so the sample mean settles
  // inside a testable band (shape 1.5 needs far longer runs).
  cfg.traffic = "pareto:on=0.5,off=0.5,shape=2.5";
  const auto r = harness::run_scenario(cfg);
  EXPECT_NEAR(static_cast<double>(r.generated), 8000.0, 1600.0);
}

TEST(ReqRespTrafficTest, ClosesTheLoopAndBothEndpointsOriginate) {
  auto net = tiny_network(9);
  std::vector<traffic::Flow> flows{{0, 0, 3, 10.0}};
  traffic::ReqRespTraffic gen(*net, flows, 512, sim::seconds(60),
                              net->rng().stream("traffic"),
                              /*think_mean_s=*/0.2, /*timeout_s=*/2.0,
                              /*request_bytes=*/64);
  gen.start();
  net->simulator().run_until(sim::seconds(60));
  const auto& m = net->metrics();
  const auto completed = m.counter("traffic_reqresp_completed");
  const auto timeouts = m.counter("traffic_reqresp_timeouts");
  EXPECT_GT(completed, 0u);
  // Closed loop: at most one request outstanding per flow, every request
  // either completes, times out, or is still in flight at the end — and
  // each cycle originates at most one request and one response.
  EXPECT_LE(m.generated(), 2 * (completed + timeouts) + 2);
  EXPECT_GT(m.delivered(), 0u);
}

TEST(ReqRespTrafficTest, LoadAdaptsToWhatTheNetworkDelivers) {
  // On a partitioned pair the open loop would keep pumping; the closed loop
  // sends one request per timeout window instead.
  net::NetworkConfig ncfg;
  ncfg.num_nodes = 2;
  ncfg.mobility.field = mobility::Field{2000.0, 2000.0};
  ncfg.mobility.max_speed_mps = 0.0;
  ncfg.channel.range_m = 1.0;  // nobody hears anybody
  ncfg.seed = 33;
  net::Network net(ncfg);
  for (net::NodeId id = 0; id < net.size(); ++id) {
    net.node(id).set_protocol(
        std::make_unique<routing::AodvProtocol>(net.node(id)));
  }
  net.start();
  std::vector<traffic::Flow> flows{{0, 0, 1, 10.0}};
  traffic::ReqRespTraffic gen(net, flows, 512, sim::seconds(50),
                              net.rng().stream("traffic"),
                              /*think_mean_s=*/0.1, /*timeout_s=*/1.0,
                              /*request_bytes=*/64);
  gen.start();
  net.simulator().run_until(sim::seconds(50));
  // ~1 request per (think + timeout) ~ 45 over 50 s — nowhere near the
  // 500 packets an open-loop 10 pkt/s flow would have pushed.
  EXPECT_LT(net.metrics().generated(), 100u);
  EXPECT_GT(net.metrics().counter("traffic_reqresp_timeouts"), 10u);
  EXPECT_EQ(net.metrics().delivered(), 0u);
}

// ---------------------------------------------------------------------------
// Per-flow conservation across every model x pattern cell
// ---------------------------------------------------------------------------

class Conservation
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {};

TEST_P(Conservation, PerFlowCountsBalanceAtStop) {
  const auto& [model, pattern] = GetParam();
  harness::ScenarioConfig cfg;
  cfg.protocol = harness::ProtocolKind::kRica;
  cfg.mean_speed_kmh = 36.0;
  cfg.sim_s = 6.0;
  cfg.num_nodes = 30;
  cfg.num_pairs = 4;
  cfg.seed = 0xC0DE;
  // A short think keeps every reqresp flow active inside the 6 s window.
  cfg.traffic = model == "reqresp"
                    ? "reqresp:think=0.2,pattern=" + pattern
                    : model + ":pattern=" + pattern;
  const auto r = harness::run_scenario(cfg);

  ASSERT_FALSE(r.flow_summaries.empty());
  std::uint64_t gen = 0;
  std::uint64_t del = 0;
  std::uint64_t drop = 0;
  for (const auto& fs : r.flow_summaries) {
    SCOPED_TRACE("flow " + std::to_string(fs.flow));
    // generated == delivered + dropped + in-flight, with in-flight >= 0:
    // whatever is neither delivered nor dropped is still buffered or
    // mid-transmission when the clock stops.
    EXPECT_GE(fs.generated, fs.delivered + fs.dropped);
    EXPECT_GT(fs.generated, 0u);
    gen += fs.generated;
    del += fs.delivered;
    drop += fs.dropped;
  }
  // The per-flow table partitions the aggregate counters exactly.
  EXPECT_EQ(gen, r.generated);
  EXPECT_EQ(del, r.delivered);
  std::uint64_t agg_drops = 0;
  for (const auto d : r.drops) agg_drops += d;
  EXPECT_EQ(drop, agg_drops);
  // Kernel observability sanity: every closure in the stack still fits the
  // 128 B inline buffer (the datum behind the sizing decision).
  EXPECT_EQ(r.stat("kernel.heap_fallbacks"), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllModelsAllPatterns, Conservation,
    ::testing::Combine(::testing::ValuesIn(traffic::known_traffic_models()),
                       ::testing::ValuesIn(traffic::known_flow_patterns())),
    [](const ::testing::TestParamInfo<Conservation::ParamType>& info) {
      return std::get<0>(info.param) + "_" + std::get<1>(info.param);
    });

// ---------------------------------------------------------------------------
// Poisson-on-random-pairs is bit-identical to the pre-subsystem default
// ---------------------------------------------------------------------------

TEST(TrafficDefault, PoissonSpecIsBitIdenticalToTheDefault) {
  harness::ScenarioConfig cfg;
  cfg.protocol = harness::ProtocolKind::kRica;
  cfg.mean_speed_kmh = 36.0;
  cfg.sim_s = 5.0;
  cfg.seed = 0x90140ULL;
  const auto base = harness::run_scenario(cfg);
  cfg.traffic = "poisson";
  const auto spelled = harness::run_scenario(cfg);
  cfg.traffic = "poisson:pattern=random";
  const auto patterned = harness::run_scenario(cfg);
  EXPECT_EQ(base.stream_hash, spelled.stream_hash);
  EXPECT_EQ(base.stream_hash, patterned.stream_hash);
  EXPECT_EQ(base.generated, patterned.generated);
  EXPECT_EQ(base.stats, patterned.stats);
}

TEST(TrafficDefault, TrialSeedsIgnoreTheDefaultSpecOnly) {
  harness::ScenarioConfig cfg;
  const auto base = harness::trial_seed(cfg, 0);
  cfg.traffic = "poisson";
  EXPECT_EQ(harness::trial_seed(cfg, 0), base);
  cfg.traffic = "poisson:pattern=random";
  EXPECT_EQ(harness::trial_seed(cfg, 0), base);
  // Departing from the default re-seeds the cell...
  cfg.traffic = "cbr";
  const auto cbr = harness::trial_seed(cfg, 0);
  EXPECT_NE(cbr, base);
  cfg.traffic = "poisson:pattern=sink";
  EXPECT_NE(harness::trial_seed(cfg, 0), base);
  // ...and distinct params give distinct seeds.
  cfg.traffic = "cbr:jitter=0.5";
  EXPECT_NE(harness::trial_seed(cfg, 0), cbr);
}

// ---------------------------------------------------------------------------
// Fairness and percentile metrics
// ---------------------------------------------------------------------------

TEST(FairnessMetrics, JainIndexBoundaryCases) {
  EXPECT_DOUBLE_EQ(stats::jain_index({}), 0.0);
  EXPECT_DOUBLE_EQ(stats::jain_index({5.0, 5.0, 5.0, 5.0}), 1.0);
  EXPECT_DOUBLE_EQ(stats::jain_index({1.0, 0.0, 0.0, 0.0}), 0.25);
  EXPECT_DOUBLE_EQ(stats::jain_index({0.0, 0.0}), 1.0);  // uniformly starved
  EXPECT_NEAR(stats::jain_index({4.0, 2.0}), 0.9, 1e-12);
}

TEST(FairnessMetrics, NearestRankPercentiles) {
  EXPECT_DOUBLE_EQ(stats::percentile({}, 50.0), 0.0);
  const std::vector<double> xs{5.0, 1.0, 4.0, 2.0, 3.0};
  EXPECT_DOUBLE_EQ(stats::percentile(xs, 50.0), 3.0);
  EXPECT_DOUBLE_EQ(stats::percentile(xs, 95.0), 5.0);
  EXPECT_DOUBLE_EQ(stats::percentile(xs, 100.0), 5.0);
  EXPECT_DOUBLE_EQ(stats::percentile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(stats::percentile({7.0}, 99.0), 7.0);
}

TEST(FairnessMetrics, SummaryCarriesPerFlowPercentilesAndFairness) {
  stats::MetricsCollector m;
  net::DataPacket p;
  p.size_bytes = 500;
  p.gen_time = sim::Time::zero();
  // Flow 0: delivered at 10, 20, 30 ms.  Flow 1: one delivery at 40 ms,
  // one drop.  Flow 2: generated only.
  for (int i = 0; i < 3; ++i) {
    p.flow = 0;
    m.on_generated(p);
  }
  p.flow = 1;
  m.on_generated(p);
  m.on_generated(p);
  p.flow = 2;
  m.on_generated(p);
  p.flow = 0;
  m.on_delivered(p, sim::milliseconds(10));
  m.on_delivered(p, sim::milliseconds(20));
  m.on_delivered(p, sim::milliseconds(30));
  p.flow = 1;
  m.on_delivered(p, sim::milliseconds(40));
  m.on_dropped(p, stats::DropReason::kExpired);

  const auto s = m.finalize(sim::seconds(10));
  // Delays live in log-bucketed histograms now; a percentile reports the
  // selected bucket's representative (upper edge, <= 1/32 above the value).
  const auto rep_ms = [](std::int64_t ms) {
    return static_cast<double>(obs::LogHistogram::representative(
               sim::milliseconds(ms).nanos())) /
           1e6;
  };
  ASSERT_EQ(s.flow_summaries.size(), 3u);
  EXPECT_EQ(s.flow_summaries[0].flow, 0u);
  EXPECT_EQ(s.flow_summaries[0].generated, 3u);
  EXPECT_EQ(s.flow_summaries[0].delivered, 3u);
  EXPECT_DOUBLE_EQ(s.flow_summaries[0].delay_p50_ms, rep_ms(20));
  EXPECT_DOUBLE_EQ(s.flow_summaries[0].delay_p99_ms, rep_ms(30));
  EXPECT_DOUBLE_EQ(s.flow_summaries[0].tput_kbps, 3 * 500 * 8.0 / 10.0 / 1e3);
  EXPECT_EQ(s.flow_summaries[1].dropped, 1u);
  EXPECT_EQ(s.flow_summaries[2].delivered, 0u);
  EXPECT_DOUBLE_EQ(s.flow_summaries[2].tput_kbps, 0.0);
  // Pooled percentiles span all four deliveries.
  EXPECT_DOUBLE_EQ(s.delay_p50_ms, rep_ms(20));
  EXPECT_DOUBLE_EQ(s.delay_p99_ms, rep_ms(40));
  // Jain over (1.2, 0.4, 0) kbps: (1.6)^2 / (3 * (1.44 + 0.16)).
  EXPECT_NEAR(s.jain_fairness, 1.6 * 1.6 / (3.0 * 1.6), 1e-12);
}

TEST(FairnessMetrics, EpochResetClearsPerFlowState) {
  stats::MetricsCollector m;
  net::DataPacket p;
  p.flow = 0;
  m.on_generated(p);
  m.on_delivered(p, sim::milliseconds(5));
  m.reset_epoch(sim::seconds(1));
  const auto s = m.finalize(sim::seconds(2));
  EXPECT_TRUE(s.flow_summaries.empty());
  EXPECT_DOUBLE_EQ(s.delay_p95_ms, 0.0);
  EXPECT_DOUBLE_EQ(s.jain_fairness, 0.0);
}

TEST(FairnessMetrics, SinkPatternIsLessFairThanRandomPairs) {
  // Convergecast funnels every flow into one receiver's neighborhood; the
  // shared bottleneck should show up as a lower Jain index than disjoint
  // random pairs under the same load.
  harness::ScenarioConfig cfg;
  cfg.protocol = harness::ProtocolKind::kRica;
  cfg.mean_speed_kmh = 36.0;
  cfg.sim_s = 20.0;
  cfg.pkts_per_s = 20.0;
  cfg.seed = 3;
  const auto random = harness::run_scenario(cfg);
  cfg.traffic = "poisson:pattern=sink";
  const auto sink = harness::run_scenario(cfg);
  EXPECT_GT(random.jain_fairness, 0.5);
  EXPECT_LT(sink.jain_fairness, random.jain_fairness + 0.05);
  EXPECT_GT(sink.generated, 0u);
}

// ---------------------------------------------------------------------------
// Sweep traffic axis
// ---------------------------------------------------------------------------

void expect_identical(const harness::ScenarioResult& a,
                      const harness::ScenarioResult& b) {
  EXPECT_EQ(a.stream_hash, b.stream_hash);
  EXPECT_EQ(a.generated, b.generated);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.avg_delay_ms, b.avg_delay_ms);
  EXPECT_EQ(a.overhead_kbps, b.overhead_kbps);
  EXPECT_EQ(a.delay_p95_ms, b.delay_p95_ms);
  EXPECT_EQ(a.jain_fairness, b.jain_fairness);
  EXPECT_EQ(a.stats, b.stats);
}

TEST(TrafficSweep, TrafficAxisBitIdenticalToSerial) {
  harness::BenchScale serial{};
  serial.trials = 1;
  serial.sim_s = 2.0;
  serial.seed = 13;
  serial.threads = 1;
  serial.verbose = false;

  harness::BenchScale parallel = serial;
  parallel.threads = 4;

  const std::vector<double> speeds{36.0};
  const std::vector<double> loads{10.0};
  const std::vector<std::string> mobilities{"waypoint"};
  const std::vector<std::string> traffics{"poisson", "cbr",
                                          "onoff:on=0.5,off=0.5"};
  const auto grid_serial =
      harness::run_speed_sweep(speeds, loads, mobilities, traffics, serial);
  const auto grid_parallel =
      harness::run_speed_sweep(speeds, loads, mobilities, traffics, parallel);

  ASSERT_EQ(grid_serial.size(), grid_parallel.size());
  ASSERT_EQ(grid_serial.size(),
            traffics.size() * harness::kAllProtocols.size());
  for (std::size_t i = 0; i < grid_serial.size(); ++i) {
    SCOPED_TRACE("cell " + std::to_string(i) + " (" + grid_serial[i].traffic +
                 ")");
    EXPECT_EQ(grid_serial[i].protocol, grid_parallel[i].protocol);
    EXPECT_EQ(grid_serial[i].traffic, grid_parallel[i].traffic);
    expect_identical(grid_serial[i].result, grid_parallel[i].result);
  }
}

TEST(TrafficSweep, SingleAxisOverloadUsesTheScaleTrafficSpec) {
  harness::BenchScale scale{};
  scale.trials = 1;
  scale.sim_s = 2.0;
  scale.seed = 4;
  scale.threads = 1;
  scale.verbose = false;
  scale.traffic = "cbr";
  const auto grid = harness::run_speed_sweep({36.0}, {10.0}, scale);
  ASSERT_EQ(grid.size(), harness::kAllProtocols.size());
  for (const auto& cell : grid) {
    EXPECT_EQ(cell.traffic, "cbr");
    EXPECT_GT(cell.result.generated, 0u);
  }
}

TEST(TrafficSweep, UnknownTrafficThrowsBeforeRunning) {
  harness::BenchScale scale{};
  scale.trials = 1;
  scale.sim_s = 1.0;
  scale.seed = 1;
  scale.verbose = false;
  EXPECT_THROW(harness::run_speed_sweep({0.0}, {10.0}, {"waypoint"},
                                        {"warpdrive"}, scale),
               std::invalid_argument);
}

}  // namespace
}  // namespace rica
