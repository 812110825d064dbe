// Parameterized property suites: invariants that must hold for every
// protocol across the mobility/load grid, channel-model properties swept
// over configurations (including the fading law under skipped samples), and
// the common-channel MAC's collision verdicts and carrier sense against a
// brute-force interval-overlap oracle.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <ostream>
#include <string>
#include <tuple>
#include <variant>
#include <vector>

#include "channel/channel_model.hpp"
#include "harness/scenario.hpp"
#include "mac/common_channel.hpp"
#include "mobility/mobility_model.hpp"
#include "net/packet.hpp"
#include "obs/trace.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "stats/metrics.hpp"

namespace rica {
namespace {

// ---------------------------------------------------------------------------
// Protocol grid invariants
// ---------------------------------------------------------------------------

using GridParam = std::tuple<harness::ProtocolKind, double, double>;

class ProtocolGrid : public ::testing::TestWithParam<GridParam> {};

TEST_P(ProtocolGrid, ConservationAndSanity) {
  const auto [proto, speed, rate] = GetParam();
  harness::ScenarioConfig cfg;
  cfg.protocol = proto;
  cfg.mean_speed_kmh = speed;
  cfg.pkts_per_s = rate;
  cfg.sim_s = 20.0;
  cfg.seed = 21;
  const auto r = harness::run_scenario(cfg);

  // Packet conservation: every generated packet is delivered, dropped, or
  // still in flight at the horizon — never duplicated.
  std::uint64_t dropped = 0;
  for (const auto d : r.drops) dropped += d;
  EXPECT_LE(r.delivered + dropped, r.generated);
  EXPECT_GT(r.generated, 0u);

  // Metric ranges.
  EXPECT_GE(r.delivery_pct, 0.0);
  EXPECT_LE(r.delivery_pct, 100.0);
  if (r.delivered > 0) {
    EXPECT_GT(r.avg_delay_ms, 0.0);
    EXPECT_LT(r.avg_delay_ms, 3200.0);  // residency bound caps queueing
    EXPECT_GE(r.avg_hops, 1.0);
    // Per-hop throughput is a convex combination of the class rates.
    EXPECT_GE(r.avg_link_tput_kbps, 50.0 - 1e-9);
    EXPECT_LE(r.avg_link_tput_kbps, 250.0 + 1e-9);
  }
  EXPECT_GE(r.overhead_kbps, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocolsSpeedsLoads, ProtocolGrid,
    ::testing::Combine(
        ::testing::Values(harness::ProtocolKind::kRica,
                          harness::ProtocolKind::kBgca,
                          harness::ProtocolKind::kAbr,
                          harness::ProtocolKind::kAodv,
                          harness::ProtocolKind::kLinkState),
        ::testing::Values(0.0, 36.0, 72.0), ::testing::Values(10.0, 20.0)),
    [](const ::testing::TestParamInfo<GridParam>& info) {
      // Note: no structured bindings here — the unparenthesized commas
      // would split the surrounding macro's arguments.
      return std::string(harness::to_string(std::get<0>(info.param))) + "_v" +
             std::to_string(static_cast<int>(std::get<1>(info.param))) +
             "_r" +
             std::to_string(static_cast<int>(std::get<2>(info.param)));
    });

// ---------------------------------------------------------------------------
// Determinism across the grid
// ---------------------------------------------------------------------------

class DeterminismGrid
    : public ::testing::TestWithParam<harness::ProtocolKind> {};

TEST_P(DeterminismGrid, SameSeedSameResult) {
  harness::ScenarioConfig cfg;
  cfg.protocol = GetParam();
  cfg.mean_speed_kmh = 45.0;
  cfg.sim_s = 15.0;
  cfg.seed = 33;
  const auto a = harness::run_scenario(cfg);
  const auto b = harness::run_scenario(cfg);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.control_transmissions, b.control_transmissions);
  EXPECT_DOUBLE_EQ(a.avg_delay_ms, b.avg_delay_ms);
  EXPECT_DOUBLE_EQ(a.avg_hops, b.avg_hops);
}

INSTANTIATE_TEST_SUITE_P(
    AllProtocols, DeterminismGrid,
    ::testing::Values(harness::ProtocolKind::kRica,
                      harness::ProtocolKind::kBgca,
                      harness::ProtocolKind::kAbr,
                      harness::ProtocolKind::kAodv,
                      harness::ProtocolKind::kLinkState),
    [](const ::testing::TestParamInfo<harness::ProtocolKind>& info) {
      return std::string(harness::to_string(info.param));
    });

// ---------------------------------------------------------------------------
// Channel-model properties over configurations
// ---------------------------------------------------------------------------

class ChannelSigmaSweep : public ::testing::TestWithParam<double> {};

TEST_P(ChannelSigmaSweep, SnrVarianceTracksConfiguredSigma) {
  const double sigma = GetParam();
  sim::RngManager rng(55);
  mobility::MobilityConfig wp;
  wp.field = mobility::Field{1.0, 1.0};  // co-located pairs: no path loss
  wp.max_speed_mps = 0.0;
  mobility::MobilityManager mgr(400, wp, rng);
  channel::ChannelConfig cfg;
  cfg.shadow_sigma_db = sigma;
  cfg.fading_sigma_db = 0.0;
  channel::ChannelModel ch(cfg, mgr, rng);

  double sum = 0.0;
  double sq = 0.0;
  int n = 0;
  for (std::uint32_t i = 0; i + 1 < 400; i += 2) {
    const auto s = ch.sample(i, i + 1, sim::Time::zero());
    ASSERT_TRUE(s.has_value());
    sum += s->snr_db;
    sq += s->snr_db * s->snr_db;
    ++n;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, cfg.snr0_db, 1.5) << "sigma=" << sigma;
  EXPECT_NEAR(std::sqrt(std::max(var, 0.0)), sigma, 0.15 * sigma + 0.5);
}

INSTANTIATE_TEST_SUITE_P(Sigmas, ChannelSigmaSweep,
                         ::testing::Values(2.0, 4.0, 8.0, 12.0));

class ChannelExponentSweep : public ::testing::TestWithParam<double> {};

TEST_P(ChannelExponentSweep, MeanSnrFallsWithConfiguredSlope) {
  const double exponent = GetParam();
  sim::RngManager rng(56);
  mobility::MobilityConfig wp;
  wp.field = mobility::Field{1000.0, 1000.0};
  wp.max_speed_mps = 0.0;
  mobility::MobilityManager mgr(2, wp, rng);
  channel::ChannelConfig cfg;
  cfg.path_loss_exponent = exponent;
  cfg.shadow_sigma_db = 0.0;
  cfg.fading_sigma_db = 0.0;
  cfg.range_m = 1e9;  // disable the range gate for this physics check
  channel::ChannelModel ch(cfg, mgr, rng);

  const double d = mgr.node_distance(0, 1, sim::Time::zero());
  const auto s = ch.sample(0, 1, sim::Time::zero());
  ASSERT_TRUE(s.has_value());
  EXPECT_NEAR(s->snr_db, cfg.snr0_db - 10.0 * exponent * std::log10(d), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Exponents, ChannelExponentSweep,
                         ::testing::Values(2.0, 2.5, 3.0, 4.0));

// The AR(1) step over distance m is the exact discretization of an
// Ornstein-Uhlenbeck process: steps over m1 and m2 compose to one step over
// m1 + m2.  So a sample nobody takes (a relay skipping a duplicate's link
// measurement) must not change the law of later samples.  Across seeds, the
// pair is sampled at {t0, t2} and at {t0, t1, t2}; both schemes must show
// the stationary variance and corr(x(t0), x(t2)) = exp(-m / D).

/// One disturbance term in isolation: its sigma and decorrelation distance,
/// and the three sample instants (seconds).
struct OuCase {
  const char* name;
  double shadow_sigma_db;
  double fading_sigma_db;
  double decorr_m;
  double t0_s, t1_s, t2_s;
};

void PrintTo(const OuCase& c, std::ostream* os) { *os << c.name; }

class ChannelObservationInvariance : public ::testing::TestWithParam<OuCase> {
};

/// Sample moments of paired observations.
struct Moments {
  double n = 0, sx = 0, sy = 0, sxx = 0, syy = 0, sxy = 0;
  void add(double x, double y) {
    n += 1;
    sx += x;
    sy += y;
    sxx += x * x;
    syy += y * y;
    sxy += x * y;
  }
  [[nodiscard]] double var_y() const { return syy / n - (sy / n) * (sy / n); }
  [[nodiscard]] double corr() const {
    const double cxy = sxy / n - (sx / n) * (sy / n);
    const double vx = sxx / n - (sx / n) * (sx / n);
    return cxy / std::sqrt(vx * var_y());
  }
};

TEST_P(ChannelObservationInvariance, SkippedSampleLeavesLawUnchanged) {
  const OuCase c = GetParam();
  // Two nodes 100 m apart moving in parallel at 5 m/s each for 200 s, so
  // the pair's decorrelation speed (the sum of the speeds) is a constant
  // 10 m/s within one leg.
  const std::string path = (std::filesystem::temp_directory_path() /
                            (std::string("rica_ou_") + c.name + ".trace"))
                               .string();
  {
    std::ofstream f(path);
    f << "0 100 100 200 1100 100\n0 100 200 200 1100 200\n";
  }
  mobility::MobilityConfig wcfg;
  wcfg.model = mobility::ModelKind::kTrace;
  wcfg.trace_file = path;
  wcfg.field = mobility::Field{2000.0, 2000.0};
  mobility::MobilityManager mob(2, wcfg, sim::RngManager(1));
  std::remove(path.c_str());

  channel::ChannelConfig ccfg;
  ccfg.shadow_sigma_db = c.shadow_sigma_db;
  ccfg.fading_sigma_db = c.fading_sigma_db;
  ccfg.shadow_decorr_m = c.decorr_m;
  ccfg.fading_decorr_m = c.decorr_m;
  const double sigma = c.shadow_sigma_db + c.fading_sigma_db;  // one is 0
  const double rho = std::exp(-10.0 * (c.t2_s - c.t0_s) / c.decorr_m);

  constexpr int kSeeds = 4000;
  Moments two;    // (x(t0), x(t2)) sampled at {t0, t2}
  Moments three;  // (x(t0), x(t2)) sampled at {t0, t1, t2}
  for (int seed = 0; seed < kSeeds; ++seed) {
    const sim::RngManager rng(static_cast<std::uint64_t>(seed));
    channel::ChannelModel a(ccfg, mob, rng);
    channel::ChannelModel b(ccfg, mob, rng);
    const auto a0 = a.sample(0, 1, sim::seconds_f(c.t0_s));
    const auto a2 = a.sample(0, 1, sim::seconds_f(c.t2_s));
    const auto b0 = b.sample(0, 1, sim::seconds_f(c.t0_s));
    ASSERT_TRUE(b.sample(0, 1, sim::seconds_f(c.t1_s)).has_value());
    const auto b2 = b.sample(0, 1, sim::seconds_f(c.t2_s));
    ASSERT_TRUE(a0 && a2 && b0 && b2);
    ASSERT_EQ(a0->snr_db, b0->snr_db);  // same key, same first draws
    two.add(a0->snr_db, a2->snr_db);
    three.add(b0->snr_db, b2->snr_db);
  }
  // Standard errors at 4000 seeds: variance ~2.2%, correlation ~0.012.
  const double var = sigma * sigma;
  EXPECT_NEAR(two.var_y() / var, 1.0, 0.09);
  EXPECT_NEAR(three.var_y() / var, 1.0, 0.09);
  EXPECT_NEAR(two.var_y() / three.var_y(), 1.0, 0.12);
  EXPECT_NEAR(two.corr(), rho, 0.05);
  EXPECT_NEAR(three.corr(), rho, 0.05);
}

INSTANTIATE_TEST_SUITE_P(
    Terms, ChannelObservationInvariance,
    ::testing::Values(OuCase{"shadowing", 8.0, 0.0, 50.0, 10.0, 11.5, 13.5},
                      OuCase{"fading", 0.0, 5.0, 2.0, 10.0, 10.06, 10.14}),
    [](const ::testing::TestParamInfo<OuCase>& info) {
      return std::string(info.param.name);
    });

// ---------------------------------------------------------------------------
// Mobility properties over speeds
// ---------------------------------------------------------------------------

class MobilitySpeedSweep : public ::testing::TestWithParam<double> {};

TEST_P(MobilitySpeedSweep, NodesStayInFieldAndUnderSpeedLimit) {
  const double max_speed = GetParam();
  sim::RngManager rng(57);
  mobility::MobilityConfig cfg;
  cfg.field = mobility::Field{1000.0, 1000.0};
  cfg.max_speed_mps = max_speed;
  mobility::MobilityManager mgr(10, cfg, rng);
  for (std::uint32_t n = 0; n < 10; ++n) {
    mobility::Vec2 prev = mgr.position(n, sim::Time::zero());
    for (int t = 1; t <= 120; ++t) {
      const auto p = mgr.position(n, sim::seconds(t));
      EXPECT_TRUE(cfg.field.contains(p));
      EXPECT_LE(mobility::distance(prev, p), max_speed + 1e-9);
      prev = p;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Speeds, MobilitySpeedSweep,
                         ::testing::Values(0.0, 5.0, 20.0, 40.0));

// ---------------------------------------------------------------------------
// Common-channel MAC vs a brute-force interval-overlap oracle
// ---------------------------------------------------------------------------

/// One MAC-visible happening, in the order the run produced it.
struct MacEvent {
  enum class Kind { kTx, kLost, kRx, kProbe };
  Kind kind;
  sim::Time at;
  net::NodeId node = 0;    ///< sender (kTx), receiver (kLost/kRx), probed
  net::NodeId peer = 0;    ///< transmitter (kRx)
  std::uint32_t seq = 0;   ///< packet id (kTx, kLost, kRx)
  std::uint32_t bytes = 0; ///< frame size (kTx)
  bool busy = false;       ///< the MAC's carrier-sense answer (kProbe)
};

/// Appends the MAC's control_tx / control_lost route records to the log.
class MacEventSink final : public obs::TraceSink {
 public:
  explicit MacEventSink(std::vector<MacEvent>& log) : log_(log) {}
  void on_packet(const obs::PacketTrace&) override {}
  void on_kernel(const obs::KernelTrace&) override {}
  void on_route(const obs::RouteTrace& rec) override {
    if (rec.stage == "control_tx") {
      log_.push_back({MacEvent::Kind::kTx, rec.at, rec.node, 0, rec.bid,
                      rec.bytes});
    } else if (rec.stage == "control_lost") {
      log_.push_back({MacEvent::Kind::kLost, rec.at, rec.node, 0, rec.bid});
    }
  }

 private:
  std::vector<MacEvent>& log_;
};

/// What the oracle sweep exercised, summed over every run.
struct MacCoverage {
  std::uint64_t receptions = 0;
  std::uint64_t collisions = 0;
  std::uint64_t start_end_ties = 0;   ///< a start at another's end instant
  std::uint64_t same_start_ties = 0;  ///< two starts at one receiver
  std::uint64_t half_duplex = 0;      ///< receiver's own frame overlapped
  std::uint64_t unicast_retries = 0;
  std::uint64_t busy_probes = 0;
  std::uint64_t idle_probes = 0;
};

/// One random run: 3-10 nodes over a field a few ranges wide (so hidden
/// terminals are common), LSU broadcasts and unicasts of random size (some
/// longer than 50 ms on the air), and carrier-sense probes at random
/// instants.  With `ties`, the backoff is fixed on the 160 us grid every LSU
/// airtime lies on, so starts, ends, attempts and probes collide on the same
/// timestamps.  With `mobile`, nodes move fast enough that coverage changes
/// between a frame's start and a later one's — the only way a node can
/// start transmitting under a frame it is receiving (half duplex) without
/// a same-instant tie.
void check_mac_against_oracle(std::uint64_t seed, bool ties, bool mobile,
                              MacCoverage& cov) {
  SCOPED_TRACE(::testing::Message() << "seed " << seed << " ties " << ties
                                    << " mobile " << mobile);
  sim::RandomStream draw(sim::splitmix64(seed));
  const auto n = static_cast<net::NodeId>(draw.uniform_int(3, 10));
  mobility::MobilityConfig wcfg;
  wcfg.field = mobility::Field{draw.uniform(300.0, 800.0),
                               draw.uniform(150.0, 500.0)};
  wcfg.max_speed_mps = mobile ? 250.0 : 0.0;
  wcfg.pause = sim::Time::zero();
  sim::RngManager rng(seed);
  mobility::MobilityManager mob(n, wcfg, rng);
  // The oracle's own copy of the trajectories, queried in time order.
  mobility::MobilityManager oracle_mob(n, wcfg, rng);
  channel::ChannelModel channel(channel::ChannelConfig{}, mob, rng);
  sim::Simulator sim;
  stats::MetricsCollector metrics;

  const sim::Time quantum = sim::microseconds(160);
  mac::CommonChannelConfig mcfg;
  if (ties) {
    mcfg.backoff_min = quantum * draw.uniform_int(1, 6);
    mcfg.backoff_max = mcfg.backoff_min;
  }
  mcfg.unicast_attempts = static_cast<int>(draw.uniform_int(1, 4));
  mac::CommonChannelMac mac(sim, channel, rng, metrics, mcfg);

  std::vector<MacEvent> log;
  MacEventSink sink(log);
  metrics.tracer().attach(&sink, obs::TraceFilter::kRoute);
  for (net::NodeId id = 0; id < n; ++id) {
    mac.register_node(id, [&log, &sim, id](const net::ControlPacket& pkt,
                                           net::NodeId from) {
      log.push_back({MacEvent::Kind::kRx, sim.now(), id, from,
                     std::get<net::LsuMsg>(pkt.payload).seq});
    });
  }

  const auto random_time = [&](std::int64_t grid_steps) {
    return ties ? quantum * draw.uniform_int(0, grid_steps)
                : sim::Time{draw.uniform_int(0, (quantum * grid_steps).nanos())};
  };
  std::vector<net::NodeId> target;  // by seq
  const auto packets = draw.uniform_int(20, 80);
  for (std::uint32_t seq = 0; seq < packets; ++seq) {
    const auto from = static_cast<net::NodeId>(draw.uniform_int(0, n - 1));
    auto to = net::kBroadcastId;
    if (draw.chance(0.4)) {
      to = static_cast<net::NodeId>(draw.uniform_int(0, n - 2));
      if (to >= from) ++to;
    }
    net::LsuMsg m;
    m.origin = from;
    m.seq = seq;
    const auto links = draw.chance(0.05) ? draw.uniform_int(320, 420)
                                         : draw.uniform_int(0, 40);
    for (std::int64_t i = 0; i < links; ++i) {
      m.links.emplace_back(static_cast<net::NodeId>(i), channel::CsiClass::B);
    }
    target.push_back(to);
    sim.at(random_time(2000),
           [&mac, from, pkt = net::make_control(to, std::move(m))]() mutable {
             mac.send(from, std::move(pkt));
           });
  }
  for (int k = 0; k < 300; ++k) {
    const auto node = static_cast<net::NodeId>(draw.uniform_int(0, n - 1));
    sim.at(random_time(2500), [&log, &sim, &mac, node] {
      log.push_back({MacEvent::Kind::kProbe, sim.now(), node, 0, 0, 0,
                     mac.carrier_busy(node)});
    });
  }
  sim.run_until(sim::seconds(20));

  // -- the oracle: coverage at each frame's start (brute-force distances)
  // and half-open airtime intervals ----------------------------------------
  const double range = channel.config().range_m;
  struct Tx {
    net::NodeId sender;
    sim::Time start;
    sim::Time end;
    std::uint32_t seq;
    std::size_t pos;
    std::vector<bool> covered;  ///< by node: in range at start, or sender
  };
  const auto covers = [](const Tx& tx, net::NodeId r) {
    return tx.covered[r];
  };
  std::vector<Tx> txs;
  // (receiver, seq, end) names one reception: a sender's attempts at one
  // packet never end at the same instant.
  using RxKey = std::tuple<net::NodeId, std::uint32_t, sim::Time>;
  std::map<RxKey, std::size_t> verdict_at;
  std::vector<int> attempts(target.size(), 0);
  for (std::size_t pos = 0; pos < log.size(); ++pos) {
    const auto& e = log[pos];
    if (e.kind == MacEvent::Kind::kTx) {
      std::vector<bool> covered(n);
      for (net::NodeId r = 0; r < n; ++r) {
        covered[r] =
            r == e.node || oracle_mob.node_distance(e.node, r, e.at) <= range;
      }
      txs.push_back(
          {e.node, e.at,
           e.at + mac.airtime(static_cast<std::uint16_t>(e.bytes)), e.seq,
           pos, std::move(covered)});
      ++attempts[e.seq];
    } else if (e.kind == MacEvent::Kind::kLost ||
               e.kind == MacEvent::Kind::kRx) {
      ASSERT_TRUE(verdict_at.emplace(RxKey{e.node, e.seq, e.at}, pos).second)
          << "two verdicts for one reception at t=" << e.at.nanos();
    }
  }

  // Every packet went out; unicasts retry at most the configured times.
  for (std::uint32_t seq = 0; seq < target.size(); ++seq) {
    ASSERT_GE(attempts[seq], 1) << "packet " << seq << " never sent";
    if (target[seq] == net::kBroadcastId) {
      EXPECT_EQ(attempts[seq], 1);
    } else {
      EXPECT_LE(attempts[seq], mcfg.unicast_attempts);
      cov.unicast_retries += static_cast<std::uint64_t>(attempts[seq] - 1);
    }
  }

  std::size_t eligible = 0;
  std::uint64_t lost = 0;
  for (const auto& t : txs) {
    // Carrier sense at the start: nothing covering the sender, its own
    // frames included, that started earlier in the log is still on the air.
    for (const auto& u : txs) {
      if (u.pos >= t.pos || !covers(u, t.sender)) continue;
      EXPECT_FALSE(t.start < u.end)
          << "node " << t.sender << " started at " << t.start.nanos()
          << " while a frame from " << u.sender << " was on the air";
    }
    const auto to = target[t.seq];
    for (net::NodeId r = 0; r < n; ++r) {
      if (r == t.sender || !covers(t, r)) continue;
      if (to != net::kBroadcastId && to != r) continue;
      ++eligible;
      const auto it = verdict_at.find(RxKey{r, t.seq, t.end});
      ASSERT_NE(it, verdict_at.end())
          << "no verdict for packet " << t.seq << " at node " << r;
      bool collided = false;
      for (const auto& u : txs) {
        if (u.pos == t.pos || !covers(u, r)) continue;
        // Overlap of half-open airtimes; touching is not overlapping.
        if (u.start < t.end && t.start < u.end) {
          collided = true;
          if (u.sender == r) ++cov.half_duplex;
        }
        if (u.start == t.start) ++cov.same_start_ties;
        // Half duplex at the end instant: r started before the verdict.
        if (u.sender == r && u.start == t.end) {
          ++cov.start_end_ties;
          if (u.pos < it->second) collided = true;
        }
      }
      const auto& verdict = log[it->second];
      EXPECT_EQ(verdict.kind == MacEvent::Kind::kLost, collided)
          << "packet " << t.seq << " from " << t.sender << " at node " << r
          << " over [" << t.start.nanos() << ", " << t.end.nanos() << ")";
      if (verdict.kind == MacEvent::Kind::kRx) {
        EXPECT_EQ(verdict.peer, t.sender);
      }
      lost += collided ? 1 : 0;
    }
  }
  EXPECT_EQ(verdict_at.size(), eligible) << "verdicts for non-receptions";
  EXPECT_EQ(metrics.finalize(sim::seconds(20)).control_collisions, lost);
  cov.receptions += eligible;
  cov.collisions += lost;

  // Carrier sense at the probes: busy iff a frame covering the node that
  // started earlier in the log has not ended.  A probe at the end instant
  // of the node's own frame may run before or after that frame's end event,
  // which the log does not show, so it is skipped.
  for (std::size_t pos = 0; pos < log.size(); ++pos) {
    const auto& p = log[pos];
    if (p.kind != MacEvent::Kind::kProbe) continue;
    bool busy = false;
    bool ambiguous = false;
    for (const auto& u : txs) {
      if (u.pos >= pos || !covers(u, p.node)) continue;
      if (p.at < u.end) busy = true;
      if (u.sender == p.node && u.end == p.at) ambiguous = true;
    }
    if (ambiguous) continue;
    EXPECT_EQ(p.busy, busy) << "probe of node " << p.node << " at "
                            << p.at.nanos();
    ++(busy ? cov.busy_probes : cov.idle_probes);
  }
}

TEST(MacOracle, VerdictsAndCarrierSenseMatchBruteForceOverlap) {
  MacCoverage cov;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    check_mac_against_oracle(seed, /*ties=*/seed % 2 == 0,
                             /*mobile=*/seed % 4 >= 2, cov);
  }
  // The sweep must actually reach the cases the oracle distinguishes.
  EXPECT_GT(cov.collisions, 100u);
  EXPECT_GT(cov.receptions - cov.collisions, 100u);
  EXPECT_GT(cov.start_end_ties, 0u);
  EXPECT_GT(cov.same_start_ties, 0u);
  EXPECT_GT(cov.half_duplex, 0u);
  EXPECT_GT(cov.unicast_retries, 0u);
  EXPECT_GT(cov.busy_probes, 100u);
  EXPECT_GT(cov.idle_probes, 100u);
}

}  // namespace
}  // namespace rica
