// MAC layer: common-channel CSMA/CA (airtime, broadcast delivery, carrier
// sense, hidden-terminal and half-duplex collisions, long-frame overlaps,
// queue bound, unicast retransmission) and the per-link CDMA data
// transmitter (rate by class, ACK accounting, buffer bound, residency
// expiry, retry-then-break).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "mac/common_channel.hpp"
#include "mac/link_transmitter.hpp"
#include "mobility/mobility_model.hpp"
#include "net/packet.hpp"

namespace rica::mac {
namespace {

/// A fixed 5-node world: we pin positions by using a tiny field so nodes are
/// co-located (all in range), or a huge field so they are scattered.
struct World {
  explicit World(double field_side, std::size_t n = 5, std::uint64_t seed = 3)
      : rng(seed),
        mobility(n, waypoint(field_side), rng),
        channel(channel::ChannelConfig{}, mobility, rng) {}

  static mobility::MobilityConfig waypoint(double side) {
    mobility::MobilityConfig cfg;
    cfg.field = mobility::Field{side, side};
    cfg.max_speed_mps = 0.0;  // static
    return cfg;
  }

  sim::RngManager rng;
  mobility::MobilityManager mobility;
  channel::ChannelModel channel;
  sim::Simulator sim;
  stats::MetricsCollector metrics;
};

net::ControlPacket broadcast_pkt() {
  return net::make_control(net::kBroadcastId, net::AbrBeaconMsg{0});
}

/// A BonnMotion trace file pinning each node's trajectory (one line of
/// "t x y ..." knots per node), removed when the guard dies.
struct PinnedTrace {
  PinnedTrace(const std::string& stem,
              const std::vector<std::vector<double>>& knots)
      : path((std::filesystem::temp_directory_path() /
              ("rica_mac_test_" + stem + ".trace"))
                 .string()) {
    std::ofstream f(path);
    f.precision(17);
    for (const auto& line : knots) {
      for (const double v : line) f << v << ' ';
      f << '\n';
    }
  }
  ~PinnedTrace() { std::remove(path.c_str()); }

  [[nodiscard]] mobility::MobilityConfig config() const {
    mobility::MobilityConfig cfg;
    cfg.model = mobility::ModelKind::kTrace;
    cfg.trace_file = path;
    cfg.field = mobility::Field{2000.0, 2000.0};
    return cfg;
  }

  std::string path;
};

/// A world whose nodes follow a pinned trace (static when each line holds
/// one knot), so tests can place hidden terminals exactly.
struct PinnedWorld {
  PinnedWorld(const std::string& stem,
              const std::vector<std::vector<double>>& knots)
      : trace(stem, knots),
        rng(3),
        mobility(knots.size(), trace.config(), rng),
        channel(channel::ChannelConfig{}, mobility, rng) {}

  PinnedTrace trace;
  sim::RngManager rng;
  mobility::MobilityManager mobility;
  channel::ChannelModel channel;
  sim::Simulator sim;
  stats::MetricsCollector metrics;
};

/// A link-state update with `links` adjacency entries: 15 + 5*links bytes
/// on the air, i.e. 0.48 ms + 0.16 ms per link at 250 kbps.
net::ControlPacket lsu_pkt(net::NodeId origin, std::size_t links) {
  net::LsuMsg m;
  m.origin = origin;
  for (std::size_t i = 0; i < links; ++i) {
    m.links.emplace_back(static_cast<net::NodeId>(i), channel::CsiClass::A);
  }
  return net::make_control(net::kBroadcastId, std::move(m));
}

/// Counts receptions per (receiver, transmitter).
struct RxLog {
  explicit RxLog(std::size_t n) : got(n, std::vector<int>(n, 0)) {}
  void attach(CommonChannelMac& mac) {
    for (net::NodeId id = 0; id < got.size(); ++id) {
      mac.register_node(id, [this, id](const net::ControlPacket&,
                                       net::NodeId from) { ++got[id][from]; });
    }
  }
  std::vector<std::vector<int>> got;
};

TEST(CommonChannel, AirtimeMatchesRate) {
  World w(10.0);
  CommonChannelMac mac(w.sim, w.channel, w.rng, w.metrics, {});
  // 250 bytes at 250 kbps = 8 ms.
  EXPECT_NEAR(mac.airtime(250).seconds(), 0.008, 1e-9);
  EXPECT_NEAR(mac.airtime(25).seconds(), 0.0008, 1e-9);
}

TEST(CommonChannel, BroadcastReachesAllNeighbors) {
  World w(10.0);  // everyone within 250 m
  CommonChannelMac mac(w.sim, w.channel, w.rng, w.metrics, {});
  int received = 0;
  for (net::NodeId id = 0; id < 5; ++id) {
    mac.register_node(id, [&received](const net::ControlPacket&, net::NodeId) {
      ++received;
    });
  }
  mac.send(0, broadcast_pkt());
  w.sim.run_until(sim::milliseconds(100));
  EXPECT_EQ(received, 4);  // everyone but the sender
}

TEST(CommonChannel, UnicastReachesOnlyTarget) {
  World w(10.0);
  CommonChannelMac mac(w.sim, w.channel, w.rng, w.metrics, {});
  std::vector<int> got(5, 0);
  for (net::NodeId id = 0; id < 5; ++id) {
    mac.register_node(id, [&got, id](const net::ControlPacket&, net::NodeId) {
      ++got[id];
    });
  }
  mac.send(0, net::make_control(3, net::AbrBeaconMsg{0}));
  w.sim.run_until(sim::milliseconds(100));
  EXPECT_EQ(got[3], 1);
  EXPECT_EQ(got[1] + got[2] + got[4], 0);
}

TEST(CommonChannel, OutOfRangeHearsNothing) {
  World w(20000.0);  // scattered over 20 km: nobody in range
  CommonChannelMac mac(w.sim, w.channel, w.rng, w.metrics, {});
  int received = 0;
  for (net::NodeId id = 0; id < 5; ++id) {
    mac.register_node(id, [&received](const net::ControlPacket&, net::NodeId) {
      ++received;
    });
  }
  mac.send(0, broadcast_pkt());
  w.sim.run_until(sim::milliseconds(100));
  EXPECT_EQ(received, 0);
}

TEST(CommonChannel, OverheadCountedPerTransmission) {
  World w(10.0);
  CommonChannelMac mac(w.sim, w.channel, w.rng, w.metrics, {});
  for (net::NodeId id = 0; id < 5; ++id) {
    mac.register_node(id, [](const net::ControlPacket&, net::NodeId) {});
  }
  mac.send(0, broadcast_pkt());
  mac.send(1, broadcast_pkt());
  w.sim.run_until(sim::milliseconds(100));
  const auto s = w.metrics.finalize(sim::seconds(1));
  EXPECT_EQ(s.control_transmissions, 2u);
}

TEST(CommonChannel, QueueBoundDropsExcess) {
  World w(10.0);
  CommonChannelConfig cfg;
  cfg.queue_cap = 3;
  CommonChannelMac mac(w.sim, w.channel, w.rng, w.metrics, cfg);
  for (net::NodeId id = 0; id < 5; ++id) {
    mac.register_node(id, [](const net::ControlPacket&, net::NodeId) {});
  }
  for (int i = 0; i < 10; ++i) mac.send(0, broadcast_pkt());
  w.sim.run_until(sim::seconds(1));
  EXPECT_GT(w.metrics.counter("mac.ctrl_queue_drop"), 0u);
}

TEST(CommonChannel, CarrierSenseSerializesNeighbors) {
  // Two co-located senders: the second must defer, so both broadcasts are
  // eventually received collision-free by the third node.
  World w(10.0);
  CommonChannelMac mac(w.sim, w.channel, w.rng, w.metrics, {});
  int received = 0;
  for (net::NodeId id = 0; id < 5; ++id) {
    mac.register_node(id, [&received, id](const net::ControlPacket&,
                                          net::NodeId) {
      if (id == 2) ++received;
    });
  }
  mac.send(0, broadcast_pkt());
  mac.send(1, broadcast_pkt());
  w.sim.run_until(sim::seconds(1));
  EXPECT_EQ(received, 2);
}

TEST(CommonChannel, UnicastRetransmitsUntilDelivered) {
  // Make every node deaf by keeping the target transmitting?  Simpler:
  // verify a unicast toward an out-of-range target gives up after the
  // configured attempts (counted as unicast_fail).
  World w(20000.0);
  CommonChannelConfig cfg;
  cfg.unicast_attempts = 3;
  CommonChannelMac mac(w.sim, w.channel, w.rng, w.metrics, cfg);
  for (net::NodeId id = 0; id < 5; ++id) {
    mac.register_node(id, [](const net::ControlPacket&, net::NodeId) {});
  }
  mac.send(0, net::make_control(1, net::AbrBeaconMsg{0}));
  w.sim.run_until(sim::seconds(1));
  EXPECT_EQ(w.metrics.counter("mac.unicast_fail"), 1u);
  const auto s = w.metrics.finalize(sim::seconds(1));
  EXPECT_EQ(s.control_transmissions, 3u);  // all attempts hit the air
}

// A--R--B on a line, 200 m apart: A and B are hidden from each other (400 m)
// and both cover R.
const std::vector<std::vector<double>> kHiddenLine = {
    {0.0, 100.0, 500.0}, {0.0, 300.0, 500.0}, {0.0, 500.0, 500.0}};
constexpr net::NodeId kA = 0, kR = 1, kB = 2;

TEST(CommonChannel, HiddenTerminalsCollideAtTheMiddleNode) {
  PinnedWorld w("hidden", kHiddenLine);
  CommonChannelMac mac(w.sim, w.channel, w.rng, w.metrics, {});
  RxLog log(3);
  log.attach(mac);
  // Neither sender hears the other, so carrier sense lets both start at 0
  // and R, which both cover, loses both frames.
  mac.send(kA, broadcast_pkt());
  mac.send(kB, broadcast_pkt());
  w.sim.run_until(sim::milliseconds(100));
  EXPECT_EQ(log.got[kR][kA], 0);
  EXPECT_EQ(log.got[kR][kB], 0);
  EXPECT_EQ(w.metrics.finalize(sim::seconds(1)).control_collisions, 2u);
}

TEST(CommonChannel, HiddenTerminalPartialOverlapCollides) {
  PinnedWorld w("partial", kHiddenLine);
  CommonChannelMac mac(w.sim, w.channel, w.rng, w.metrics, {});
  RxLog log(3);
  log.attach(mac);
  mac.send(kA, lsu_pkt(kA, 20));  // 3.68 ms on the air
  w.sim.at(sim::milliseconds(3), [&] { mac.send(kB, broadcast_pkt()); });
  w.sim.run_until(sim::milliseconds(100));
  EXPECT_EQ(log.got[kR][kA], 0);
  EXPECT_EQ(log.got[kR][kB], 0);
}

TEST(CommonChannel, TouchingFramesFromHiddenSendersBothArrive) {
  // B starts at the very instant A's frame ends: the frames touch but do
  // not overlap, so R receives both.
  PinnedWorld w("touching", kHiddenLine);
  CommonChannelMac mac(w.sim, w.channel, w.rng, w.metrics, {});
  RxLog log(3);
  log.attach(mac);
  const auto a_pkt = lsu_pkt(kA, 20);
  const sim::Time a_end = mac.airtime(a_pkt.size_bytes);
  mac.send(kA, a_pkt);
  w.sim.at(a_end, [&] { mac.send(kB, broadcast_pkt()); });
  w.sim.run_until(sim::milliseconds(100));
  EXPECT_EQ(log.got[kR][kA], 1);
  EXPECT_EQ(log.got[kR][kB], 1);
  EXPECT_EQ(w.metrics.finalize(sim::seconds(1)).control_collisions, 0u);
}

TEST(CommonChannel, LongFrameCollisionSurvivesLaterAttempts) {
  // A's 2015 B LSU is on the air for 64.48 ms.  Hidden B's short frame
  // overlaps its start and ends ~63 ms before it does.  R attempts to send
  // at 55 ms (and defers, A still being on the air), more than 50 ms after
  // B's frame ended.  The overlap must still cost R A's frame: collision
  // state has no time horizon.
  PinnedWorld w("longframe", kHiddenLine);
  CommonChannelMac mac(w.sim, w.channel, w.rng, w.metrics, {});
  RxLog log(3);
  log.attach(mac);
  const auto a_pkt = lsu_pkt(kA, 400);
  ASSERT_GT(mac.airtime(a_pkt.size_bytes), sim::milliseconds(64));
  mac.send(kA, a_pkt);
  w.sim.at(sim::milliseconds(1), [&] { mac.send(kB, broadcast_pkt()); });
  w.sim.at(sim::milliseconds(55), [&] {
    EXPECT_TRUE(mac.carrier_busy(kR));
    mac.send(kR, broadcast_pkt());
  });
  w.sim.run_until(sim::milliseconds(200));
  EXPECT_EQ(log.got[kR][kA], 0) << "R decoded a frame that was collided";
  EXPECT_EQ(log.got[kR][kB], 0);
  // R's own frame goes out once A's ends, to both neighbours.
  EXPECT_EQ(log.got[kA][kR], 1);
  EXPECT_EQ(log.got[kB][kR], 1);
  EXPECT_EQ(w.metrics.finalize(sim::seconds(1)).control_collisions, 2u);
}

TEST(CommonChannel, HalfDuplexNodeMissesFrameWhileTransmitting) {
  // R (static) starts a 48.48 ms LSU at 0.  C starts 252 m from R, outside
  // its range, and closes in at 100 m/s, so R's frame never covered C and
  // C's carrier sense is idle.  At 30 ms C (now inside the range) starts a
  // 24.48 ms LSU: D beyond C receives it, but R cannot, having been on the
  // air for part of it.  No other frame overlaps C's, and R is silent again
  // when C's frame ends, so only R's own airtime can cost it the frame.
  PinnedWorld w("halfduplex", {{0.0, 500.0, 500.0},
                               {0.0, 752.0, 500.0, 1.0, 652.0, 500.0},
                               {0.0, 950.0, 500.0}});
  constexpr net::NodeId kRx = 0, kC = 1, kD = 2;
  CommonChannelMac mac(w.sim, w.channel, w.rng, w.metrics, {});
  RxLog log(3);
  log.attach(mac);
  mac.send(kRx, lsu_pkt(kRx, 300));
  w.sim.at(sim::milliseconds(30), [&] {
    EXPECT_FALSE(mac.carrier_busy(kC));
    EXPECT_TRUE(mac.carrier_busy(kRx));
    mac.send(kC, lsu_pkt(kC, 150));
  });
  w.sim.run_until(sim::milliseconds(200));
  EXPECT_EQ(log.got[kD][kC], 1);
  EXPECT_EQ(log.got[kRx][kC], 0) << "a transmitting node received a frame";
  EXPECT_EQ(log.got[kD][kRx], 0);  // out of R's range
  EXPECT_EQ(w.metrics.finalize(sim::seconds(1)).control_collisions, 1u);
}

// ---------------------------------------------------------------------------
// LinkTransmitter
// ---------------------------------------------------------------------------

struct LinkWorld : World {
  LinkWorld() : World(10.0) {}  // co-located, static, class is whatever the
                                // frozen draw gives (always in range)
};

net::DataPacket data_pkt(std::uint32_t seq = 0) {
  net::DataPacket p;
  p.src = 0;
  p.dst = 4;
  p.seq = seq;
  p.size_bytes = 512;
  return p;
}

TEST(LinkTransmitter, DeliversWithClassRateAndAck) {
  LinkWorld w;
  LinkConfig cfg;
  LinkTransmitter tx(0, w.sim, w.channel, w.metrics, cfg);
  std::vector<net::DataPacket> delivered;
  tx.set_deliver([&delivered](net::DataPacket p, net::NodeId to) {
    EXPECT_EQ(to, 1u);
    delivered.push_back(std::move(p));
  });
  tx.enqueue(data_pkt(), 1);
  w.sim.run_until(sim::seconds(2));
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0].hops, 1);
  // tput_sum records the class throughput the hop used.
  const auto cls = w.channel.csi(0, 1, w.sim.now());
  ASSERT_TRUE(cls.has_value());
  EXPECT_DOUBLE_EQ(delivered[0].tput_sum_bps, channel::throughput_bps(*cls));
  const auto s = w.metrics.finalize(sim::seconds(1));
  EXPECT_GT(s.overhead_kbps, 0.0);  // the data ACK was charged
}

TEST(LinkTransmitter, ServesFifo) {
  LinkWorld w;
  LinkTransmitter tx(0, w.sim, w.channel, w.metrics, {});
  std::vector<std::uint32_t> order;
  tx.set_deliver([&order](net::DataPacket p, net::NodeId) {
    order.push_back(p.seq);
  });
  for (std::uint32_t i = 0; i < 5; ++i) tx.enqueue(data_pkt(i), 1);
  w.sim.run_until(sim::seconds(5));
  EXPECT_EQ(order, (std::vector<std::uint32_t>{0, 1, 2, 3, 4}));
}

TEST(LinkTransmitter, BufferCapDropsOverflow) {
  LinkWorld w;
  LinkConfig cfg;
  cfg.buffer_cap = 10;
  LinkTransmitter tx(0, w.sim, w.channel, w.metrics, cfg);
  int drops = 0;
  tx.set_on_drop([&drops](const net::DataPacket&, stats::DropReason r) {
    EXPECT_EQ(r, stats::DropReason::kBufferOverflow);
    ++drops;
  });
  for (std::uint32_t i = 0; i < 15; ++i) tx.enqueue(data_pkt(i), 1);
  EXPECT_EQ(drops, 5);
  EXPECT_EQ(tx.queue_length(1), 10u);
}

TEST(LinkTransmitter, HopCapDropsLoopers) {
  LinkWorld w;
  LinkConfig cfg;
  cfg.hop_cap = 4;
  LinkTransmitter tx(0, w.sim, w.channel, w.metrics, cfg);
  int drops = 0;
  tx.set_on_drop([&drops](const net::DataPacket&, stats::DropReason r) {
    EXPECT_EQ(r, stats::DropReason::kLoopCap);
    ++drops;
  });
  auto p = data_pkt();
  p.hops = 4;
  tx.enqueue(std::move(p), 1);
  EXPECT_EQ(drops, 1);
}

TEST(LinkTransmitter, ResidencyBoundExpiresStalePackets) {
  // A 512 B packet on a class-D link takes ~82 ms; queue 10 packets and a
  // stale one: with a 100 ms residency bound, most of the queue expires.
  LinkWorld w;
  LinkConfig cfg;
  cfg.buffer_residency = sim::milliseconds(100);
  LinkTransmitter tx(0, w.sim, w.channel, w.metrics, cfg);
  int expired = 0;
  int delivered = 0;
  tx.set_on_drop([&expired](const net::DataPacket&, stats::DropReason r) {
    if (r == stats::DropReason::kExpired) ++expired;
  });
  tx.set_deliver([&delivered](net::DataPacket, net::NodeId) { ++delivered; });
  for (std::uint32_t i = 0; i < 10; ++i) tx.enqueue(data_pkt(i), 1);
  w.sim.run_until(sim::seconds(5));
  EXPECT_GT(expired, 0);
  EXPECT_GT(delivered, 0);
  EXPECT_EQ(expired + delivered, 10);
}

TEST(LinkTransmitter, OutOfRangeRetriesThenBreaks) {
  World w(20000.0);  // target unreachable
  LinkConfig cfg;
  LinkTransmitter tx(0, w.sim, w.channel, w.metrics, cfg);
  bool broke = false;
  std::vector<net::DataPacket> stranded;
  tx.set_on_break([&](net::NodeId neighbor, std::vector<net::DataPacket> s) {
    EXPECT_EQ(neighbor, 1u);
    broke = true;
    stranded = std::move(s);
  });
  tx.enqueue(data_pkt(0), 1);
  tx.enqueue(data_pkt(1), 1);
  w.sim.run_until(sim::seconds(2));
  EXPECT_TRUE(broke);
  EXPECT_EQ(stranded.size(), 2u);
}

TEST(LinkTransmitter, DrainKeepsInFlightHead) {
  LinkWorld w;
  LinkTransmitter tx(0, w.sim, w.channel, w.metrics, {});
  int delivered = 0;
  tx.set_deliver([&delivered](net::DataPacket, net::NodeId) { ++delivered; });
  for (std::uint32_t i = 0; i < 4; ++i) tx.enqueue(data_pkt(i), 1);
  // The head is on the air immediately; drain must spare it.
  const auto drained = tx.drain(1);
  EXPECT_EQ(drained.size(), 3u);
  w.sim.run_until(sim::seconds(2));
  EXPECT_EQ(delivered, 1);
}

TEST(LinkTransmitter, DrainUnknownNeighborIsEmpty) {
  LinkWorld w;
  LinkTransmitter tx(0, w.sim, w.channel, w.metrics, {});
  EXPECT_TRUE(tx.drain(3).empty());
  EXPECT_EQ(tx.buffered(), 0u);
}

TEST(LinkTransmitter, BufferedCountsAllQueues) {
  LinkWorld w;
  LinkTransmitter tx(0, w.sim, w.channel, w.metrics, {});
  tx.enqueue(data_pkt(0), 1);
  tx.enqueue(data_pkt(1), 1);
  tx.enqueue(data_pkt(2), 2);
  EXPECT_EQ(tx.buffered(), 3u);
}

}  // namespace
}  // namespace rica::mac
