// net layer: packet formats and wire sizes, flow keys, Node <-> MAC glue,
// and full Network assembly.
#include <gtest/gtest.h>

#include "core/rica.hpp"
#include "net/network.hpp"
#include "net/packet.hpp"
#include "net/wire.hpp"
#include "routing/aodv/aodv.hpp"

namespace rica::net {
namespace {

TEST(FlowKey, RoundTrips) {
  const FlowKey k = flow_key(17, 42);
  EXPECT_EQ(flow_src(k), 17u);
  EXPECT_EQ(flow_dst(k), 42u);
  EXPECT_NE(flow_key(17, 42), flow_key(42, 17));
}

TEST(ControlSizes, AllTypesHavePositiveSize) {
  EXPECT_GT(wire::encoded_control_size(RreqMsg{}), 0);
  EXPECT_GT(wire::encoded_control_size(RrepMsg{}), 0);
  EXPECT_GT(wire::encoded_control_size(CsiCheckMsg{}), 0);
  EXPECT_GT(wire::encoded_control_size(RupdMsg{}), 0);
  EXPECT_GT(wire::encoded_control_size(ReerMsg{}), 0);
  EXPECT_GT(wire::encoded_control_size(AbrBeaconMsg{}), 0);
  EXPECT_GT(wire::encoded_control_size(AodvRreqMsg{}), 0);
}

TEST(ControlSizes, BeaconIsSmallest) {
  // Beacons dominate ABR's idle overhead; they must be the cheapest packet:
  // a 5-byte control header plus the u32 origin.
  const auto beacon = wire::encoded_control_size(AbrBeaconMsg{});
  EXPECT_EQ(beacon, 9);
  EXPECT_LT(beacon, wire::encoded_control_size(RreqMsg{}));
  EXPECT_LT(beacon, wire::encoded_control_size(LsuMsg{}));
}

TEST(ControlSizes, LsuGrowsWithAdjacency) {
  LsuMsg small;
  small.links = {{1, channel::CsiClass::A}};
  LsuMsg big;
  for (NodeId i = 0; i < 10; ++i) big.links.emplace_back(i, channel::CsiClass::B);
  EXPECT_LT(wire::encoded_control_size(small),
            wire::encoded_control_size(big));
}

TEST(ControlSizes, DenseLsuStaysExactWithinTheWireField) {
  // A 500-terminal row (the large-scale preset's worst case, far past the
  // old uint16 truncation hazard's comfort zone) must size exactly, not
  // wrap: 5 frame header + 10 fixed body + 5 * 500 = 2515 — and it must be
  // the encoder's real output, byte for byte.
  LsuMsg dense;
  for (NodeId i = 0; i < 500; ++i) {
    dense.links.emplace_back(i, channel::CsiClass::D);
  }
  EXPECT_EQ(wire::encoded_control_size(dense), 2515);
  std::vector<std::uint8_t> buf;
  EXPECT_EQ(wire::encode_control(make_control(kBroadcastId, dense), buf),
            2515u);
}

TEST(ControlSizes, OverflowingLsuThrowsInsteadOfClamping) {
  // 13 105+ links push the frame past the u16 wire-size field.  The old
  // Sizer clamped to 0xFFFF behind a Release-vanishing assert (silently
  // under-charging airtime); now it is a hard error in every build mode.
  LsuMsg huge;
  for (NodeId i = 0; i < 13200; ++i) {
    huge.links.emplace_back(i, channel::CsiClass::A);
  }
  EXPECT_THROW(wire::encoded_control_size(ControlPayload{huge}),
               wire::WireError);
  EXPECT_THROW(make_control(kBroadcastId, huge), wire::WireError);
}

TEST(MakeControl, FillsSizeAndTarget) {
  const auto pkt = make_control(7, ReerMsg{1, 2, 3});
  EXPECT_EQ(pkt.to, 7u);
  EXPECT_EQ(pkt.size_bytes, wire::encoded_control_size(ReerMsg{}));
  EXPECT_TRUE(std::holds_alternative<ReerMsg>(pkt.payload));
}

NetworkConfig small_config(std::uint64_t seed = 5) {
  NetworkConfig cfg;
  cfg.num_nodes = 10;
  cfg.mobility.field = mobility::Field{300.0, 300.0};  // dense: all connected
  cfg.mobility.max_speed_mps = 0.0;
  cfg.seed = seed;
  return cfg;
}

TEST(NetworkTest, BuildsAndStarts) {
  Network net(small_config());
  for (NodeId id = 0; id < net.size(); ++id) {
    net.node(id).set_protocol(
        std::make_unique<routing::AodvProtocol>(net.node(id)));
  }
  net.start();
  EXPECT_EQ(net.size(), 10u);
  net.simulator().run_until(sim::seconds(1));
}

TEST(NetworkTest, OriginateCountsGenerated) {
  Network net(small_config());
  for (NodeId id = 0; id < net.size(); ++id) {
    net.node(id).set_protocol(
        std::make_unique<routing::AodvProtocol>(net.node(id)));
  }
  net.start();
  DataPacket pkt;
  pkt.src = 0;
  pkt.dst = 5;
  net.node(0).originate(pkt);
  EXPECT_EQ(net.metrics().generated(), 1u);
}

TEST(NetworkTest, EndToEndDeliveryOverAodv) {
  Network net(small_config());
  for (NodeId id = 0; id < net.size(); ++id) {
    net.node(id).set_protocol(
        std::make_unique<routing::AodvProtocol>(net.node(id)));
  }
  net.start();
  for (std::uint32_t i = 0; i < 20; ++i) {
    net.simulator().after(sim::milliseconds(100 * i), [&net, i] {
      DataPacket pkt;
      pkt.src = 0;
      pkt.dst = 5;
      pkt.seq = i;
      pkt.gen_time = net.simulator().now();
      net.node(0).originate(pkt);
    });
  }
  net.simulator().run_until(sim::seconds(10));
  EXPECT_GT(net.metrics().delivered(), 15u);
}

TEST(NetworkTest, EndToEndDeliveryOverRica) {
  Network net(small_config());
  for (NodeId id = 0; id < net.size(); ++id) {
    net.node(id).set_protocol(
        std::make_unique<core::RicaProtocol>(net.node(id)));
  }
  net.start();
  for (std::uint32_t i = 0; i < 20; ++i) {
    net.simulator().after(sim::milliseconds(100 * i), [&net, i] {
      DataPacket pkt;
      pkt.src = 0;
      pkt.dst = 5;
      pkt.seq = i;
      pkt.gen_time = net.simulator().now();
      net.node(0).originate(pkt);
    });
  }
  net.simulator().run_until(sim::seconds(10));
  EXPECT_GT(net.metrics().delivered(), 15u);
}

TEST(NetworkTest, DeliveredPacketsCarryHopMetadata) {
  Network net(small_config());
  for (NodeId id = 0; id < net.size(); ++id) {
    net.node(id).set_protocol(
        std::make_unique<routing::AodvProtocol>(net.node(id)));
  }
  net.start();
  DataPacket pkt;
  pkt.src = 0;
  pkt.dst = 5;
  net.node(0).originate(pkt);
  net.simulator().run_until(sim::seconds(5));
  const auto s = net.metrics().finalize(sim::seconds(5));
  if (s.delivered > 0) {
    EXPECT_GE(s.avg_hops, 1.0);
    EXPECT_GE(s.avg_link_tput_kbps, 50.0);   // class D floor
    EXPECT_LE(s.avg_link_tput_kbps, 250.0);  // class A ceiling
  }
}

TEST(NetworkTest, IdenticalSeedsGiveIdenticalRuns) {
  auto run = [](std::uint64_t seed) {
    Network net(small_config(seed));
    for (NodeId id = 0; id < net.size(); ++id) {
      net.node(id).set_protocol(
          std::make_unique<core::RicaProtocol>(net.node(id)));
    }
    net.start();
    for (std::uint32_t i = 0; i < 30; ++i) {
      net.simulator().after(sim::milliseconds(50 * i), [&net, i] {
        DataPacket pkt;
        pkt.src = 1;
        pkt.dst = 8;
        pkt.seq = i;
        pkt.gen_time = net.simulator().now();
        net.node(1).originate(pkt);
      });
    }
    net.simulator().run_until(sim::seconds(5));
    const auto s = net.metrics().finalize(sim::seconds(5));
    return std::make_tuple(s.delivered, s.avg_delay_ms, s.overhead_kbps,
                           s.avg_hops);
  };
  EXPECT_EQ(run(11), run(11));
  EXPECT_NE(std::get<1>(run(11)), std::get<1>(run(12)));
}

}  // namespace
}  // namespace rica::net
