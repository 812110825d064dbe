// Unit tests for the comparator protocols (AODV, BGCA, ABR, link-state) and
// the shared routing tables, all against the scripted mock host.
#include <gtest/gtest.h>

#include "mock_host.hpp"
#include "routing/abr/abr.hpp"
#include "routing/aodv/aodv.hpp"
#include "routing/bgca/bgca.hpp"
#include "routing/linkstate/linkstate.hpp"
#include "routing/tables.hpp"

namespace rica::routing {
namespace {

using channel::CsiClass;
using test::MockHost;
using test::make_data;

constexpr net::NodeId kSrc = 1;
constexpr net::NodeId kDst = 9;
constexpr net::FlowKey kFlow = net::flow_key(kSrc, kDst);

// ---------------------------------------------------------------------------
// Shared tables
// ---------------------------------------------------------------------------

TEST(HistoryTable, DetectsDuplicates) {
  HistoryTable h;
  EXPECT_TRUE(h.record(3, 7, 0, 5));
  EXPECT_FALSE(h.record(3, 7, 0, 5));
  EXPECT_TRUE(h.record(3, 8, 0, 5));
  EXPECT_TRUE(h.record(4, 7, 0, 5));
}

TEST(HistoryTable, TagsSeparateNamespaces) {
  HistoryTable h;
  EXPECT_TRUE(h.record(3, 7, 1, 5));
  EXPECT_TRUE(h.record(3, 7, 2, 5));
  EXPECT_FALSE(h.record(3, 7, 1, 5));
}

TEST(HistoryTable, SeenLooksUpWithoutInserting) {
  HistoryTable h;
  EXPECT_FALSE(h.seen(3, 7, 1));
  EXPECT_FALSE(h.seen(3, 7, 1));
  EXPECT_EQ(h.size(), 0u);
  h.record(3, 7, 1, 5);
  EXPECT_TRUE(h.seen(3, 7, 1));
  EXPECT_FALSE(h.seen(3, 7, 2));
  EXPECT_EQ(h.size(), 1u);
}

TEST(HistoryTable, SecondRecordKeepsTheFirstUpstream) {
  HistoryTable h;
  ASSERT_TRUE(h.record(3, 7, 1, 5));
  EXPECT_FALSE(h.record(3, 7, 1, 6));
  EXPECT_EQ(h.upstream(3, 7, 1), std::optional<net::NodeId>{5});
  EXPECT_EQ(h.size(), 1u);
}

TEST(HistoryTable, UnrecordedFloodHasNoUpstream) {
  HistoryTable h;
  EXPECT_EQ(h.upstream(3, 7, 1), std::nullopt);
  h.record(3, 7, 1, 5);
  EXPECT_EQ(h.upstream(3, 8, 1), std::nullopt);
  EXPECT_EQ(h.upstream(4, 7, 1), std::nullopt);
  EXPECT_EQ(h.upstream(3, 7, 2), std::nullopt);
}

TEST(HistoryTable, TagsKeepSeparateUpstreams) {
  HistoryTable h;
  h.record(3, 7, 1, 5);
  h.record(3, 7, 2, 6);
  EXPECT_EQ(h.upstream(3, 7, 1), std::optional<net::NodeId>{5});
  EXPECT_EQ(h.upstream(3, 7, 2), std::optional<net::NodeId>{6});
}

TEST(HistoryTable, OriginateRecordsFreshBidsWithSelfUpstream) {
  HistoryTable h;
  const std::uint32_t a = h.originate(2, 1);
  const std::uint32_t b = h.originate(2, 3);
  EXPECT_NE(a, b);
  EXPECT_TRUE(h.seen(2, a, 1));
  EXPECT_TRUE(h.seen(2, b, 3));
  EXPECT_EQ(h.upstream(2, a, 1), std::optional<net::NodeId>{2});
  EXPECT_FALSE(h.record(2, a, 1, 9));  // an echo of our own flood
}

TEST(PendingBuffer, CapacityEnforced) {
  MockHost host(1);
  PendingBuffer buf(2, sim::seconds(3));
  for (std::uint32_t seq = 0; seq < 3; ++seq) {
    buf.hold(host, make_data(1, 2, seq));
  }
  EXPECT_EQ(buf.size(), 2u);
  ASSERT_EQ(host.dropped.size(), 1u);
  EXPECT_EQ(host.dropped[0].first.seq, 2u);
  EXPECT_EQ(host.dropped[0].second, stats::DropReason::kBufferOverflow);
}

/// Holds seq 0 at t = 0 and seq 1 at t = 2 s, then advances to t = 4 s, so
/// only seq 0 is past the 3 s residency bound.
void hold_old_and_new(MockHost& host, PendingBuffer& buf) {
  buf.hold(host, make_data(1, 2, 0));
  host.sim().run_until(sim::seconds(2));
  buf.hold(host, make_data(1, 2, 1));
  host.sim().run_until(sim::seconds(4));
}

TEST(PendingBuffer, ReleaseSeparatesExpired) {
  MockHost host(1);
  PendingBuffer buf(10, sim::seconds(3));
  hold_old_and_new(host, buf);
  const auto fresh = buf.release(host);
  ASSERT_EQ(host.dropped.size(), 1u);
  EXPECT_EQ(host.dropped[0].first.seq, 0u);
  EXPECT_EQ(host.dropped[0].second, stats::DropReason::kExpired);
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_EQ(fresh[0].seq, 1u);
  EXPECT_TRUE(buf.empty());
}

TEST(PendingBuffer, PurgeExpiredDropsOnlyOldHead) {
  MockHost host(1);
  PendingBuffer buf(10, sim::seconds(3));
  hold_old_and_new(host, buf);
  buf.purge_expired(host);
  ASSERT_EQ(host.dropped.size(), 1u);
  EXPECT_EQ(host.dropped[0].second, stats::DropReason::kExpired);
  EXPECT_EQ(buf.size(), 1u);
}

// ---------------------------------------------------------------------------
// AODV
// ---------------------------------------------------------------------------

class AodvTest : public ::testing::Test {
 protected:
  AodvTest() : host_(5), proto_(host_) {}
  MockHost host_;
  AodvProtocol proto_;
};

TEST_F(AodvTest, SourceFloodsRreqOnFirstPacket) {
  MockHost host(kSrc);
  AodvProtocol proto(host);
  proto.handle_data(make_data(kSrc, kDst), kSrc);
  net::NodeId to = 0;
  const auto* rreq = host.last_sent<net::AodvRreqMsg>(&to);
  ASSERT_NE(rreq, nullptr);
  EXPECT_EQ(to, net::kBroadcastId);
  EXPECT_EQ(rreq->hops, 0);
}

TEST_F(AodvTest, RelayIncrementsHopsAndRebroadcastsOnce) {
  const auto msg = net::AodvRreqMsg{kSrc, kDst, 1, 2};
  proto_.on_control(net::make_control(net::kBroadcastId, msg), 4);
  proto_.on_control(net::make_control(net::kBroadcastId, msg), 6);
  host_.sim().run_until(sim::milliseconds(20));  // fire the forwarding jitter
  const auto* fwd = host_.last_sent<net::AodvRreqMsg>();
  ASSERT_NE(fwd, nullptr);
  EXPECT_EQ(fwd->hops, 3);
  EXPECT_EQ(host_.sent_count<net::AodvRreqMsg>(), 1u);
}

TEST_F(AodvTest, DestinationAnswersOnlyFirstCopy) {
  MockHost host(kDst);
  AodvProtocol proto(host);
  proto.on_control(
      net::make_control(net::kBroadcastId, net::AodvRreqMsg{kSrc, kDst, 1, 4}),
      7);
  proto.on_control(
      net::make_control(net::kBroadcastId, net::AodvRreqMsg{kSrc, kDst, 1, 2}),
      8);
  EXPECT_EQ(host.sent_count<net::AodvRrepMsg>(), 1u);
  net::NodeId to = 0;
  host.last_sent<net::AodvRrepMsg>(&to);
  // The paper's comparator: first copy wins even if a shorter one follows.
  EXPECT_EQ(to, 7u);
}

TEST_F(AodvTest, RrepInstallsForwardRoute) {
  proto_.on_control(
      net::make_control(net::kBroadcastId, net::AodvRreqMsg{kSrc, kDst, 1, 0}),
      4);
  proto_.on_control(net::make_control(5, net::AodvRrepMsg{kSrc, kDst, 1, 0}),
                    6);
  EXPECT_EQ(proto_.next_hop(kDst), 6u);
  net::NodeId to = 0;
  const auto* rrep = host_.last_sent<net::AodvRrepMsg>(&to);
  ASSERT_NE(rrep, nullptr);
  EXPECT_EQ(to, 4u);  // back along the reverse path
  EXPECT_EQ(rrep->hops, 1);
}

TEST_F(AodvTest, TransitDataWithoutRouteDropsAndReportsUpstream) {
  proto_.handle_data(make_data(kSrc, kDst), 4);
  ASSERT_EQ(host_.dropped.size(), 1u);
  EXPECT_EQ(host_.dropped[0].second, stats::DropReason::kNoRoute);
  net::NodeId to = 0;
  ASSERT_NE(host_.last_sent<net::AodvRerrMsg>(&to), nullptr);
  EXPECT_EQ(to, 4u);
}

TEST_F(AodvTest, LinkBreakDiscardsStrandedAndInvalidates) {
  proto_.on_control(
      net::make_control(net::kBroadcastId, net::AodvRreqMsg{kSrc, kDst, 1, 0}),
      4);
  proto_.on_control(net::make_control(5, net::AodvRrepMsg{kSrc, kDst, 1, 0}),
                    6);
  proto_.handle_data(make_data(kSrc, kDst, 0), 4);  // sets the precursor
  ASSERT_TRUE(proto_.next_hop(kDst).has_value());

  proto_.on_link_break(6, {make_data(kSrc, kDst, 1), make_data(kSrc, kDst, 2)});
  EXPECT_FALSE(proto_.next_hop(kDst).has_value());
  EXPECT_EQ(host_.dropped.size(), 2u);
  net::NodeId to = 0;
  ASSERT_NE(host_.last_sent<net::AodvRerrMsg>(&to), nullptr);
  EXPECT_EQ(to, 4u);
}

TEST_F(AodvTest, RerrFromNonDownstreamIgnored) {
  proto_.on_control(
      net::make_control(net::kBroadcastId, net::AodvRreqMsg{kSrc, kDst, 1, 0}),
      4);
  proto_.on_control(net::make_control(5, net::AodvRrepMsg{kSrc, kDst, 1, 0}),
                    6);
  proto_.on_control(net::make_control(5, net::AodvRerrMsg{kSrc, kDst, 8}), 8);
  EXPECT_TRUE(proto_.next_hop(kDst).has_value());
}

TEST_F(AodvTest, RouteExpiresWhenUnused) {
  AodvConfig cfg;
  cfg.route_expiry = sim::milliseconds(100);
  MockHost host(5);
  AodvProtocol proto(host, cfg);
  proto.on_control(
      net::make_control(net::kBroadcastId, net::AodvRreqMsg{kSrc, kDst, 1, 0}),
      4);
  proto.on_control(net::make_control(5, net::AodvRrepMsg{kSrc, kDst, 1, 0}),
                   6);
  ASSERT_TRUE(proto.next_hop(kDst).has_value());
  host.sim().run_until(sim::milliseconds(200));
  EXPECT_FALSE(proto.next_hop(kDst).has_value());
}

// ---------------------------------------------------------------------------
// BGCA
// ---------------------------------------------------------------------------

class BgcaTest : public ::testing::Test {
 protected:
  BgcaTest() : host_(5), proto_(host_) {
    host_.set_link(4, CsiClass::B);
    host_.set_link(6, CsiClass::A);
  }
  MockHost host_;
  BgcaProtocol proto_;
};

TEST_F(BgcaTest, RequirementScalesWithFlowRate) {
  BgcaConfig cfg;
  cfg.flow_rate_bps = 82'000.0;  // 20 pkt/s of 512 B
  cfg.bandwidth_factor = 1.5;
  MockHost host(5);
  BgcaProtocol proto(host, cfg);
  EXPECT_DOUBLE_EQ(proto.requirement_bps(), 123'000.0);
  // Class C (75 kbps) and D (50 kbps) violate it; B (150 kbps) does not.
}

TEST_F(BgcaTest, DiscoveryUsesCsiMetricAtDestination) {
  MockHost host(kDst);
  BgcaProtocol proto(host);
  host.set_link(7, CsiClass::A);
  host.set_link(8, CsiClass::D);
  proto.on_control(
      net::make_control(net::kBroadcastId, net::RreqMsg{kSrc, kDst, 1, 1.0, 3}),
      7);
  proto.on_control(
      net::make_control(net::kBroadcastId, net::RreqMsg{kSrc, kDst, 1, 1.0, 1}),
      8);
  host.sim().run_until(sim::milliseconds(100));
  net::NodeId to = 0;
  ASSERT_NE(host.last_sent<net::RrepMsg>(&to), nullptr);
  // 1.0 + A(1.0) = 2.0 beats 1.0 + D(5.0) = 6.0 despite fewer topo hops.
  EXPECT_EQ(to, 7u);
}

TEST_F(BgcaTest, DuplicateRreqCostsARelayNoChannelSample) {
  const auto msg = net::RreqMsg{kSrc, kDst, 1, 0.0, 0};
  proto_.on_control(net::make_control(net::kBroadcastId, msg), 4);
  proto_.on_control(net::make_control(net::kBroadcastId, msg), 6);
  host_.sim().run_until(sim::milliseconds(50));
  EXPECT_EQ(host_.csi_samples, 1u);
  EXPECT_EQ(host_.sent_count<net::RreqMsg>(), 1u);
}

TEST_F(BgcaTest, DestinationMeasuresEveryRreqCopy) {
  MockHost host(kDst);
  BgcaProtocol proto(host);
  host.set_link(7, CsiClass::A);
  host.set_link(8, CsiClass::D);
  const auto msg = net::RreqMsg{kSrc, kDst, 1, 1.0, 1};
  proto.on_control(net::make_control(net::kBroadcastId, msg), 8);
  proto.on_control(net::make_control(net::kBroadcastId, msg), 7);
  EXPECT_EQ(host.csi_samples, 2u);
  host.sim().run_until(sim::milliseconds(100));
  net::NodeId to = 0;
  ASSERT_NE(host.last_sent<net::RrepMsg>(&to), nullptr);
  EXPECT_EQ(to, 7u);
}

TEST_F(BgcaTest, OutOfRangeFirstRreqLeavesLaterCopyForwardable) {
  host_.clear_link(4);
  const auto msg = net::RreqMsg{kSrc, kDst, 1, 0.0, 0};
  proto_.on_control(net::make_control(net::kBroadcastId, msg), 4);
  proto_.on_control(net::make_control(net::kBroadcastId, msg), 6);
  host_.sim().run_until(sim::milliseconds(50));
  EXPECT_EQ(host_.csi_samples, 2u);
  EXPECT_EQ(host_.sent_count<net::RreqMsg>(), 1u);
}

TEST_F(BgcaTest, DuplicateLocalQueryCostsNoChannelSample) {
  net::BgcaLqMsg lq;
  lq.origin = 3;
  lq.src = kSrc;
  lq.dst = kDst;
  lq.bid = 11;
  lq.ttl = 3;
  lq.origin_hops_to_dst = 2;
  proto_.on_control(net::make_control(net::kBroadcastId, lq), 4);
  proto_.on_control(net::make_control(net::kBroadcastId, lq), 6);
  host_.sim().run_until(sim::milliseconds(100));
  EXPECT_EQ(host_.csi_samples, 1u);
  EXPECT_EQ(host_.sent_count<net::BgcaLqMsg>(), 1u);
}

TEST_F(BgcaTest, OutOfRangeFirstLocalQueryLeavesLaterCopyForwardable) {
  host_.clear_link(4);
  net::BgcaLqMsg lq;
  lq.origin = 3;
  lq.src = kSrc;
  lq.dst = kDst;
  lq.bid = 11;
  lq.ttl = 3;
  lq.origin_hops_to_dst = 2;
  proto_.on_control(net::make_control(net::kBroadcastId, lq), 4);
  proto_.on_control(net::make_control(net::kBroadcastId, lq), 6);
  host_.sim().run_until(sim::milliseconds(100));
  EXPECT_EQ(host_.csi_samples, 2u);
  const auto* fwd = host_.last_sent<net::BgcaLqMsg>();
  ASSERT_NE(fwd, nullptr);
  EXPECT_NEAR(fwd->csi_hops, 1.0, 1e-9);  // measured over the class-A link
}

TEST_F(BgcaTest, GuardTriggersLocalQueryAfterPersistentDeficiency) {
  BgcaConfig cfg;
  cfg.flow_rate_bps = 41'000.0;  // requirement 61.5 kbps: class D violates
  MockHost host(5);
  BgcaProtocol proto(host, cfg);
  host.set_link(4, CsiClass::B);
  host.set_link(6, CsiClass::D);
  proto.start();
  // Install a route via 6 (RREP from downstream).
  proto.on_control(
      net::make_control(net::kBroadcastId, net::RreqMsg{kSrc, kDst, 1, 0.0, 0}),
      4);
  proto.on_control(net::make_control(5, net::RrepMsg{kSrc, kDst, 1, 5.0, 1}),
                   6);
  ASSERT_EQ(proto.downstream(kFlow), 6u);
  host.sim().run_until(sim::seconds(4));
  EXPECT_GE(host.counters["bgca.guard_trigger"], 1u);
  EXPECT_GE(host.sent_count<net::BgcaLqMsg>(), 1u);
}

TEST_F(BgcaTest, GuardLeavesHealthyLinksAlone) {
  BgcaConfig cfg;
  cfg.flow_rate_bps = 41'000.0;
  MockHost host(5);
  BgcaProtocol proto(host, cfg);
  host.set_link(4, CsiClass::B);
  host.set_link(6, CsiClass::B);  // 150 kbps: comfortably above 61.5
  proto.start();
  proto.on_control(
      net::make_control(net::kBroadcastId, net::RreqMsg{kSrc, kDst, 1, 0.0, 0}),
      4);
  proto.on_control(net::make_control(5, net::RrepMsg{kSrc, kDst, 1, 2.0, 1}),
                   6);
  host.sim().run_until(sim::seconds(4));
  EXPECT_EQ(host.counters["bgca.guard_trigger"], 0u);
  EXPECT_EQ(host.sent_count<net::BgcaLqMsg>(), 0u);
}

TEST_F(BgcaTest, OnPathNodeAnswersLocalQuery) {
  // This node has a live entry 2 hops from dst; origin is 4 hops away.
  proto_.on_control(
      net::make_control(net::kBroadcastId, net::RreqMsg{kSrc, kDst, 1, 0.0, 0}),
      4);
  proto_.on_control(net::make_control(5, net::RrepMsg{kSrc, kDst, 1, 2.0, 1}),
                    6);
  net::BgcaLqMsg lq;
  lq.origin = 3;
  lq.src = kSrc;
  lq.dst = kDst;
  lq.bid = 11;
  lq.ttl = 3;
  lq.origin_hops_to_dst = 4;
  proto_.on_control(net::make_control(net::kBroadcastId, lq), 4);
  net::NodeId to = 0;
  const auto* reply = host_.last_sent<net::BgcaLqReplyMsg>(&to);
  ASSERT_NE(reply, nullptr);
  EXPECT_EQ(to, 4u);
  EXPECT_EQ(reply->join, 5u);
}

TEST_F(BgcaTest, FartherNodeDoesNotAnswerLocalQuery) {
  // Join eligibility requires being strictly closer to the destination.
  proto_.on_control(
      net::make_control(net::kBroadcastId, net::RreqMsg{kSrc, kDst, 1, 0.0, 0}),
      4);
  proto_.on_control(net::make_control(5, net::RrepMsg{kSrc, kDst, 1, 2.0, 4}),
                    6);  // hops_to_dst = 5
  net::BgcaLqMsg lq;
  lq.origin = 3;
  lq.src = kSrc;
  lq.dst = kDst;
  lq.bid = 11;
  lq.ttl = 3;
  lq.origin_hops_to_dst = 2;
  proto_.on_control(net::make_control(net::kBroadcastId, lq), 4);
  EXPECT_EQ(host_.sent_count<net::BgcaLqReplyMsg>(), 0u);
  // It rebroadcasts the query instead (after the CSI jitter).
  host_.sim().run_until(sim::milliseconds(100));
  EXPECT_EQ(host_.sent_count<net::BgcaLqMsg>(), 1u);
}

TEST_F(BgcaTest, BreakBuffersTrafficUntilLqReplyArrives) {
  proto_.on_control(
      net::make_control(net::kBroadcastId, net::RreqMsg{kSrc, kDst, 1, 0.0, 0}),
      4);
  proto_.on_control(net::make_control(5, net::RrepMsg{kSrc, kDst, 1, 2.0, 2}),
                    6);
  proto_.on_link_break(6, {make_data(kSrc, kDst, 0)});
  EXPECT_GE(host_.sent_count<net::BgcaLqMsg>(), 1u);
  // Traffic arriving during repair is buffered, not dropped or forwarded.
  proto_.handle_data(make_data(kSrc, kDst, 1), 4);
  EXPECT_TRUE(host_.forwarded.empty());
  EXPECT_TRUE(host_.dropped.empty());

  // The reply splices a partial route via 7 and flushes the buffer.
  host_.set_link(7, CsiClass::B);
  const auto* lq = host_.last_sent<net::BgcaLqMsg>();
  ASSERT_NE(lq, nullptr);
  net::BgcaLqReplyMsg reply;
  reply.origin = 5;
  reply.src = kSrc;
  reply.dst = kDst;
  reply.bid = lq->bid;
  reply.csi_hops = 2.0;
  reply.join_hops_to_dst = 1;
  reply.join = 7;
  proto_.on_control(net::make_control(5, reply), 7);
  host_.sim().run_until(sim::milliseconds(200));
  EXPECT_EQ(proto_.downstream(kFlow), 7u);
  EXPECT_EQ(host_.forwarded.size(), 2u);
}

TEST_F(BgcaTest, FailedRepairEscalatesWithReer) {
  proto_.on_control(
      net::make_control(net::kBroadcastId, net::RreqMsg{kSrc, kDst, 1, 0.0, 0}),
      4);
  proto_.on_control(net::make_control(5, net::RrepMsg{kSrc, kDst, 1, 2.0, 2}),
                    6);
  proto_.on_link_break(6, {make_data(kSrc, kDst, 0)});
  host_.sim().run_until(sim::seconds(1));  // LQ times out with no reply
  net::NodeId to = 0;
  ASSERT_NE(host_.last_sent<net::ReerMsg>(&to), nullptr);
  EXPECT_EQ(to, 4u);
  // The held packet died with the failed repair.
  ASSERT_GE(host_.dropped.size(), 1u);
}

// ---------------------------------------------------------------------------
// ABR
// ---------------------------------------------------------------------------

class AbrTest : public ::testing::Test {
 protected:
  AbrTest() : host_(5), proto_(host_) {}
  MockHost host_;
  AbrProtocol proto_;
};

TEST_F(AbrTest, BeaconsIncrementTicks) {
  EXPECT_EQ(proto_.ticks(4), 0u);
  proto_.on_control(net::make_control(net::kBroadcastId, net::AbrBeaconMsg{4}),
                    4);
  proto_.on_control(net::make_control(net::kBroadcastId, net::AbrBeaconMsg{4}),
                    4);
  EXPECT_EQ(proto_.ticks(4), 2u);
}

TEST_F(AbrTest, TicksResetAfterSilence) {
  proto_.on_control(net::make_control(net::kBroadcastId, net::AbrBeaconMsg{4}),
                    4);
  host_.sim().run_until(sim::seconds(10));  // way past neighbor_timeout
  EXPECT_EQ(proto_.ticks(4), 0u);
}

TEST_F(AbrTest, TicksSaturateAtCap) {
  AbrConfig cfg;
  MockHost host(5);
  AbrProtocol proto(host, cfg);
  for (std::uint32_t i = 0; i < cfg.tick_cap + 10; ++i) {
    proto.on_control(net::make_control(net::kBroadcastId, net::AbrBeaconMsg{4}),
                     4);
  }
  EXPECT_EQ(proto.ticks(4), cfg.tick_cap);
}

TEST_F(AbrTest, StartBroadcastsPeriodicBeacons) {
  proto_.start();
  host_.sim().run_until(sim::seconds(5));
  EXPECT_GE(host_.sent_count<net::AbrBeaconMsg>(), 4u);
}

TEST_F(AbrTest, BqAccumulatesTicksAndLoad) {
  proto_.on_control(net::make_control(net::kBroadcastId, net::AbrBeaconMsg{4}),
                    4);
  proto_.on_control(net::make_control(net::kBroadcastId, net::AbrBeaconMsg{4}),
                    4);
  host_.buffered = 3;
  net::AbrBqMsg bq;
  bq.src = kSrc;
  bq.dst = kDst;
  bq.bid = 1;
  bq.tick_sum = 10;
  bq.load_sum = 2;
  bq.topo_hops = 1;
  proto_.on_control(net::make_control(net::kBroadcastId, bq), 4);
  const auto* fwd = host_.last_sent<net::AbrBqMsg>();
  ASSERT_NE(fwd, nullptr);
  EXPECT_EQ(fwd->tick_sum, 12u);  // +2 ticks of the link it came over
  EXPECT_EQ(fwd->load_sum, 5u);   // +3 packets buffered here
  EXPECT_EQ(fwd->topo_hops, 2);
}

TEST_F(AbrTest, DestinationPrefersAggregateStability) {
  MockHost host(kDst);
  AbrProtocol proto(host);
  net::AbrBqMsg stable;
  stable.src = kSrc;
  stable.dst = kDst;
  stable.bid = 1;
  stable.tick_sum = 40;
  stable.load_sum = 5;
  stable.topo_hops = 5;  // longer but more stable
  net::AbrBqMsg fresh = stable;
  fresh.tick_sum = 10;
  fresh.load_sum = 0;
  fresh.topo_hops = 2;
  proto.on_control(net::make_control(net::kBroadcastId, fresh), 7);
  proto.on_control(net::make_control(net::kBroadcastId, stable), 8);
  host.sim().run_until(sim::milliseconds(100));
  net::NodeId to = 0;
  ASSERT_NE(host.last_sent<net::AbrReplyMsg>(&to), nullptr);
  EXPECT_EQ(to, 8u);  // the stable route wins despite 5 vs 2 hops
}

TEST_F(AbrTest, LinkBreakStartsLocalQueryAndBuffers) {
  proto_.on_control(
      net::make_control(net::kBroadcastId,
                        net::AbrBqMsg{kSrc, kDst, 1, 0, 0, 0}),
      4);
  proto_.on_control(net::make_control(5, net::AbrReplyMsg{kSrc, kDst, 1, 1}),
                    6);
  ASSERT_EQ(proto_.downstream(kFlow), 6u);
  proto_.on_link_break(6, {make_data(kSrc, kDst, 0)});
  EXPECT_GE(host_.sent_count<net::AbrLqMsg>(), 1u);
  proto_.handle_data(make_data(kSrc, kDst, 1), 4);
  EXPECT_TRUE(host_.forwarded.empty());  // buffered during repair
}

TEST_F(AbrTest, FailedLqBacktracksWithRn) {
  proto_.on_control(
      net::make_control(net::kBroadcastId,
                        net::AbrBqMsg{kSrc, kDst, 1, 0, 0, 0}),
      4);
  proto_.on_control(net::make_control(5, net::AbrReplyMsg{kSrc, kDst, 1, 1}),
                    6);
  proto_.on_link_break(6, {});
  host_.sim().run_until(sim::seconds(1));  // LQ timeout, no replies
  net::NodeId to = 0;
  ASSERT_NE(host_.last_sent<net::AbrRnMsg>(&to), nullptr);
  EXPECT_EQ(to, 4u);
}

TEST_F(AbrTest, RnFromDownstreamTriggersOwnRepair) {
  proto_.on_control(
      net::make_control(net::kBroadcastId,
                        net::AbrBqMsg{kSrc, kDst, 1, 0, 0, 0}),
      4);
  proto_.on_control(net::make_control(5, net::AbrReplyMsg{kSrc, kDst, 1, 1}),
                    6);
  proto_.on_control(net::make_control(5, net::AbrRnMsg{kSrc, kDst, 6}), 6);
  EXPECT_GE(host_.sent_count<net::AbrLqMsg>(), 1u);
}

// ---------------------------------------------------------------------------
// Link state
// ---------------------------------------------------------------------------

class LinkStateTest : public ::testing::Test {
 protected:
  LinkStateTest() : host_(0), proto_(host_, config()) {}

  static LinkStateConfig config() {
    LinkStateConfig cfg;
    cfg.num_nodes = 5;
    return cfg;
  }

  /// Line topology 0-1-2-3-4 with the given uniform class.
  static LinkStateProtocol::Topology line(CsiClass cls) {
    LinkStateProtocol::Topology topo(5);
    for (net::NodeId i = 0; i + 1 < 5; ++i) {
      topo[i].emplace_back(i + 1, cls);
      topo[i + 1].emplace_back(i, cls);
    }
    return topo;
  }

  MockHost host_;
  LinkStateProtocol proto_;
};

TEST_F(LinkStateTest, DijkstraFollowsLine) {
  proto_.install_topology(line(CsiClass::A));
  EXPECT_EQ(proto_.next_hop(4), 1u);
  EXPECT_EQ(proto_.next_hop(1), 1u);
}

TEST_F(LinkStateTest, UnreachableDestinationHasNoNextHop) {
  auto topo = line(CsiClass::A);
  topo[3].clear();
  topo[4].clear();
  topo[2].erase(topo[2].begin() + 1);  // cut 2-3
  proto_.install_topology(topo);
  EXPECT_FALSE(proto_.next_hop(4).has_value());
  EXPECT_TRUE(proto_.next_hop(2).has_value());
}

TEST_F(LinkStateTest, CsiCostsPreferHighThroughputDetour) {
  // 0-1 direct class D (cost 5) vs 0-2-1 with two class-A links (cost 2).
  LinkStateProtocol::Topology topo(5);
  topo[0] = {{1, CsiClass::D}, {2, CsiClass::A}};
  topo[1] = {{0, CsiClass::D}, {2, CsiClass::A}};
  topo[2] = {{0, CsiClass::A}, {1, CsiClass::A}};
  proto_.install_topology(topo);
  EXPECT_EQ(proto_.next_hop(1), 2u);
}

TEST_F(LinkStateTest, LsuUpdatesViewAndRefloods) {
  proto_.install_topology(line(CsiClass::A));
  // Node 2 reports that its link to 3 is gone.
  net::LsuMsg lsu;
  lsu.origin = 2;
  lsu.seq = 1;
  lsu.links = {{1, CsiClass::A}};
  proto_.on_control(net::make_control(net::kBroadcastId, lsu), 1);
  EXPECT_EQ(host_.sent_count<net::LsuMsg>(), 1u);  // re-flooded once
  // Wait out the SPF hold-down, then the route must avoid 2-3.
  host_.sim().run_until(sim::seconds(5));
  EXPECT_FALSE(proto_.next_hop(4).has_value());
}

TEST_F(LinkStateTest, StaleLsuIgnored) {
  proto_.install_topology(line(CsiClass::A));
  net::LsuMsg lsu;
  lsu.origin = 2;
  lsu.seq = 5;
  lsu.links = {{1, CsiClass::A}};
  proto_.on_control(net::make_control(net::kBroadcastId, lsu), 1);
  net::LsuMsg old = lsu;
  old.seq = 4;
  old.links = line(CsiClass::A)[2];
  proto_.on_control(net::make_control(net::kBroadcastId, old), 3);
  EXPECT_EQ(host_.sent_count<net::LsuMsg>(), 1u);  // the stale one died here
}

TEST_F(LinkStateTest, SpfHoldDownDelaysRecomputation) {
  proto_.install_topology(line(CsiClass::A));
  ASSERT_EQ(proto_.next_hop(4), 1u);  // SPF ran
  net::LsuMsg lsu;
  lsu.origin = 1;
  lsu.seq = 1;
  lsu.links = {{0, CsiClass::A}};  // 1 lost its link to 2
  proto_.on_control(net::make_control(net::kBroadcastId, lsu), 1);
  // Within the hold-down the stale tree still routes via 1.
  EXPECT_EQ(proto_.next_hop(4), 1u);
  host_.sim().run_until(sim::seconds(5));
  EXPECT_FALSE(proto_.next_hop(4).has_value());
}

TEST_F(LinkStateTest, DataForwardedAlongDijkstraRoute) {
  proto_.install_topology(line(CsiClass::B));
  proto_.handle_data(make_data(0, 4), 0);
  ASSERT_EQ(host_.forwarded.size(), 1u);
  EXPECT_EQ(host_.forwarded[0].next_hop, 1u);
}

TEST_F(LinkStateTest, DeliversLocalData) {
  proto_.install_topology(line(CsiClass::A));
  proto_.handle_data(make_data(4, 0), 1);
  EXPECT_EQ(host_.delivered.size(), 1u);
}

TEST_F(LinkStateTest, BreakRemovesLinkAndFloods) {
  proto_.install_topology(line(CsiClass::A));
  ASSERT_EQ(proto_.next_hop(4), 1u);
  proto_.on_link_break(1, {make_data(0, 4)});
  EXPECT_EQ(host_.dropped.size(), 1u);
  EXPECT_GE(host_.sent_count<net::LsuMsg>(), 1u);
  EXPECT_TRUE(proto_.own_row().empty());
}

}  // namespace
}  // namespace rica::routing
