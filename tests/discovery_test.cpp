// The shared source-side discovery lifecycle (routing/discovery.hpp), run
// through each on-demand protocol against the scripted host: bounded
// retries, the overflow policy with exact packet accounting, FIFO release to
// the replier, and one flood per discovery.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <memory>

#include "core/rica.hpp"
#include "mock_host.hpp"
#include "routing/abr/abr.hpp"
#include "routing/aodv/aodv.hpp"
#include "routing/bgca/bgca.hpp"
#include "routing/discovery.hpp"

namespace rica::routing {
namespace {

using test::MockHost;
using test::make_data;

constexpr net::NodeId kSrc = 1;
constexpr net::NodeId kDst = 9;
constexpr net::NodeId kRelay = 4;

/// One protocol under test: how to build it, which broadcast is its route
/// request, and the reply that answers one.
struct Subject {
  const char* name;
  std::function<std::unique_ptr<Protocol>(MockHost&)> make;
  std::function<std::size_t(const MockHost&)> floods;
  std::function<std::uint32_t(const MockHost&)> last_bid;
  std::function<net::ControlPayload(std::uint32_t bid)> reply;
};

void PrintTo(const Subject& s, std::ostream* os) { *os << s.name; }

template <typename Proto>
std::unique_ptr<Protocol> make(MockHost& host) {
  return std::make_unique<Proto>(host);
}

template <typename Msg>
Subject subject(const char* name,
                std::unique_ptr<Protocol> (*factory)(MockHost&),
                std::function<net::ControlPayload(std::uint32_t)> reply) {
  return Subject{
      name, factory,
      [](const MockHost& h) { return h.sent_count<Msg>(); },
      [](const MockHost& h) { return h.last_sent<Msg>()->bid; },
      std::move(reply)};
}

class DiscoveryLifecycle : public ::testing::TestWithParam<Subject> {
 protected:
  DiscoveryLifecycle() : host_(kSrc), proto_(GetParam().make(host_)) {}

  void send(std::uint32_t seq) {
    proto_->handle_data(make_data(kSrc, kDst, seq), kSrc);
  }
  void reply_from_relay() {
    const auto bid = GetParam().last_bid(host_);
    proto_->on_control(net::make_control(kSrc, GetParam().reply(bid)),
                       kRelay);
  }

  MockHost host_;
  std::unique_ptr<Protocol> proto_;
};

TEST_P(DiscoveryLifecycle, NoReplyFloodsThreeTimesThenDropsTheHeldPacketOnce) {
  send(0);
  host_.sim().run_until(sim::seconds(5));
  EXPECT_EQ(GetParam().floods(host_),
            static_cast<std::size_t>(Discovery::kMaxAttempts));
  ASSERT_EQ(host_.dropped.size(), 1u);
  const auto reason = host_.dropped[0].second;
  EXPECT_TRUE(reason == stats::DropReason::kNoRoute ||
              reason == stats::DropReason::kExpired);
  EXPECT_TRUE(host_.forwarded.empty());
}

TEST_P(DiscoveryLifecycle, OverflowIsDroppedAndEveryPacketIsAccountedOnce) {
  constexpr auto kCap = static_cast<std::uint32_t>(Discovery::kPendingCap);
  for (std::uint32_t seq = 0; seq < 2 * kCap; ++seq) send(seq);
  std::size_t overflow = 0;
  for (const auto& [pkt, reason] : host_.dropped) {
    if (reason == stats::DropReason::kBufferOverflow) ++overflow;
  }
  EXPECT_EQ(overflow, kCap);

  reply_from_relay();  // releases what the buffer still holds
  std::map<std::uint32_t, int> seen;
  for (const auto& f : host_.forwarded) ++seen[f.pkt.seq];
  for (const auto& [pkt, reason] : host_.dropped) ++seen[pkt.seq];
  for (std::uint32_t seq = 0; seq < 2 * kCap; ++seq) {
    EXPECT_EQ(seen[seq], 1) << "seq " << seq;
  }
  EXPECT_EQ(host_.forwarded.size(), kCap);
}

TEST_P(DiscoveryLifecycle, ReplyReleasesHeldPacketsInFifoOrderToTheReplier) {
  for (std::uint32_t seq = 0; seq < 3; ++seq) send(seq);
  EXPECT_TRUE(host_.forwarded.empty());
  reply_from_relay();
  ASSERT_EQ(host_.forwarded.size(), 3u);
  for (std::uint32_t seq = 0; seq < 3; ++seq) {
    EXPECT_EQ(host_.forwarded[seq].pkt.seq, seq);
    EXPECT_EQ(host_.forwarded[seq].next_hop, kRelay);
  }
  EXPECT_TRUE(host_.dropped.empty());
  host_.sim().run_until(sim::seconds(5));  // the retry timer is cancelled
  EXPECT_EQ(GetParam().floods(host_), 1u);
}

TEST_P(DiscoveryLifecycle, SecondTriggerWhileDiscoveringDoesNotReflood) {
  send(0);
  host_.sim().run_until(sim::milliseconds(100));
  send(1);
  EXPECT_EQ(GetParam().floods(host_), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, DiscoveryLifecycle,
    ::testing::Values(
        subject<net::AodvRreqMsg>("AODV", &make<AodvProtocol>,
                                  [](std::uint32_t bid) {
                                    return net::ControlPayload{
                                        net::AodvRrepMsg{kSrc, kDst, bid, 0}};
                                  }),
        subject<net::RreqMsg>("RICA", &make<core::RicaProtocol>,
                              [](std::uint32_t bid) {
                                return net::ControlPayload{net::RrepMsg{
                                    kSrc, kDst, bid, 3.0, 2}};
                              }),
        subject<net::RreqMsg>("BGCA", &make<BgcaProtocol>,
                              [](std::uint32_t bid) {
                                return net::ControlPayload{net::RrepMsg{
                                    kSrc, kDst, bid, 3.0, 2}};
                              }),
        subject<net::AbrBqMsg>("ABR", &make<AbrProtocol>,
                               [](std::uint32_t bid) {
                                 return net::ControlPayload{
                                     net::AbrReplyMsg{kSrc, kDst, bid, 0}};
                               })),
    [](const ::testing::TestParamInfo<Subject>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace rica::routing
