// Unit tests for the discrete-event kernel: time arithmetic, event ordering,
// FIFO tie-breaking, cancellation, RAII timers, RNG stream independence,
// and the statistics of the counter-based stream the channel draws from.
// EventEngine-specific cases live in event_engine_test.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"
#include "sim/timer.hpp"

namespace rica::sim {
namespace {

TEST(Time, ConversionsRoundTrip) {
  EXPECT_EQ(seconds(3).nanos(), 3'000'000'000);
  EXPECT_EQ(milliseconds(40).nanos(), 40'000'000);
  EXPECT_EQ(microseconds(7).nanos(), 7'000);
  EXPECT_DOUBLE_EQ(seconds(2).seconds(), 2.0);
  EXPECT_DOUBLE_EQ(milliseconds(1500).seconds(), 1.5);
  EXPECT_DOUBLE_EQ(seconds(1).millis(), 1000.0);
}

TEST(Time, FractionalSecondsRoundsToNanos) {
  EXPECT_EQ(seconds_f(0.5).nanos(), 500'000'000);
  EXPECT_EQ(seconds_f(1e-9).nanos(), 1);
  EXPECT_EQ(seconds_f(0.0).nanos(), 0);
}

TEST(Time, ArithmeticAndComparison) {
  const Time a = seconds(1);
  const Time b = milliseconds(500);
  EXPECT_EQ((a + b).nanos(), 1'500'000'000);
  EXPECT_EQ((a - b).nanos(), 500'000'000);
  EXPECT_LT(b, a);
  EXPECT_EQ(a * 3, seconds(3));
  Time c = a;
  c += b;
  EXPECT_EQ(c, a + b);
}

TEST(Simulator, ClockAdvancesWithEvents) {
  Simulator sim;
  std::vector<std::int64_t> at_times;
  sim.after(milliseconds(10), [&] { at_times.push_back(sim.now().nanos()); });
  sim.after(milliseconds(5), [&] { at_times.push_back(sim.now().nanos()); });
  sim.run_until(seconds(1));
  ASSERT_EQ(at_times.size(), 2u);
  EXPECT_EQ(at_times[0], milliseconds(5).nanos());
  EXPECT_EQ(at_times[1], milliseconds(10).nanos());
  EXPECT_EQ(sim.now(), seconds(1));
}

TEST(Simulator, RunUntilDoesNotExecuteLaterEvents) {
  Simulator sim;
  bool late = false;
  sim.after(seconds(2), [&] { late = true; });
  sim.run_until(seconds(1));
  EXPECT_FALSE(late);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run_until(seconds(3));
  EXPECT_TRUE(late);
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator sim;
  int chain = 0;
  sim.after(milliseconds(1), [&] {
    ++chain;
    sim.after(milliseconds(1), [&] {
      ++chain;
      sim.after(milliseconds(1), [&] { ++chain; });
    });
  });
  sim.run_until(seconds(1));
  EXPECT_EQ(chain, 3);
}

TEST(Simulator, CancelledTimerDoesNotFire) {
  Simulator sim;
  bool fired = false;
  const EventId id = sim.after(milliseconds(5), [&] { fired = true; });
  sim.after(milliseconds(1), [&] { sim.cancel(id); });
  sim.run_until(seconds(1));
  EXPECT_FALSE(fired);
}

TEST(Simulator, CountsExecutedEvents) {
  Simulator sim;
  for (int i = 0; i < 7; ++i) sim.after(milliseconds(i), [] {});
  sim.run_until(seconds(1));
  EXPECT_EQ(sim.events_executed(), 7u);
  EXPECT_EQ(sim.peak_pending_events(), 7u);
  EXPECT_GE(sim.slab_high_water(), 7u);
}

TEST(Simulator, ScheduleAfterShortRunUntilStaysExact) {
  // run_until() peeks next_time(), which may harvest wheel buckets far past
  // the run horizon.  Scheduling between the horizon and that harvested
  // tick must still be legal and fire in exact time order (regression:
  // this used to trip the engine's internal monotonicity assert).
  Simulator sim;
  std::vector<int> order;
  sim.after(seconds(1), [&] { order.push_back(2); });
  sim.run_until(milliseconds(1));  // peeks the 1 s event, fires nothing
  EXPECT_TRUE(order.empty());
  sim.after(milliseconds(1), [&] { order.push_back(1); });
  sim.run_until(seconds(2));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Simulator, CancelAndPendingRoundTrip) {
  Simulator sim;
  std::vector<int> order;
  sim.after(milliseconds(10), [&] { order.push_back(2); });
  sim.after(milliseconds(5), [&] { order.push_back(1); });
  const EventId id = sim.after(milliseconds(7), [&] { order.push_back(9); });
  EXPECT_TRUE(sim.pending(id));
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.pending(id));
  sim.run_until(seconds(1));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.events_executed(), 2u);
}

TEST(Simulator, FiredAndStaleHandlesAreInert) {
  Simulator sim;
  bool fired = false;
  const EventId done = sim.after(milliseconds(1), [&] { fired = true; });
  const EventId dropped = sim.after(milliseconds(2), [] {});
  EXPECT_EQ(sim.pending_events(), 2u);
  EXPECT_TRUE(sim.cancel(dropped));
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_FALSE(sim.cancel(dropped));  // already cancelled
  EXPECT_FALSE(sim.pending(dropped));
  sim.run_until(milliseconds(5));
  EXPECT_TRUE(fired);
  EXPECT_FALSE(sim.pending(done));  // already fired
  EXPECT_FALSE(sim.cancel(done));
  EXPECT_EQ(sim.pending_events(), 0u);
  // New events recycle the freed slots; the old handles stay dead.
  const EventId next = sim.after(milliseconds(1), [] {});
  EXPECT_FALSE(sim.pending(done));
  EXPECT_FALSE(sim.cancel(dropped));
  EXPECT_TRUE(sim.pending(next));
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(Timer, FiresWhenArmed) {
  Simulator sim;
  Timer timer;
  int fired = 0;
  timer.arm_after(sim, milliseconds(5), [&] { ++fired; });
  EXPECT_TRUE(timer.armed());
  sim.run_until(seconds(1));
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(timer.armed());
}

TEST(Timer, RearmReplacesThePendingEvent) {
  Simulator sim;
  Timer timer;
  std::vector<int> order;
  timer.arm_after(sim, milliseconds(5), [&] { order.push_back(1); });
  timer.arm_after(sim, milliseconds(9), [&] { order.push_back(2); });
  sim.run_until(seconds(1));
  EXPECT_EQ(order, (std::vector<int>{2}));  // the first arm was cancelled
  EXPECT_EQ(sim.events_executed(), 1u);
}

TEST(Timer, CancelAndDestructionStopTheEvent) {
  Simulator sim;
  int fired = 0;
  Timer cancelled;
  cancelled.arm_after(sim, milliseconds(5), [&] { ++fired; });
  EXPECT_TRUE(cancelled.cancel());
  EXPECT_FALSE(cancelled.cancel());  // second cancel is a no-op
  {
    Timer scoped;
    scoped.arm_after(sim, milliseconds(6), [&] { ++fired; });
  }  // RAII: going out of scope cancels the pending event
  sim.run_until(seconds(1));
  EXPECT_EQ(fired, 0);
}

TEST(Timer, PeriodicRearmFromOwnCallback) {
  Simulator sim;
  Timer timer;
  int ticks = 0;
  std::function<void()> tick = [&] {
    if (++ticks < 4) timer.arm_after(sim, milliseconds(10), tick);
  };
  timer.arm_after(sim, milliseconds(10), tick);
  sim.run_until(seconds(1));
  EXPECT_EQ(ticks, 4);
  EXPECT_FALSE(timer.armed());
}

TEST(Timer, MoveTransfersOwnership) {
  Simulator sim;
  int fired = 0;
  Timer a;
  a.arm_after(sim, milliseconds(5), [&] { ++fired; });
  Timer b = std::move(a);
  EXPECT_FALSE(a.armed());  // NOLINT(bugprone-use-after-move): post-move state
  EXPECT_TRUE(b.armed());
  a = std::move(b);  // moving back; destroying b must not cancel
  sim.run_until(seconds(1));
  EXPECT_EQ(fired, 1);
}

TEST(Random, UniformWithinBounds) {
  RandomStream rng(42);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(2.0, 5.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Random, UniformIntCoversRangeInclusive) {
  RandomStream rng(7);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    saw_lo |= v == 0;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Random, ExponentialHasRequestedMean) {
  RandomStream rng(11);
  double sum = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) sum += rng.exponential(0.1);
  EXPECT_NEAR(sum / kN, 0.1, 0.005);
}

TEST(Random, StreamsAreDeterministicPerSeed) {
  RngManager a(123);
  RngManager b(123);
  auto s1 = a.stream("traffic", 4);
  auto s2 = b.stream("traffic", 4);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(s1.uniform(), s2.uniform());
  }
}

TEST(Random, NamedStreamsAreIndependent) {
  RngManager mgr(99);
  auto s1 = mgr.stream("mobility", 0);
  auto s2 = mgr.stream("mobility", 1);
  auto s3 = mgr.stream("channel", 0);
  // Different streams must not produce identical sequences.
  int same12 = 0;
  int same13 = 0;
  for (int i = 0; i < 50; ++i) {
    const double a = s1.uniform();
    const double b = s2.uniform();
    const double c = s3.uniform();
    same12 += a == b;
    same13 += a == c;
  }
  EXPECT_LT(same12, 5);
  EXPECT_LT(same13, 5);
}

TEST(Random, SplitMixAvalanche) {
  // Single-bit input changes must flip roughly half the output bits.
  const std::uint64_t h1 = splitmix64(0x1234);
  const std::uint64_t h2 = splitmix64(0x1235);
  const int flipped = __builtin_popcountll(h1 ^ h2);
  EXPECT_GT(flipped, 16);
  EXPECT_LT(flipped, 48);
}

TEST(CounterStream, DrawDependsOnlyOnKeyAndIndex) {
  // Draw k of a key is the same whether or not other keys draw in between,
  // and equals the stateless draw(key, k).
  const RngManager mgr(5);
  const auto key = mgr.key("channel", 3, 4);
  CounterStream alone(key);
  CounterStream mixed(key);
  CounterStream other(mgr.key("channel", 3, 5));
  for (std::uint64_t k = 0; k < 1000; ++k) {
    if (k % 3 == 0) other.next();
    const auto v = alone.next();
    EXPECT_EQ(v, mixed.next());
    EXPECT_EQ(v, CounterStream::draw(key, k));
  }
  CounterStream normals(key);
  CounterStream normals_mixed(key);
  for (int i = 0; i < 1000; ++i) {
    if (i % 2 == 0) other.normal();
    EXPECT_EQ(normals.normal(), normals_mixed.normal());
  }
}

TEST(RngManager, KeyIsTheStreamSeed) {
  const RngManager mgr(77);
  EXPECT_EQ(mgr.key("channel", 2, 9), mgr.key("channel", 2, 9));
  EXPECT_NE(mgr.key("channel", 2, 9), mgr.key("channel", 9, 2));
  EXPECT_NE(mgr.key("channel", 2, 9), RngManager(78).key("channel", 2, 9));
  // stream(name, index) seeds from key(name, index).
  auto stream = mgr.stream("mobility", 3);
  std::mt19937_64 engine(mgr.key("mobility", 3));
  EXPECT_EQ(stream.engine()(), engine());
}

TEST(CounterStream, UniformLiesInHalfOpenUnitInterval) {
  // The extreme raw draws map inside (0, 1], so log() never sees 0.
  EXPECT_GT(CounterStream::unit_pos(0), 0.0);
  EXPECT_EQ(CounterStream::unit_pos(~std::uint64_t{0}), 1.0);
  CounterStream s(RngManager(3).key("channel", 0, 1));
  for (int i = 0; i < 100'000; ++i) {
    const double u = s.uniform_pos();
    ASSERT_GT(u, 0.0);
    ASSERT_LE(u, 1.0);
  }
}

TEST(CounterStream, NormalMatchesStandardGaussian) {
  constexpr int kN = 1'000'000;
  CounterStream s(RngManager(2024).key("channel", 0, 1));
  std::vector<double> z(kN);
  double sum = 0.0;
  double sq = 0.0;
  int tail = 0;
  for (auto& v : z) {
    v = s.normal();
    ASSERT_TRUE(std::isfinite(v));
    sum += v;
    sq += v * v;
    tail += std::abs(v) > 3.0 ? 1 : 0;
  }
  const double mean = sum / kN;
  EXPECT_LT(std::abs(mean), 0.005);
  EXPECT_LT(std::abs(sq / kN - mean * mean - 1.0), 0.01);

  // Kolmogorov-Smirnov distance to Phi, against its 1% critical value.
  std::sort(z.begin(), z.end());
  double ks = 0.0;
  for (int i = 0; i < kN; ++i) {
    const double cdf = 0.5 * std::erfc(-z[i] / std::sqrt(2.0));
    ks = std::max({ks, cdf - static_cast<double>(i) / kN,
                   static_cast<double>(i + 1) / kN - cdf});
  }
  EXPECT_LT(ks, 1.628 / std::sqrt(static_cast<double>(kN)));

  // The tails: P(|z| > 3) = 0.0027, within 3 binomial sd.
  const double p3 = std::erfc(3.0 / std::sqrt(2.0));
  EXPECT_NEAR(static_cast<double>(tail) / kN, p3,
              3.0 * std::sqrt(p3 * (1.0 - p3) / kN));
}

TEST(CounterStream, AdjacentPairKeysAreUncorrelated) {
  constexpr int kN = 1'000'000;
  const RngManager mgr(11);
  const std::pair<std::uint32_t, std::uint32_t> pairs[][2] = {
      {{4, 5}, {4, 6}}, {{4, 5}, {5, 6}}, {{0, 1}, {1, 2}}};
  for (const auto& [p, q] : pairs) {
    CounterStream a(mgr.key("channel", p.first, p.second));
    CounterStream b(mgr.key("channel", q.first, q.second));
    double sab = 0.0;
    double saa = 0.0;
    double sbb = 0.0;
    for (int i = 0; i < kN; ++i) {
      const double x = a.normal();
      const double y = b.normal();
      sab += x * y;
      saa += x * x;
      sbb += y * y;
    }
    EXPECT_LT(std::abs(sab / std::sqrt(saa * sbb)), 0.01)
        << "(" << p.first << "," << p.second << ") vs (" << q.first << ","
        << q.second << ")";
  }
}

}  // namespace
}  // namespace rica::sim
