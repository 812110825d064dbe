// Named, reproducible random-number streams.
//
// A RngManager derives independent substreams from one master seed using a
// SplitMix64 hash of the stream name/indices.  Components pull their own
// streams, so adding a component (or reordering calls) never perturbs the
// random sequence of another — a prerequisite for apples-to-apples protocol
// comparisons on identical mobility/channel realizations.
//
// CounterStream is the lightweight alternative for state that exists in
// large numbers (one per node pair in the channel): its draw k is a pure
// function of (key, k), so it holds a key and a counter instead of a full
// engine, and seeding it costs nothing.
#pragma once

#include <cmath>
#include <cstdint>
#include <numbers>
#include <random>
#include <string_view>

namespace rica::sim {

/// Odd increment of the SplitMix64 sequence (the golden ratio in 64 bits).
inline constexpr std::uint64_t kSplitMixGamma = 0x9e3779b97f4a7c15ULL;

/// SplitMix64 step: advances x by kSplitMixGamma and mixes the result; good
/// avalanche, used for seed derivation and by CounterStream.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += kSplitMixGamma;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Counter-based random stream.  Draw k of `key` is splitmix64(key + k *
/// kSplitMixGamma) — the SplitMix64 generator seeded with `key`, at
/// position k — so every draw is a pure function of (key, k): streams of
/// different keys never interact, and the whole state is the key, the
/// counter, and one cached normal deviate.
class CounterStream {
 public:
  explicit CounterStream(std::uint64_t key) : key_(key) {}

  /// Draw k of `key`, without any stream state.
  [[nodiscard]] static constexpr std::uint64_t draw(std::uint64_t key,
                                                    std::uint64_t k) {
    return splitmix64(key + k * kSplitMixGamma);
  }

  /// The next raw 64-bit draw.
  std::uint64_t next() { return draw(key_, count_++); }

  /// Maps a raw draw to (0, 1]: its top 53 bits plus one, times 2^-53, so
  /// log() of the result is always finite.
  [[nodiscard]] static constexpr double unit_pos(std::uint64_t bits) {
    return static_cast<double>((bits >> 11) + 1) * 0x1.0p-53;
  }

  /// Uniform double in (0, 1].
  double uniform_pos() { return unit_pos(next()); }

  /// Standard normal deviate by Box–Muller.  Each pair of uniforms yields
  /// two deviates; the second is cached and returned by the next call.
  double normal() {
    if (has_spare_) {
      has_spare_ = false;
      return spare_;
    }
    const double r = std::sqrt(-2.0 * std::log(uniform_pos()));
    const double theta = 2.0 * std::numbers::pi * uniform_pos();
    spare_ = r * std::sin(theta);
    has_spare_ = true;
    return r * std::cos(theta);
  }

 private:
  std::uint64_t key_;
  std::uint64_t count_ = 0;
  double spare_ = 0.0;
  bool has_spare_ = false;
};

/// One random stream (wraps mt19937_64 with distribution helpers).
class RandomStream {
 public:
  explicit RandomStream(std::uint64_t seed) : engine_(seed) {}

  /// Uniform double in [0, 1).
  double uniform() { return unit_(engine_); }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>{lo, hi}(engine_);
  }

  /// Exponential with the given mean (mean > 0).
  double exponential(double mean) {
    return std::exponential_distribution<double>{1.0 / mean}(engine_);
  }

  /// Standard normal scaled to (mean, stddev).
  double normal(double mean, double stddev) {
    return std::normal_distribution<double>{mean, stddev}(engine_);
  }

  /// Bernoulli trial with probability p of true.
  bool chance(double p) { return uniform() < p; }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
  std::uniform_real_distribution<double> unit_{0.0, 1.0};
};

/// Derives named independent substreams from a master seed.
class RngManager {
 public:
  explicit RngManager(std::uint64_t master_seed) : master_(master_seed) {}

  /// Stream for a named component ("mobility", "traffic", ...).
  [[nodiscard]] RandomStream stream(std::string_view name) const {
    return RandomStream{key(name)};
  }

  /// Stream for a named component and one index (e.g. per node).
  [[nodiscard]] RandomStream stream(std::string_view name,
                                    std::uint64_t index) const {
    return RandomStream{key(name, index)};
  }

  /// The 64-bit seed of a named component and up to two indices (e.g. a
  /// per-link CounterStream); stream(name[, index]) seeds from it too.
  [[nodiscard]] std::uint64_t key(std::string_view name, std::uint64_t a = 0,
                                  std::uint64_t b = 0) const {
    std::uint64_t h = master_;
    for (const char c : name) {
      h = splitmix64(h ^ static_cast<std::uint64_t>(c));
    }
    h = splitmix64(h ^ a);
    h = splitmix64(h ^ (b + 0x51ed2701a3c5e691ULL));
    return h;
  }

  [[nodiscard]] std::uint64_t master_seed() const { return master_; }

 private:
  std::uint64_t master_;
};

}  // namespace rica::sim
