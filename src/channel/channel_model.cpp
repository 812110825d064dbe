#include "channel/channel_model.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

namespace rica::channel {

namespace {
constexpr std::uint64_t pair_key(std::uint32_t lo, std::uint32_t hi) {
  return (static_cast<std::uint64_t>(lo) << 32) | hi;
}
}  // namespace

ChannelModel::ChannelModel(const ChannelConfig& cfg,
                           mobility::MobilityManager& mobility,
                           const sim::RngManager& rng)
    : cfg_(cfg),
      mobility_(mobility),
      rng_(rng),
      index_(mobility,
             NeighborIndexConfig{cfg.range_m,
                                 sim::seconds_f(cfg.index_epoch_s)}),
      neighbor_bits_((mobility.size() + 63) / 64, 0) {}

bool ChannelModel::in_range(std::uint32_t a, std::uint32_t b, sim::Time t) {
  if (a == b) return false;
  if (cfg_.use_neighbor_index) {
    index_.ensure_fresh(t);
    // Snapshot prefilter: provably-distant pairs skip the exact mobility
    // evaluation entirely.
    if (!index_.possibly_in_range(a, b)) return false;
  }
  return mobility_.node_distance(a, b, t) <= cfg_.range_m;
}

ChannelModel::PairProcess& ChannelModel::process_for(std::uint32_t lo,
                                                     std::uint32_t hi,
                                                     sim::Time t) {
  const auto key = pair_key(lo, hi);
  if (const auto it = pairs_.find(key); it != pairs_.end()) return it->second;
  auto& p = pairs_.try_emplace(key, rng_.key("channel", lo, hi)).first->second;
  p.shadow_db = cfg_.shadow_sigma_db * p.rng.normal();
  p.fading_db = cfg_.fading_sigma_db * p.rng.normal();
  p.last = t;
  return p;
}

void ChannelModel::advance(PairProcess& p, sim::Time t,
                           double rel_speed_mps) {
  const double gap_s = (t - p.last).seconds();
  p.last = t;
  if (gap_s <= 0.0 || rel_speed_mps <= 0.0) return;  // frozen channel
  const double moved_m = rel_speed_mps * gap_s;

  const double rho_s = std::exp(-moved_m / cfg_.shadow_decorr_m);
  p.shadow_db = rho_s * p.shadow_db +
                std::sqrt(std::max(0.0, 1.0 - rho_s * rho_s)) *
                    cfg_.shadow_sigma_db * p.rng.normal();

  const double rho_f = std::exp(-moved_m / cfg_.fading_decorr_m);
  p.fading_db = rho_f * p.fading_db +
                std::sqrt(std::max(0.0, 1.0 - rho_f * rho_f)) *
                    cfg_.fading_sigma_db * p.rng.normal();
}

CsiClass ChannelModel::quantize(double snr_db) const {
  if (snr_db >= cfg_.class_a_db) return CsiClass::A;
  if (snr_db >= cfg_.class_b_db) return CsiClass::B;
  if (snr_db >= cfg_.class_c_db) return CsiClass::C;
  return CsiClass::D;
}

std::optional<ChannelSample> ChannelModel::sample(std::uint32_t a,
                                                  std::uint32_t b,
                                                  sim::Time t) {
  if (a == b) return std::nullopt;
  if (cfg_.use_neighbor_index) {
    index_.ensure_fresh(t);
    if (!index_.possibly_in_range(a, b)) return std::nullopt;
  }
  const double dist = mobility_.node_distance(a, b, t);
  if (dist > cfg_.range_m) return std::nullopt;

  const auto [lo, hi] = std::minmax(a, b);
  auto& proc = process_for(lo, hi, t);
  // Effective pair decorrelation speed: the sum of the two nodes' speeds
  // bounds the relative speed and preserves the key property that a fully
  // static pair sees a frozen channel.
  const double rel_speed = mobility_.speed(a, t) + mobility_.speed(b, t);
  advance(proc, t, rel_speed);

  const double mean_snr =
      cfg_.snr0_db -
      10.0 * cfg_.path_loss_exponent * std::log10(std::max(dist, 1.0));
  const double snr = mean_snr + proc.shadow_db + proc.fading_db;
  return ChannelSample{snr, quantize(snr)};
}

std::optional<CsiClass> ChannelModel::csi(std::uint32_t a, std::uint32_t b,
                                          sim::Time t) {
  const auto s = sample(a, b, t);
  if (!s) return std::nullopt;
  return s->csi;
}

std::vector<std::uint32_t> ChannelModel::neighbors_of(std::uint32_t node,
                                                      sim::Time t) {
  std::vector<std::uint32_t> out;
  neighbors_of(node, t, out);
  return out;
}

void ChannelModel::neighbors_of(std::uint32_t node, sim::Time t,
                                std::vector<std::uint32_t>& out) {
  out.clear();
  if (!cfg_.use_neighbor_index) {
    const auto n = static_cast<std::uint32_t>(mobility_.size());
    for (std::uint32_t other = 0; other < n; ++other) {
      if (other != node &&
          mobility_.node_distance(node, other, t) <= cfg_.range_m) {
        out.push_back(other);
      }
    }
    return;
  }
  index_.ensure_fresh(t);
  const auto pos = mobility_.position(node, t);
  candidates_.clear();
  index_.candidates_near(pos, candidates_);
  // Grid cells are visited row-major, but downstream event ordering depends
  // on the ascending-id order the brute-force scan produces.  Mark the
  // survivors in the id bitset and read it back word by word instead of
  // sorting; the read-back leaves the bitset all-zero again.
  std::size_t lo_word = neighbor_bits_.size();
  std::size_t hi_word = 0;
  for (const auto other : candidates_) {
    if (other == node) continue;
    if (mobility::distance(pos, mobility_.position(other, t)) <= cfg_.range_m) {
      const std::size_t w = other / 64;
      neighbor_bits_[w] |= std::uint64_t{1} << (other % 64);
      lo_word = std::min(lo_word, w);
      hi_word = std::max(hi_word, w);
    }
  }
  out.reserve(candidates_.size());
  for (std::size_t w = lo_word; w <= hi_word && w < neighbor_bits_.size();
       ++w) {
    for (auto bits = std::exchange(neighbor_bits_[w], 0); bits != 0;
         bits &= bits - 1) {
      out.push_back(static_cast<std::uint32_t>(w * 64) +
                    static_cast<std::uint32_t>(std::countr_zero(bits)));
    }
  }
}

std::vector<std::uint32_t> ChannelModel::neighbors_of_bruteforce(
    std::uint32_t node, sim::Time t) {
  std::vector<std::uint32_t> out;
  const auto n = static_cast<std::uint32_t>(mobility_.size());
  for (std::uint32_t other = 0; other < n; ++other) {
    if (other != node &&
        mobility_.node_distance(node, other, t) <= cfg_.range_m) {
      out.push_back(other);
    }
  }
  return out;
}

}  // namespace rica::channel
