#include "harness/flags.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "harness/scenario.hpp"
#include "mobility/mobility_model.hpp"
#include "traffic/traffic_model.hpp"

namespace rica::harness {

Flags::Flags(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      throw std::invalid_argument("unexpected positional argument: " + arg);
    }
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      continue;
    }
    // "--flag value" or a bare boolean "--flag".
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "1";
    }
  }
}

const std::string* Flags::find(const std::string& name) const {
  read_.insert(name);
  const auto it = values_.find(name);
  return it == values_.end() ? nullptr : &it->second;
}

bool Flags::has(const std::string& name) const {
  return find(name) != nullptr;
}

std::string Flags::get(const std::string& name,
                       const std::string& fallback) const {
  const std::string* v = find(name);
  return v == nullptr ? fallback : *v;
}

double Flags::get(const std::string& name, double fallback) const {
  const std::string* v = find(name);
  return v == nullptr ? fallback : std::stod(*v);
}

int Flags::get(const std::string& name, int fallback) const {
  const std::string* v = find(name);
  return v == nullptr ? fallback : std::stoi(*v);
}

std::uint64_t Flags::get(const std::string& name,
                         std::uint64_t fallback) const {
  const std::string* v = find(name);
  return v == nullptr ? fallback : std::stoull(*v);
}

std::vector<double> Flags::get_list(const std::string& name,
                                    const std::vector<double>& fallback) const {
  const std::string* v = find(name);
  if (v == nullptr) return fallback;
  std::vector<double> out;
  std::stringstream ss(*v);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(std::stod(item));
  }
  return out;
}

void Flags::reject_unread() const {
  std::string unread;
  for (const auto& [name, value] : values_) {
    if (read_.count(name) > 0) continue;
    unread += unread.empty() ? "--" : ", --";
    unread += name;
  }
  if (!unread.empty()) {
    throw std::invalid_argument("unknown flag(s): " + unread);
  }
}

BenchScale bench_scale(const Flags& flags, int def_trials, double def_sim_s) {
  BenchScale scale{};
  if (flags.has("paper-scale")) {
    scale.trials = 25;
    scale.sim_s = 500.0;
  } else {
    scale.trials = def_trials;
    scale.sim_s = def_sim_s;
  }
  scale.trials = flags.get("trials", scale.trials);
  scale.sim_s = flags.get("sim-time", scale.sim_s);
  scale.seed = flags.get("seed", static_cast<std::uint64_t>(1));
  scale.threads = flags.get("threads", 0);
  scale.preset = flags.get("preset", scale.preset);
  scale.mobility = flags.get("mobility", scale.mobility);
  // Validate the specs eagerly: a typo should fail with the known-model
  // list before any experiment cell runs, not after.
  (void)mobility::parse_mobility_spec(scale.mobility);
  scale.traffic = flags.get("traffic", scale.traffic);
  (void)traffic::parse_traffic_spec(scale.traffic);
  scale.pause_s = flags.get("pause", scale.pause_s);
  if (scale.pause_s < 0.0) {
    throw std::invalid_argument("--pause must be >= 0 seconds");
  }
  // Warmup: explicit flag wins (validated so the whole run never warms up);
  // otherwise the preset's default, capped at 20% of the simulated time so
  // short smoke runs still keep a measurement window.  The preset lookup
  // also front-loads the unknown-preset error before any cell runs.
  const ScenarioPreset& preset = find_preset(scale.preset);
  if (flags.has("warmup")) {
    scale.warmup_s = flags.get("warmup", 0.0);
    if (scale.warmup_s < 0.0) {
      throw std::invalid_argument("--warmup must be >= 0 seconds");
    }
    if (scale.warmup_s >= scale.sim_s) {
      throw std::invalid_argument(
          "--warmup must leave a measurement window (< --sim-time)");
    }
  } else {
    scale.warmup_s = std::min(preset.warmup_s, 0.2 * scale.sim_s);
  }
  return scale;
}

}  // namespace rica::harness
