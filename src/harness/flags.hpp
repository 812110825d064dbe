// A tiny command-line flag parser for the bench and example binaries.
//
// Supported forms: --name value and --name=value.  Every name read through
// has()/get() is recorded; once a binary has read its whole configuration,
// reject_unread() throws on any flag given but never read, so a typo (or a
// retired flag) never silently runs the wrong experiment.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace rica::harness {

/// Parsed command-line flags with typed accessors and defaults.
class Flags {
 public:
  /// Parses argv; throws std::invalid_argument on malformed input.
  Flags(int argc, const char* const* argv);

  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& fallback) const;
  [[nodiscard]] double get(const std::string& name, double fallback) const;
  [[nodiscard]] int get(const std::string& name, int fallback) const;
  [[nodiscard]] std::uint64_t get(const std::string& name,
                                  std::uint64_t fallback) const;

  /// Comma-separated list of doubles (e.g. --speeds 0,18,36).
  [[nodiscard]] std::vector<double> get_list(
      const std::string& name, const std::vector<double>& fallback) const;

  /// Throws std::invalid_argument naming every flag given on the command
  /// line but never read through has()/get()/get_list().  Call once, after
  /// the binary has read its whole configuration.
  void reject_unread() const;

 private:
  /// The value of `name`, or nullptr when absent; records the read.
  [[nodiscard]] const std::string* find(const std::string& name) const;

  std::map<std::string, std::string> values_;
  mutable std::set<std::string> read_;
};

/// Common scale flags shared by every figure bench:
///   --trials N        independent seeds per point (default `def_trials`)
///   --sim-time S      seconds of simulated time (default `def_sim_s`)
///   --seed S          base seed
///   --paper-scale     shorthand for the paper's 25 trials x 500 s
///   --threads N       worker threads for the sweep grid (0 = one per core)
///   --preset NAME     scenario preset: paper, dense-urban, sparse-rural,
///                     metro, large-scale (see scenario_presets())
///   --mobility SPEC   mobility model "model[:k=v,...]": waypoint, walk,
///                     gauss-markov, group, manhattan, trace:file=PATH
///                     (validated here so a typo fails before any cell runs)
///   --traffic SPEC    traffic model "model[:k=v,...]": poisson, cbr, onoff,
///                     pareto, reqresp; every model takes pattern=random|
///                     sink|hotspot|ring (validated here, same as mobility)
///   --pause S         pause on arrival, seconds (waypoint/walk legs)
///   --warmup S        measurement warmup, seconds: metrics reset once at
///                     t = S and report over (S, sim end].  Defaults to the
///                     preset's warmup capped at 20% of --sim-time; pass
///                     --warmup 0 to measure the whole run (bit-identical
///                     to the pre-warmup harness).
struct BenchScale {
  int trials;
  double sim_s;
  std::uint64_t seed;
  int threads = 0;            ///< 0 = hardware concurrency
  std::string preset = "paper";
  std::string mobility = "waypoint";
  std::string traffic = "poisson";
  double pause_s = 3.0;       ///< the paper's §III-A default
  double warmup_s = 0.0;      ///< resolved warmup (explicit or preset cap)
  bool verbose = true;        ///< per-cell progress notes on stderr
};
[[nodiscard]] BenchScale bench_scale(const Flags& flags, int def_trials,
                                     double def_sim_s);

}  // namespace rica::harness
