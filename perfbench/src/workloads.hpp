// The benchmark's named workloads.  Each is a fixed list of scenario cells
// whose seeds derive from the benchmark's --seed; NOTES.md says why each
// was chosen and what it should leave unchanged.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "harness/scenario.hpp"

namespace perfbench {

struct Workload {
  std::string name;
  std::vector<rica::harness::ScenarioConfig> cells;  ///< run one after another
};

/// metro-rica, static-aodv, paper-grid.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// The named workload for `seed`.  `sim_scale` multiplies every cell's
/// simulated duration (1 for measurement; the self-test shrinks it).
/// Throws std::invalid_argument for an unknown name.
[[nodiscard]] Workload make_workload(std::string_view name, std::uint64_t seed,
                                     double sim_scale = 1.0);

/// One-line description of a cell's configuration.
[[nodiscard]] std::string describe(const rica::harness::ScenarioConfig& cfg);

}  // namespace perfbench
