// Figure 3: successful percentage of packet delivery vs mean mobile speed,
// for 10 pkt/s (a) and 20 pkt/s (b), all five protocols.
#include <exception>
#include <iostream>

#include "harness/flags.hpp"
#include "harness/sweep.hpp"

int main(int argc, char** argv) {
  using namespace rica::harness;
  try {
    const Flags flags(argc, argv);
    const BenchScale scale = bench_scale(flags, /*def_trials=*/3,
                                         /*def_sim_s=*/100.0);
    const auto speeds = flags.get_list("speeds", paper_speeds());
    flags.reject_unread();

    const auto grid = run_speed_sweep(speeds, {10.0, 20.0}, scale);
    const auto pct = [](const ScenarioResult& r) { return r.delivery_pct; };
    print_figure(std::cout, grid, 10.0,
                 "Figure 3(a): successful packet delivery (%), 10 pkt/s", pct);
    print_figure(std::cout, grid, 20.0,
                 "Figure 3(b): successful packet delivery (%), 20 pkt/s", pct);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
