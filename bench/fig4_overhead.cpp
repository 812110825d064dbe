// Figure 4: routing overhead (kbps of routing + data-ACK bits on average)
// vs mean mobile speed, for 10 pkt/s (a) and 20 pkt/s (b) — plus the
// byte-exact view the wire codecs enable: control bytes-on-air per trial
// (every frame charged at its encoded size, net/wire.hpp).
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
    const auto kbps = [](const ScenarioResult& r) { return r.overhead_kbps; };
    print_figure(std::cout, grid, 10.0,
                 "Figure 4(a): routing overhead (kbps), 10 pkt/s", kbps);
    print_figure(std::cout, grid, 20.0,
                 "Figure 4(b): routing overhead (kbps), 20 pkt/s", kbps);
    // Exact encoded control bytes on the air (the registry counter sums
    // across trials; divide back out for a per-trial figure).
    const double trials = static_cast<double>(scale.trials);
    const auto ctrl_kb = [trials](const ScenarioResult& r) {
      return r.stat("net.control_bytes_on_air") / trials / 1000.0;
    };
    print_figure(std::cout, grid, 10.0,
                 "Figure 4(c): control bytes-on-air (kB/trial), 10 pkt/s",
                 ctrl_kb);
    print_figure(std::cout, grid, 20.0,
                 "Figure 4(d): control bytes-on-air (kB/trial), 20 pkt/s",
                 ctrl_kb);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
