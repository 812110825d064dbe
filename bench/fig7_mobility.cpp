// Figure 7 (extension, not in the paper): protocol x mobility-model
// comparison at the paper preset.  The paper evaluates RICA only under
// random-waypoint motion, but its channel model is driven by distance moved,
// so protocol rankings can shift with the motion pattern; this bench runs
// all five protocols under all five mobility models at one speed/load point
// and tabulates delivery, delay, and overhead per model.
//
// Flags: common scale flags (see bench_scale, including --warmup), plus
//   --speed KMH   mean speed of the comparison point (default 36)
//   --rate PKTS   offered load per flow (default 10)
//   --models CSV  mobility specs to compare (default: all five synthetic
//                 models; note `trace:file=PATH` specs contain no comma, so
//                 they compose with this list)
//   --trace FILE  shorthand appending `trace:file=FILE` to the model list,
//                 putting a replayed real-world trace next to the synthetic
//                 models in the same table
#include <exception>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/flags.hpp"
#include "harness/sweep.hpp"
#include "harness/table.hpp"
#include "mobility/mobility_model.hpp"

namespace {

using namespace rica;

void print_mobility_figure(
    const std::vector<harness::SweepPoint>& grid,
    const std::vector<std::string>& models, const std::string& title,
    const std::function<double(const harness::ScenarioResult&)>& metric,
    int precision) {
  harness::print_axis_figure(
      std::cout, grid, models, "mobility", title,
      [](const harness::SweepPoint& cell) { return cell.mobility; }, metric,
      precision);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rica;
  try {
    const harness::Flags flags(argc, argv);
    const harness::BenchScale scale =
        harness::bench_scale(flags, /*def_trials=*/3, /*def_sim_s=*/100.0);
    const double speed = flags.get("speed", 36.0);
    const double rate = flags.get("rate", 10.0);

    std::vector<std::string> models;
    if (flags.has("models")) {
      std::stringstream ss(flags.get("models", std::string{}));
      std::string item;
      while (std::getline(ss, item, ',')) {
        if (!item.empty()) models.push_back(item);
      }
    } else if (flags.has("mobility")) {
      // Honor the shared flag when given explicitly: a single-model "figure"
      // is a one-row table, not a silent all-model sweep.
      models = {scale.mobility};
    } else {
      models = mobility::known_mobility_models();
    }
    if (flags.has("trace")) {
      models.push_back("trace:file=" + flags.get("trace", std::string{}));
    }
    flags.reject_unread();

    const auto grid = run_speed_sweep({speed}, {rate}, models, scale);
    const std::string point = " at " + harness::fmt(speed, 0) + " km/h, " +
                              harness::fmt(rate, 0) + " pkt/s (" +
                              scale.preset + " preset)";
    print_mobility_figure(
        grid, models, "Figure 7(a): packet delivery (%) by mobility model" +
                          point,
        [](const harness::ScenarioResult& r) { return r.delivery_pct; }, 1);
    print_mobility_figure(
        grid, models,
        "Figure 7(b): end-to-end delay (ms) by mobility model" + point,
        [](const harness::ScenarioResult& r) { return r.avg_delay_ms; }, 1);
    print_mobility_figure(
        grid, models,
        "Figure 7(c): control overhead (kbps) by mobility model" + point,
        [](const harness::ScenarioResult& r) { return r.overhead_kbps; }, 1);
    print_mobility_figure(
        grid, models,
        "Figure 7(d): kernel events executed (millions, all trials) by"
        " mobility model" + point,
        [](const harness::ScenarioResult& r) {
          return r.stat("kernel.events_executed") * 1e-6;
        },
        2);
    print_mobility_figure(
        grid, models,
        "Figure 7(e): peak pending events (worst trial) by mobility model" +
            point,
        [](const harness::ScenarioResult& r) {
          return r.stat("kernel.peak_pending");
        },
        0);
    print_mobility_figure(
        grid, models,
        "Figure 7(f): event closures spilled past the 128 B inline buffer"
        " (heap_fallbacks, all trials) by mobility model" + point,
        [](const harness::ScenarioResult& r) {
          return r.stat("kernel.heap_fallbacks");
        },
        0);
    std::cout << "Reading guide: waypoint is the paper's setting; group\n"
                 "motion keeps flows inside a neighborhood (route lifetimes\n"
                 "stretch), while Gauss-Markov and Manhattan sustain motion\n"
                 "without pauses, stressing route repair hardest.\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
