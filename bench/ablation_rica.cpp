// Ablation study of RICA's design choices (not a paper figure — these back
// the decisions recorded in DESIGN.md §2b):
//   * CSI-checking period: 0.25/0.5/1/2/4 s, plus the adaptive-period
//     extension the paper's §II-C hints at ("has to be decided by the
//     change speed of the link CSI");
//   * CSI-proportional flood jitter on/off (how first-copy forwarding
//     elects channel-adaptive routes);
//   * check-candidate salvage on/off is approximated by the route-expiry
//     knob: with a tiny expiry relays drop instead of salvaging from
//     long-lived state.
//
// Flags: --trials N --sim-time S --mean-speed KMH --rate PKTS --seed K
//        --preset paper|dense-urban|sparse-rural|large-scale
#include <exception>
#include <iostream>

#include "harness/flags.hpp"
#include "harness/scenario.hpp"
#include "harness/table.hpp"

namespace {

using namespace rica;

/// The RICA scenario every variant runs, with the variant's tunables
/// left at their defaults.
harness::ScenarioConfig base_config(const harness::Flags& flags) {
  harness::ScenarioConfig cfg =
      harness::preset_config(flags.get("preset", std::string("paper")));
  cfg.protocol = harness::ProtocolKind::kRica;
  cfg.mean_speed_kmh = flags.get("mean-speed", 54.0);
  cfg.pkts_per_s = flags.get("rate", 10.0);
  cfg.sim_s = flags.get("sim-time", 80.0);
  cfg.seed = flags.get("seed", static_cast<std::uint64_t>(1));
  return cfg;
}

void add_row(harness::Table& table, const std::string& name,
             const harness::ScenarioResult& r) {
  table.add_row({name, harness::fmt(r.delivery_pct, 1),
                 harness::fmt(r.avg_delay_ms, 1),
                 harness::fmt(r.overhead_kbps, 1),
                 harness::fmt(r.avg_link_tput_kbps, 1),
                 harness::fmt(r.avg_hops, 2)});
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const harness::Flags flags(argc, argv);
    const harness::ScenarioConfig base = base_config(flags);
    const int trials = flags.get("trials", 3);
    flags.reject_unread();
    const auto run = [&base, trials](const core::RicaConfig& rica_cfg) {
      harness::ScenarioConfig cfg = base;
      cfg.rica = rica_cfg;
      return harness::run_trials(cfg, trials);
    };
    harness::Table table({"variant", "delivery_%", "delay_ms",
                          "overhead_kbps", "link_tput_kbps", "hops"});

    // Checking-period sweep.
    for (const double period_s : {0.25, 0.5, 1.0, 2.0, 4.0}) {
      core::RicaConfig cfg;
      cfg.check_period = sim::seconds_f(period_s);
      std::cerr << "[ablation] check period " << period_s << " s\n";
      add_row(table, "check_period=" + harness::fmt(period_s, 2) + "s",
              run(cfg));
    }

    // Adaptive checking (the paper's future-work hint).
    {
      core::RicaConfig cfg;
      cfg.adaptive_checks = true;
      std::cerr << "[ablation] adaptive check period\n";
      add_row(table, "adaptive_checks", run(cfg));
    }

    // CSI-proportional flood jitter off: floods race at uniform speed, so
    // first-copy trees ignore channel quality.
    {
      core::RicaConfig cfg;
      cfg.csi_jitter = sim::Time::zero();
      std::cerr << "[ablation] csi jitter off\n";
      add_row(table, "csi_jitter=off", run(cfg));
    }

    // Wider checking scope (more TTL slack): better candidates, more
    // overhead.
    {
      core::RicaConfig cfg;
      cfg.check_ttl_slack = 6;
      std::cerr << "[ablation] check ttl slack 6\n";
      add_row(table, "check_ttl_slack=6", run(cfg));
    }

    std::cout << "RICA ablation (defaults: check 1 s, jitter 10 ms/unit, "
                 "slack 2)\n";
    table.print(std::cout);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << '\n';
    return 1;
  }
}
