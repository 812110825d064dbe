#include "harness/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <mutex>
#include <ostream>
#include <thread>

#include "harness/table.hpp"
#include "mobility/mobility_model.hpp"
#include "mobility/trace.hpp"
#include "traffic/traffic_model.hpp"

namespace rica::harness {

std::vector<double> paper_speeds() {
  return {0.0, 14.4, 28.8, 43.2, 57.6, 72.0};
}

std::vector<SweepPoint> run_speed_sweep(const std::vector<double>& speeds_kmh,
                                        const std::vector<double>& loads,
                                        const BenchScale& scale) {
  return run_speed_sweep(speeds_kmh, loads, {scale.mobility}, scale);
}

std::vector<SweepPoint> run_speed_sweep(
    const std::vector<double>& speeds_kmh, const std::vector<double>& loads,
    const std::vector<std::string>& mobilities, const BenchScale& scale) {
  return run_speed_sweep(speeds_kmh, loads, mobilities, {scale.traffic},
                         scale);
}

std::vector<SweepPoint> run_speed_sweep(
    const std::vector<double>& speeds_kmh, const std::vector<double>& loads,
    const std::vector<std::string>& mobilities,
    const std::vector<std::string>& traffics, const BenchScale& scale) {
  // Resolve the preset and model specs up front so a bad name fails before
  // any work starts.  Trace specs go further: the file is loaded (and
  // validated against the preset's field) here, so an unreadable or
  // malformed trace aborts before minutes of synthetic-model cells run —
  // and the parse lands in the shared cache before worker threads race,
  // so the whole sweep reuses this one load.
  const ScenarioConfig base = preset_config(scale.preset);
  for (const auto& mobility : mobilities) {
    const auto mob = mobility::parse_mobility_spec(mobility);
    if (mob.model == mobility::ModelKind::kTrace) {
      (void)mobility::load_trace_shared(
          mob.trace_file, mobility::Field{base.field_m, base.field_m});
    }
  }
  for (const auto& traffic : traffics) {
    (void)traffic::parse_traffic_spec(traffic);
  }

  // Lay out the grid in the canonical (traffic, mobility, load, speed,
  // protocol) order; each cell owns a fixed output slot so worker
  // scheduling never reorders (or otherwise perturbs) the results.
  std::vector<SweepPoint> grid;
  grid.reserve(traffics.size() * mobilities.size() * speeds_kmh.size() *
               loads.size() * kAllProtocols.size());
  for (const auto& traffic : traffics) {
    for (const auto& mobility : mobilities) {
      for (const double load : loads) {
        for (const double speed : speeds_kmh) {
          for (const ProtocolKind proto : kAllProtocols) {
            grid.push_back(
                SweepPoint{proto, mobility, traffic, speed, load, {}});
          }
        }
      }
    }
  }

  std::atomic<std::size_t> next{0};
  std::mutex log_mu;
  std::mutex error_mu;
  std::exception_ptr first_error;

  const auto run_cell = [&](SweepPoint& cell) {
    ScenarioConfig cfg = base;
    cfg.protocol = cell.protocol;
    cfg.mobility = cell.mobility;
    cfg.traffic = cell.traffic;
    cfg.mean_speed_kmh = cell.mean_speed_kmh;
    cfg.pkts_per_s = cell.pkts_per_s;
    cfg.pause_s = scale.pause_s;
    cfg.sim_s = scale.sim_s;
    cfg.warmup_s = scale.warmup_s;
    cfg.seed = scale.seed;
    if (scale.verbose) {
      const std::scoped_lock lock(log_mu);
      std::fprintf(stderr, "[sweep] %-9s %-12s %-12s speed=%5.1f km/h"
                           " load=%4.1f pkt/s (%d trials x %.0f s)\n",
                   std::string(to_string(cell.protocol)).c_str(),
                   cell.mobility.c_str(), cell.traffic.c_str(),
                   cell.mean_speed_kmh, cell.pkts_per_s, scale.trials,
                   scale.sim_s);
    }
    cell.result = run_trials(cfg, scale.trials);
    if (scale.verbose) {
      // Kernel observability per cell: total events fired across the cell's
      // trials (and how many came off the sorted same-tick batch), the worst
      // trial's pending-event / slab / pool high-water marks, the closures
      // that spilled past the inline buffer, and the open-addressing table
      // occupancy — the knobs that tell whether the event core and the flat
      // memory layout, not the protocols, are the bottleneck at this grid
      // point.
      const auto count = [&cell](const char* name) {
        return static_cast<unsigned long long>(cell.result.stat(name));
      };
      const std::scoped_lock lock(log_mu);
      std::fprintf(stderr,
                   "[sweep]   done %-9s %-12s %-12s speed=%5.1f: events=%llu"
                   " batched=%llu peak_pending=%llu slab_hw=%llu heap_fb=%llu"
                   " pool_hw=%llu table_load=%.2f\n"
                   "[sweep]        drops=%llu (overflow=%llu expired=%llu"
                   " no_route=%llu link_break=%llu loop_cap=%llu)\n",
                   std::string(to_string(cell.protocol)).c_str(),
                   cell.mobility.c_str(), cell.traffic.c_str(),
                   cell.mean_speed_kmh, count("kernel.events_executed"),
                   count("kernel.batched_fires"), count("kernel.peak_pending"),
                   count("kernel.slab_high_water"),
                   count("kernel.heap_fallbacks"),
                   count("stack.pool_high_water"),
                   cell.result.stat("stack.table_load"),
                   static_cast<unsigned long long>(cell.result.dropped),
                   static_cast<unsigned long long>(cell.result.drops[0]),
                   static_cast<unsigned long long>(cell.result.drops[1]),
                   static_cast<unsigned long long>(cell.result.drops[2]),
                   static_cast<unsigned long long>(cell.result.drops[3]),
                   static_cast<unsigned long long>(cell.result.drops[4]));
    }
  };

  const auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= grid.size()) return;
      try {
        run_cell(grid[i]);
      } catch (...) {
        const std::scoped_lock lock(error_mu);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const std::size_t num_workers =
      std::min(grid.size(), static_cast<std::size_t>(
                                scale.threads > 0 ? scale.threads : hw));
  if (num_workers <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(num_workers);
    for (std::size_t i = 0; i < num_workers; ++i) pool.emplace_back(worker);
    for (auto& t : pool) t.join();
  }
  if (first_error) std::rethrow_exception(first_error);
  return grid;
}

void print_figure(std::ostream& os, const std::vector<SweepPoint>& grid,
                  double load, const std::string& title,
                  const std::function<double(const ScenarioResult&)>& metric,
                  int precision) {
  os << title << '\n';
  std::vector<std::string> header{"speed_kmh"};
  for (const auto proto : kAllProtocols) {
    header.emplace_back(to_string(proto));
  }
  Table table(std::move(header));

  std::vector<double> speeds;
  for (const auto& p : grid) {
    if (p.pkts_per_s != load) continue;
    if (speeds.empty() || speeds.back() != p.mean_speed_kmh) {
      if (std::find(speeds.begin(), speeds.end(), p.mean_speed_kmh) ==
          speeds.end()) {
        speeds.push_back(p.mean_speed_kmh);
      }
    }
  }
  for (const double speed : speeds) {
    std::vector<std::string> row{fmt(speed, 1)};
    for (const auto proto : kAllProtocols) {
      for (const auto& p : grid) {
        if (p.protocol == proto && p.mean_speed_kmh == speed &&
            p.pkts_per_s == load) {
          row.push_back(fmt(metric(p.result), precision));
          break;
        }
      }
    }
    table.add_row(std::move(row));
  }
  table.print(os);
  os << '\n';
}

void print_axis_figure(
    std::ostream& os, const std::vector<SweepPoint>& grid,
    const std::vector<std::string>& keys, const std::string& axis_label,
    const std::string& title,
    const std::function<std::string(const SweepPoint&)>& key_of,
    const std::function<double(const ScenarioResult&)>& metric,
    int precision) {
  os << title << '\n';
  std::vector<std::string> header{axis_label};
  for (const auto proto : kAllProtocols) {
    header.emplace_back(to_string(proto));
  }
  Table table(std::move(header));
  for (const auto& key : keys) {
    std::vector<std::string> row{key};
    for (const auto proto : kAllProtocols) {
      std::string cell;  // stays blank when the grid has no such point
      for (const auto& p : grid) {
        if (key_of(p) == key && p.protocol == proto) {
          cell = fmt(metric(p.result), precision);
          break;
        }
      }
      row.push_back(std::move(cell));
    }
    table.add_row(std::move(row));
  }
  table.print(os);
  os << '\n';
}

}  // namespace rica::harness
