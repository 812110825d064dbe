// Time-series sampling and the kernel profiling probe.
//
// `SeriesSampler` dumps a periodic per-run CSV (`--sample-dt S`): simulated
// time, pending kernel events, cumulative work, buffered data packets
// across every link queue, instantaneous delivery rate, and control
// overhead rate.  It reads its columns through caller-supplied thunks, so
// the observability layer stays decoupled from the network stack; the
// harness wires the thunks to the MetricsCollector and Network.  The
// sampler schedules *real* simulation events — a run with sampling enabled
// executes more kernel events than one without (events_executed moves) but
// never touches the metrics stream hash, because the sample callback only
// reads.
//
// `KernelProbe` adapts the Simulator's `sim::KernelObserver` hook to the
// trace layer: each observation window becomes a JSONL kernel record and a
// set of Perfetto counter samples (pending events; fired / batched / spill
// counts per window) on the "kernel" process track.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>

#include "obs/perfetto.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "sim/timer.hpp"

namespace rica::obs {

/// Column providers for SeriesSampler, wired by the harness.
struct SeriesSource {
  std::function<std::uint64_t()> delivered;         ///< cumulative packets
  std::function<double()> control_bits;             ///< cumulative bits on air
  std::function<std::uint64_t()> buffered_packets;  ///< live link-queue total
};

class SeriesSampler {
 public:
  /// Opens `path` and writes the CSV header.  Throws std::runtime_error
  /// when the file cannot be opened.
  SeriesSampler(const std::string& path, SeriesSource source);
  ~SeriesSampler();
  SeriesSampler(const SeriesSampler&) = delete;
  SeriesSampler& operator=(const SeriesSampler&) = delete;

  /// Arms periodic sampling every `dt` until `end` (inclusive), starting at
  /// `dt`.  Must be called before the run.
  void start(sim::Simulator& sim, sim::Time dt, sim::Time end);

  /// Flushes buffered rows (also done on destruction).
  void flush();

 private:
  void sample(sim::Simulator& sim);
  void arm(sim::Simulator& sim);

  std::FILE* file_ = nullptr;
  SeriesSource source_;
  sim::Timer timer_;
  sim::Time dt_{};
  sim::Time end_{};
  std::uint64_t last_delivered_ = 0;
  double last_control_bits_ = 0.0;
};

/// Bridges sim::KernelObserver into the trace layer.  Install with
/// Simulator::set_kernel_observer(&probe, interval).
class KernelProbe final : public sim::KernelObserver {
 public:
  /// Either sink may be null; the probe feeds whichever are present.
  KernelProbe(Tracer* tracer, PerfettoWriter* perfetto)
      : tracer_(tracer), perfetto_(perfetto) {}

  void on_kernel_window(sim::Time now, std::uint64_t events_executed,
                        std::uint64_t batched_fires,
                        std::size_t pending) override;

 private:
  Tracer* tracer_;
  PerfettoWriter* perfetto_;
  std::uint64_t last_executed_ = 0;
  std::uint64_t last_batched_ = 0;
};

}  // namespace rica::obs
