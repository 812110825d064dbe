// Run-time metrics collection for the paper's §III evaluation:
//   * average end-to-end delay (Fig. 2),
//   * successful delivery percentage (Fig. 3),
//   * routing overhead in bits/s — control transmissions on the common
//     channel plus data-plane acknowledgements (Fig. 4),
//   * average link throughput and hop count of delivered packets (Fig. 5),
//   * aggregate delivered bits per 4-second bucket (Fig. 6).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "net/packet.hpp"
#include "obs/histogram.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "sim/time.hpp"

namespace rica::stats {

/// Why a data packet was lost.
enum class DropReason : std::uint8_t {
  kBufferOverflow = 0,  ///< FCFS link buffer full (cap 10 in the paper)
  kExpired = 1,         ///< exceeded the 3 s buffer-residency bound
  kNoRoute = 2,         ///< no valid route and discovery gave up / entry gone
  kLinkBreak = 3,       ///< stranded on a broken link
  kLoopCap = 4,         ///< exceeded the hop cap (routing loop)
};
inline constexpr std::size_t kNumDropReasons = 5;

[[nodiscard]] constexpr std::string_view to_string(DropReason r) {
  constexpr std::array<std::string_view, kNumDropReasons> names = {
      "buffer_overflow", "expired", "no_route", "link_break", "loop_cap"};
  return names[static_cast<std::size_t>(r)];
}

/// Delivered-bits time series in fixed 4 s buckets (Fig. 6's x-axis).
class ThroughputSeries {
 public:
  explicit ThroughputSeries(sim::Time bucket = sim::seconds(4))
      : bucket_(bucket) {}

  void add_bits(sim::Time at, double bits);

  /// Throughput of each bucket, kbps.
  [[nodiscard]] std::vector<double> kbps() const;

  [[nodiscard]] sim::Time bucket_width() const { return bucket_; }

  /// Drops accumulated bits; bucket indexing stays anchored at t = 0, so
  /// after a warmup reset the pre-warmup buckets simply read zero.
  void clear() { bits_.clear(); }

 private:
  sim::Time bucket_;
  std::vector<double> bits_;
};

/// Per-flow slice of a run's results (keyed by the traffic generator's flow
/// id): conservation counts plus the flow's delivered throughput and delay
/// percentiles (log-bucketed: exact to the histogram's <=1/32 relative
/// bucket width).  `generated - delivered - dropped` packets are still in
/// flight (buffered or mid-transmission) at the end of the window.
struct FlowSummary {
  std::uint32_t flow = 0;
  std::uint64_t generated = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  double tput_kbps = 0.0;  ///< delivered bits over the measurement window
  double delay_p50_ms = 0.0;
  double delay_p95_ms = 0.0;
  double delay_p99_ms = 0.0;
};

/// Aggregated results of one simulation run.
struct MetricsSummary {
  std::uint64_t generated = 0;
  std::uint64_t delivered = 0;
  double delivery_pct = 0.0;
  double avg_delay_ms = 0.0;
  double overhead_kbps = 0.0;
  double avg_link_tput_kbps = 0.0;
  double avg_hops = 0.0;
  std::array<std::uint64_t, kNumDropReasons> drops{};
  /// Total losses: always exactly the sum of the per-reason `drops` array
  /// (the taxonomy partitions the legacy aggregate, it does not extend it).
  std::uint64_t dropped = 0;
  std::uint64_t control_transmissions = 0;
  std::uint64_t control_collisions = 0;
  std::vector<double> tput_kbps_series;
  // Workload-axis metrics: delay percentiles pooled over every delivered
  // packet, Jain's fairness index over per-flow delivered throughput, and
  // the per-flow table backing both.  The run-level percentiles come from
  // the bounded log-bucketed delay histogram, so across trials average()
  // merges the histograms exactly and re-reads the percentiles from the
  // pooled distribution — no mean-of-percentiles approximation.  Per-flow
  // percentiles and fairness still average per-trial values across trials.
  double delay_p50_ms = 0.0;
  double delay_p95_ms = 0.0;
  double delay_p99_ms = 0.0;
  double jain_fairness = 0.0;
  std::vector<FlowSummary> flow_summaries;  ///< ascending flow id
  /// FNV-1a over the ordered generated/delivered/dropped/control event
  /// stream of the measurement window (see MetricsCollector::stream_hash).
  /// Across trials, average() folds the per-trial hashes in trial order.
  std::uint64_t stream_hash = 0;
  /// Start of the measurement window (0 without warmup; see reset_epoch).
  sim::Time measure_start{};
  /// Every scalar statistic of the run, keyed by name, with its fold kind
  /// attached: harness::run_scenario copies the run's obs::Registry
  /// snapshot here, so it holds the kernel and stack registrations (e.g.
  /// "kernel.events_executed", "stack.table_load") and the named protocol
  /// counts (e.g. "rica.discovery", see MetricsCollector::inc).  New
  /// statistics only need a registration, not a summary field.  Across
  /// trials, average() folds by kind: counters sum, gauges keep the
  /// maximum.  Read one with stat().
  std::map<std::string, obs::Sample> stats;
  /// Bounded log-bucketed distributions, keyed by name: always-on
  /// "delay_ns" / "queue_depth" / "airtime_ns" from the collector plus any
  /// histogram registered in the obs::Registry.  Across trials, average()
  /// merges by name — LogHistogram::merge is exact and associative, so
  /// pooled percentiles are identical no matter how trials are grouped.
  std::map<std::string, obs::LogHistogram> histograms;

  /// The value of statistic `name` in `stats`; 0 when absent.
  [[nodiscard]] double stat(const std::string& name) const {
    const auto it = stats.find(name);
    return it == stats.end() ? 0.0 : it->second.value;
  }
};

/// FNV-1a running hash (64-bit), folded one event record at a time.  Used
/// as the golden-run determinism fingerprint: any drift in event order,
/// payload, or timing of the metrics stream changes the digest.
inline constexpr std::uint64_t kFnvOffsetBasis = 14695981039346656037ull;
[[nodiscard]] constexpr std::uint64_t fnv1a(std::uint64_t hash,
                                            std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xFF;
    hash *= 1099511628211ull;
  }
  return hash;
}

/// Event sink wired into the node/MAC layers.  One collector per run.
class MetricsCollector {
 public:
  MetricsCollector() = default;

  // -- data plane -----------------------------------------------------------
  void on_generated(const net::DataPacket& pkt);
  void on_delivered(const net::DataPacket& pkt, sim::Time now);
  void on_dropped(const net::DataPacket& pkt, DropReason reason);

  // -- control plane --------------------------------------------------------
  /// A transmission on the common channel (each rebroadcast counts once).
  void on_control_tx(std::uint32_t bits);
  /// A reception lost to a collision (diagnostics only).
  void on_control_collision();
  /// A data-plane acknowledgement (counted in routing overhead per §III-A).
  void on_ack_tx(std::uint32_t bits);

  // -- always-on distributions ----------------------------------------------
  // Histogram observations ride outside the golden stream hash (like the
  // tracer): they are derived views of already-hashed events, cheap enough
  // (one bit-scan + increment) to collect unconditionally.
  /// Link-queue depth right after an enqueue.
  void observe_queue_depth(std::size_t depth) {
    queue_depth_.record(static_cast<std::int64_t>(depth));
  }
  /// One data transmission attempt's airtime (failed attempts included —
  /// wasted airtime is part of the story).
  void observe_airtime(sim::Time airtime) {
    airtime_ns_.record(airtime.nanos());
  }

  /// Central discovery-failure tally (fed by Node::trace_route, the one
  /// place every protocol's "discovery_failed" record funnels through);
  /// source for the discovery-storm watchdog.
  void count_discovery_failure() { ++discovery_failures_; }
  [[nodiscard]] std::uint64_t discovery_failures() const {
    return discovery_failures_;
  }

  /// Named counts for protocol diagnostics and tests: `name` becomes an
  /// owned counter in registry() on first use, so it reaches
  /// MetricsSummary::stats like every other statistic.  Named counts belong to the
  /// measurement window: reset_epoch() unregisters them.  A name must not
  /// collide with a statistic registered by another layer.
  void inc(const std::string& name, std::uint64_t by = 1);
  /// Current value of statistic `name` in registry(); 0 when absent.
  [[nodiscard]] std::uint64_t counter(const std::string& name) const;

  /// The run's metrics registry.  Every layer that reports a statistic
  /// already holds the collector, so the registry lives here;
  /// net::Network::registry() forwards to it, and harness::run_scenario
  /// snapshots it into MetricsSummary::stats and ::histograms.
  [[nodiscard]] obs::Registry& registry() { return registry_; }

  /// Per-flow tallies (keyed by the traffic generator's flow id).
  struct FlowStats {
    std::uint64_t generated = 0;
    std::uint64_t delivered = 0;
    std::uint64_t dropped = 0;
    double delay_sum_ms = 0.0;
    double bits_delivered = 0.0;
    sim::Time last_delivery{};
    /// Delivered-packet delays in nanoseconds, log-bucketed.  Replaces the
    /// old unbounded per-delivery vector (~4 MB per run at the heaviest
    /// preset) with a few hundred bytes of buckets per flow, at <=1/32
    /// relative percentile error.
    obs::LogHistogram delays;
  };
  [[nodiscard]] const std::map<std::uint32_t, FlowStats>& flow_stats() const {
    return flows_;
  }

  // -- measurement window ---------------------------------------------------
  /// Opens a fresh measurement epoch at `now`: every accumulator (counts,
  /// sums, drops, series, flow tallies, named counts, stream hash) restarts
  /// from zero and finalize() reports rates over (now, sim_duration].  This
  /// is the whole warmup implementation — one reset event at the end of the
  /// transient instead of an is-warm branch on every counter update — so a
  /// warmed-up run executes the exact same event stream as a cold one.
  void reset_epoch(sim::Time now);
  [[nodiscard]] sim::Time epoch_start() const { return epoch_start_; }

  /// Order-sensitive FNV-1a digest of every event recorded this epoch.
  [[nodiscard]] std::uint64_t stream_hash() const { return stream_hash_; }

  // -- results --------------------------------------------------------------
  [[nodiscard]] MetricsSummary finalize(sim::Time sim_duration) const;

  [[nodiscard]] std::uint64_t generated() const { return generated_; }
  [[nodiscard]] std::uint64_t delivered() const { return delivered_; }
  [[nodiscard]] std::uint64_t dropped(DropReason r) const {
    return drops_[static_cast<std::size_t>(r)];
  }
  [[nodiscard]] std::uint64_t dropped_total() const {
    std::uint64_t sum = 0;
    for (const auto d : drops_) sum += d;
    return sum;
  }
  /// Cumulative control bits on air this epoch (series sampling).
  [[nodiscard]] double control_bits() const { return control_bits_; }

  /// The structured-trace switchboard.  The collector is the one object
  /// already threaded through every emitting layer (nodes, both MACs, the
  /// harness), so it carries the tracer; emission sites call
  /// `tracer().packet(...)` etc., which are no-ops with no sink attached
  /// and never touch the stream hash either way.
  [[nodiscard]] obs::Tracer& tracer() { return tracer_; }

 private:
  void fold(std::uint64_t v) { stream_hash_ = fnv1a(stream_hash_, v); }

  std::uint64_t generated_ = 0;
  std::uint64_t delivered_ = 0;
  double delay_sum_ms_ = 0.0;
  double hop_sum_ = 0.0;
  double tput_sum_bps_ = 0.0;
  double control_bits_ = 0.0;
  double ack_bits_ = 0.0;
  std::uint64_t control_tx_count_ = 0;
  std::uint64_t collision_count_ = 0;
  std::array<std::uint64_t, kNumDropReasons> drops_{};
  ThroughputSeries series_{};
  obs::Registry registry_;
  std::vector<std::string> named_counts_;  ///< inc() names this epoch
  std::map<std::uint32_t, FlowStats> flows_;
  obs::LogHistogram delay_ns_;     ///< pooled end-to-end delay
  obs::LogHistogram queue_depth_;  ///< link-queue depth at enqueue
  obs::LogHistogram airtime_ns_;   ///< per-attempt data airtime
  std::uint64_t discovery_failures_ = 0;
  std::uint64_t stream_hash_ = kFnvOffsetBasis;
  sim::Time epoch_start_ = sim::Time::zero();
  obs::Tracer tracer_;
};

/// Mean over a set of per-trial values (used by the multi-trial harness).
[[nodiscard]] double mean(const std::vector<double>& xs);
/// Sample standard deviation (0 for fewer than two values).
[[nodiscard]] double stddev(const std::vector<double>& xs);
/// Nearest-rank percentile (q in [0, 100]) of an unsorted sample; 0 when
/// empty.  Copies and sorts, so callers keep their sample order.
[[nodiscard]] double percentile(std::vector<double> xs, double q);
/// Jain's fairness index (sum x)^2 / (n * sum x^2) over per-flow shares:
/// 1 when every flow gets an equal share, 1/n when one flow takes all.
/// Conventions: 0 for an empty set; 1 when every share is zero (uniformly
/// starved is still uniform).
[[nodiscard]] double jain_index(const std::vector<double>& xs);

}  // namespace rica::stats
