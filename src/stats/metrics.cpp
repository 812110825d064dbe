#include "stats/metrics.hpp"

#include <algorithm>
#include <cmath>

namespace rica::stats {

namespace {

/// Nearest-rank lookup in an already-sorted sample.
double sorted_percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank =
      std::ceil(q / 100.0 * static_cast<double>(sorted.size()));
  const auto idx = static_cast<std::size_t>(
      std::clamp(rank - 1.0, 0.0, static_cast<double>(sorted.size() - 1)));
  return sorted[idx];
}

}  // namespace

void ThroughputSeries::add_bits(sim::Time at, double bits) {
  const auto idx = static_cast<std::size_t>(at.nanos() / bucket_.nanos());
  if (bits_.size() <= idx) bits_.resize(idx + 1, 0.0);
  bits_[idx] += bits;
}

std::vector<double> ThroughputSeries::kbps() const {
  std::vector<double> out;
  out.reserve(bits_.size());
  const double secs = bucket_.seconds();
  for (const double b : bits_) out.push_back(b / secs / 1e3);
  return out;
}

void MetricsCollector::on_generated(const net::DataPacket& pkt) {
  ++generated_;
  ++flows_[pkt.flow].generated;
  fold(1);
  fold((static_cast<std::uint64_t>(pkt.flow) << 32) | pkt.seq);
  fold(static_cast<std::uint64_t>(pkt.gen_time.nanos()));
}

void MetricsCollector::on_delivered(const net::DataPacket& pkt,
                                    sim::Time now) {
  ++delivered_;
  delay_sum_ms_ += (now - pkt.gen_time).millis();
  hop_sum_ += pkt.hops;
  tput_sum_bps_ += pkt.tput_sum_bps;
  series_.add_bits(now, pkt.size_bytes * 8.0);
  auto& f = flows_[pkt.flow];
  ++f.delivered;
  f.delay_sum_ms += (now - pkt.gen_time).millis();
  f.bits_delivered += pkt.size_bytes * 8.0;
  f.last_delivery = now;
  const std::int64_t delay_ns = (now - pkt.gen_time).nanos();
  f.delays.record(delay_ns);
  delay_ns_.record(delay_ns);
  fold(2);
  fold((static_cast<std::uint64_t>(pkt.flow) << 32) | pkt.seq);
  fold(static_cast<std::uint64_t>(now.nanos()));
  fold(pkt.hops);
}

void MetricsCollector::on_dropped(const net::DataPacket& pkt,
                                  DropReason reason) {
  ++drops_[static_cast<std::size_t>(reason)];
  ++flows_[pkt.flow].dropped;
  fold(3);
  fold((static_cast<std::uint64_t>(pkt.flow) << 32) | pkt.seq);
  fold(static_cast<std::uint64_t>(reason));
}

void MetricsCollector::on_control_tx(std::uint32_t bits) {
  control_bits_ += bits;
  ++control_tx_count_;
  fold((4ull << 32) | bits);
}

void MetricsCollector::on_control_collision() {
  ++collision_count_;
  fold(5);
}

void MetricsCollector::on_ack_tx(std::uint32_t bits) {
  ack_bits_ += bits;
  fold((6ull << 32) | bits);
}

void MetricsCollector::reset_epoch(sim::Time now) {
  generated_ = 0;
  delivered_ = 0;
  delay_sum_ms_ = 0.0;
  hop_sum_ = 0.0;
  tput_sum_bps_ = 0.0;
  control_bits_ = 0.0;
  ack_bits_ = 0.0;
  control_tx_count_ = 0;
  collision_count_ = 0;
  drops_.fill(0);
  series_.clear();
  for (const auto& name : named_counts_) registry_.erase(name);
  named_counts_.clear();
  flows_.clear();
  delay_ns_ = obs::LogHistogram{};
  queue_depth_ = obs::LogHistogram{};
  airtime_ns_ = obs::LogHistogram{};
  discovery_failures_ = 0;
  stream_hash_ = kFnvOffsetBasis;
  epoch_start_ = now;
}

void MetricsCollector::inc(const std::string& name, std::uint64_t by) {
  obs::Counter* c = registry_.find_counter(name);
  if (c == nullptr) {
    c = &registry_.counter(name);
    named_counts_.push_back(name);
  }
  c->add(by);
}

std::uint64_t MetricsCollector::counter(const std::string& name) const {
  return static_cast<std::uint64_t>(registry_.read(name));
}

MetricsSummary MetricsCollector::finalize(sim::Time sim_duration) const {
  MetricsSummary s;
  s.generated = generated_;
  s.delivered = delivered_;
  s.delivery_pct =
      generated_ == 0 ? 0.0 : 100.0 * static_cast<double>(delivered_) /
                                  static_cast<double>(generated_);
  s.avg_delay_ms =
      delivered_ == 0 ? 0.0 : delay_sum_ms_ / static_cast<double>(delivered_);
  // Rates are normalized by the measurement window, which starts at the
  // last epoch reset (t = 0 when no warmup was requested).
  const double secs = (sim_duration - epoch_start_).seconds();
  s.overhead_kbps = secs <= 0.0 ? 0.0 : (control_bits_ + ack_bits_) / secs / 1e3;
  s.avg_link_tput_kbps = hop_sum_ <= 0.0 ? 0.0 : tput_sum_bps_ / hop_sum_ / 1e3;
  s.avg_hops =
      delivered_ == 0 ? 0.0 : hop_sum_ / static_cast<double>(delivered_);
  s.drops = drops_;
  s.dropped = dropped_total();
  s.control_transmissions = control_tx_count_;
  s.control_collisions = collision_count_;
  s.tput_kbps_series = series_.kbps();
  s.stream_hash = stream_hash_;
  s.measure_start = epoch_start_;

  // Workload-axis metrics: per-flow table (map iteration is ascending flow
  // id), fairness over per-flow delivered throughput, percentiles read
  // from the log-bucketed delay histograms (nanoseconds -> milliseconds).
  std::vector<double> flow_tputs;
  s.flow_summaries.reserve(flows_.size());
  flow_tputs.reserve(flows_.size());
  for (const auto& [flow_id, f] : flows_) {
    FlowSummary fs;
    fs.flow = flow_id;
    fs.generated = f.generated;
    fs.delivered = f.delivered;
    fs.dropped = f.dropped;
    fs.tput_kbps = secs <= 0.0 ? 0.0 : f.bits_delivered / secs / 1e3;
    fs.delay_p50_ms = f.delays.percentile(50.0) / 1e6;
    fs.delay_p95_ms = f.delays.percentile(95.0) / 1e6;
    fs.delay_p99_ms = f.delays.percentile(99.0) / 1e6;
    flow_tputs.push_back(fs.tput_kbps);
    s.flow_summaries.push_back(fs);
  }
  s.jain_fairness = jain_index(flow_tputs);
  s.delay_p50_ms = delay_ns_.percentile(50.0) / 1e6;
  s.delay_p95_ms = delay_ns_.percentile(95.0) / 1e6;
  s.delay_p99_ms = delay_ns_.percentile(99.0) / 1e6;
  s.histograms.emplace("delay_ns", delay_ns_);
  s.histograms.emplace("queue_depth", queue_depth_);
  s.histograms.emplace("airtime_ns", airtime_ns_);
  return s;
}

double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  for (const double x : xs) sum += x;
  return sum / static_cast<double>(xs.size());
}

double stddev(const std::vector<double>& xs) {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double acc = 0.0;
  for (const double x : xs) acc += (x - m) * (x - m);
  return std::sqrt(acc / static_cast<double>(xs.size() - 1));
}

double percentile(std::vector<double> xs, double q) {
  std::sort(xs.begin(), xs.end());
  return sorted_percentile(xs, q);
}

double jain_index(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (const double x : xs) {
    sum += x;
    sum_sq += x * x;
  }
  if (sum_sq == 0.0) return 1.0;
  return sum * sum / (static_cast<double>(xs.size()) * sum_sq);
}

}  // namespace rica::stats
