#include "obs/sampler.hpp"

#include <cinttypes>
#include <stdexcept>
#include <utility>

namespace rica::obs {

namespace {

/// Integer-arithmetic "seconds with 6 decimals" from nanoseconds, so the
/// CSV timestamps are byte-stable (no double rounding in the hot format).
struct SecondsStr {
  char buf[40];
  explicit SecondsStr(sim::Time t) {
    const std::int64_t ns = t.nanos();
    std::snprintf(buf, sizeof(buf), "%" PRId64 ".%06" PRId64,
                  ns / 1'000'000'000, (ns % 1'000'000'000) / 1000);
  }
};

}  // namespace

SeriesSampler::SeriesSampler(const std::string& path, SeriesSource source)
    : source_(std::move(source)) {
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr) {
    throw std::runtime_error("cannot open series output file: " + path);
  }
  std::fputs(
      "t_s,pending_events,events_executed,buffered_packets,delivered,"
      "delivery_rate_pps,control_kbps\n",
      file_);
}

SeriesSampler::~SeriesSampler() {
  if (file_ != nullptr) std::fclose(file_);
}

void SeriesSampler::flush() {
  if (file_ != nullptr) std::fflush(file_);
}

void SeriesSampler::start(sim::Simulator& sim, sim::Time dt, sim::Time end) {
  if (dt <= sim::Time::zero()) return;
  dt_ = dt;
  end_ = end;
  arm(sim);
}

void SeriesSampler::arm(sim::Simulator& sim) {
  const sim::Time next = sim.now() + dt_;
  if (next > end_) return;
  timer_.arm_at(sim, next, [this, &sim] {
    sample(sim);
    arm(sim);
  });
}

void SeriesSampler::sample(sim::Simulator& sim) {
  const std::uint64_t delivered = source_.delivered ? source_.delivered() : 0;
  const double control_bits =
      source_.control_bits ? source_.control_bits() : 0.0;
  const std::uint64_t buffered =
      source_.buffered_packets ? source_.buffered_packets() : 0;
  const double dt_s = dt_.seconds();
  const double rate_pps =
      static_cast<double>(delivered - last_delivered_) / dt_s;
  const double control_kbps = (control_bits - last_control_bits_) / dt_s / 1e3;
  last_delivered_ = delivered;
  last_control_bits_ = control_bits;
  std::fprintf(file_, "%s,%zu,%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%.3f,%.3f\n",
               SecondsStr(sim.now()).buf, sim.pending_events(),
               sim.events_executed(), buffered, delivered, rate_pps,
               control_kbps);
}

void KernelProbe::on_kernel_window(sim::Time now,
                                   std::uint64_t events_executed,
                                   std::uint64_t batched_fires,
                                   std::size_t pending) {
  if (tracer_ != nullptr && tracer_->kernel_on()) {
    tracer_->kernel(KernelTrace{now, events_executed, batched_fires,
                                static_cast<std::uint64_t>(pending)});
  }
  if (perfetto_ != nullptr) {
    const std::uint64_t fired = events_executed - last_executed_;
    const std::uint64_t batched = batched_fires - last_batched_;
    perfetto_->counter(PerfettoWriter::kKernelPid, "pending_events", now,
                       pending);
    perfetto_->counter(PerfettoWriter::kKernelPid, "fired_per_window", now,
                       fired);
    perfetto_->counter(PerfettoWriter::kKernelPid, "batched_per_window", now,
                       batched);
    perfetto_->counter(PerfettoWriter::kKernelPid, "spill_per_window", now,
                       fired - batched);
  }
  last_executed_ = events_executed;
  last_batched_ = batched_fires;
}

}  // namespace rica::obs
