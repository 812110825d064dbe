#include "sim/simulator.hpp"

namespace rica::sim {

void Simulator::fire_next(Time t) {
  now_ = t;
  ++events_executed_;
  engine_.fire_next();
  if (observer_ == nullptr || now_ < next_observation_) return;
  next_observation_ = now_ + observer_interval_;
  observer_->on_kernel_window(now_, events_executed_, engine_.batched_fires(),
                              engine_.size());
}

void Simulator::run_until(Time end) {
  while (!engine_.empty()) {
    const Time t = engine_.next_time();
    if (t > end) break;
    fire_next(t);
  }
  if (end > now_) now_ = end;
}

void Simulator::run_all() {
  while (!engine_.empty()) fire_next(engine_.next_time());
}

}  // namespace rica::sim
