// The discrete-event simulation kernel.
//
// A Simulator owns the clock and the event core.  Components schedule
// callbacks at absolute times or after relative delays; run_until() drains
// events in timestamp order, advancing the clock monotonically.
//
// The event core is the slab-backed timing wheel (EventEngine), which pops
// in exact (timestamp, schedule-seq) order — runs are bit-identical for a
// fixed seed, and the golden test suite pins full-stack stream hashes
// against captured references.  The kernel is serial by design: it is a
// small share of a run's wall clock, and the independent sweep cells and
// trials are where cores pay off (DESIGN.md §3 and §5).
#pragma once

#include <cassert>
#include <cstdint>
#include <utility>

#include "sim/event_engine.hpp"
#include "sim/time.hpp"

namespace rica::sim {

/// Observes the kernel's firing loop at a bounded sim-time rate.  Declared
/// here (and implemented by obs::KernelProbe) so the kernel has no
/// dependency on the observability layer; with no observer installed the
/// run loop pays one pointer test per fired event.
class KernelObserver {
 public:
  virtual ~KernelObserver() = default;
  /// Called after a fired event once at least the configured interval of
  /// sim time has elapsed since the previous call (and after the first
  /// fired event).  `pending` is the queue size after the fire.
  virtual void on_kernel_window(Time now, std::uint64_t events_executed,
                                std::uint64_t batched_fires,
                                std::size_t pending) = 0;
};

/// Discrete-event simulation kernel: clock + event core + run loop.
class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulation time.
  [[nodiscard]] Time now() const { return now_; }

  /// Schedules `fn` at absolute time `when` (must not precede now()).
  template <typename F>
  EventId at(Time when, F&& fn) {
    assert(when >= now_ && "cannot schedule in the past");
    const EventId id = engine_.schedule(when, std::forward<F>(fn));
    if (engine_.size() > peak_pending_) peak_pending_ = engine_.size();
    return id;
  }

  /// Schedules `fn` after a non-negative relative `delay`.
  template <typename F>
  EventId after(Time delay, F&& fn) {
    assert(delay >= Time::zero() && "negative delay");
    return at(now_ + delay, std::forward<F>(fn));
  }

  /// Cancels a pending event; no-op if it already fired.
  bool cancel(EventId id) { return engine_.cancel(id); }

  /// True while `id` refers to a still-pending event.
  [[nodiscard]] bool pending(EventId id) const { return engine_.pending(id); }

  /// Runs events with timestamp <= `end`, then sets the clock to `end`.
  void run_until(Time end);

  /// Runs until the event queue is empty (use with care: timer chains that
  /// re-arm themselves never drain; prefer run_until()).
  void run_all();

  // -- kernel observability ---------------------------------------------------
  /// Number of events executed so far.
  [[nodiscard]] std::uint64_t events_executed() const {
    return events_executed_;
  }

  /// Number of pending events (for tests/diagnostics).
  [[nodiscard]] std::size_t pending_events() const { return engine_.size(); }

  /// Maximum simultaneously pending events seen so far.
  [[nodiscard]] std::size_t peak_pending_events() const {
    return peak_pending_;
  }

  /// Event-record memory high-water mark (slab slots in use at once).
  [[nodiscard]] std::size_t slab_high_water() const {
    return engine_.slab_high_water();
  }

  /// Closures that outgrew the engine's inline callback buffer and spilled
  /// to a heap cell.
  [[nodiscard]] std::uint64_t heap_fallbacks() const {
    return engine_.heap_fallbacks();
  }

  /// Events fired straight off the engine's sorted flat batch (the rest
  /// went through the spill heap).
  [[nodiscard]] std::uint64_t batched_fires() const {
    return engine_.batched_fires();
  }

  /// Installs (or removes, with nullptr) a kernel observer.  The observer
  /// is invoked from the run loop at most once per `min_interval` of sim
  /// time — it must not schedule or cancel events.
  void set_kernel_observer(KernelObserver* observer, Time min_interval) {
    observer_ = observer;
    observer_interval_ = min_interval;
    next_observation_ = Time::zero();
  }

 private:
  /// Fires the earliest pending event at its timestamp.
  void fire_next(Time t);

  EventEngine engine_;
  Time now_ = Time::zero();
  std::uint64_t events_executed_ = 0;
  std::size_t peak_pending_ = 0;

  KernelObserver* observer_ = nullptr;
  Time observer_interval_ = Time::zero();
  Time next_observation_ = Time::zero();
};

}  // namespace rica::sim
