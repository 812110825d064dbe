// Causal span derivation: turns the flat packet/route lifecycle stream into
// parent/child interval records whose durations decompose every packet's
// end-to-end delay exactly.
//
// A `SpanBook` taps the Tracer (Tracer::set_span_book) and runs one little
// state machine per in-flight packet, keyed by the globally unique
// (flow << 32) | seq identity.  `generated` opens a root span (the *trace*:
// its id names the whole causal chain) and puts the packet in a "hold"
// phase; every subsequent lifecycle record closes the current phase —
// emitting one child span — and opens the next:
//
//   phase      closed by                          emitted child kind
//   hold       enqueued / delivered / dropped     route_wait (detail:
//              (waiting on the protocol's         discovery | repair | hold)
//              routing decision)
//   queue      tx_start / re-enqueued / dropped   queue
//   backoff    tx_start / re-enqueued / dropped   backoff
//   air        tx_end                             airtime
//              tx_fail / re-enqueued / dropped    retry (wasted airtime)
//
// Each close instant is the next phase's open instant and the root covers
// generation → delivery/drop, so the child durations of a chain sum to the
// root duration *by construction* — the invariant tests/span_test.cpp and
// scripts/trace_query.py assert.  Zero-length phases are skipped (the sum
// is unaffected).  Discovery and repair episodes are independent root spans
// keyed by (requesting node, destination), opened by discovery_start /
// repair_start and closed by established / discovery_failed / repaired; a
// packet's route_wait names which kind of episode it sat behind.
//
// Determinism: span ids are allocated in the order spans open, which is the
// kernel's deterministic firing order, and records are emitted when spans
// *close*, so the span stream is t_ns-monotone and byte-identical across
// reruns.  A parent id may reference a root emitted later (schema checkers
// collect ids first).  finish() flushes still-open spans with detail
// "in_flight" at the run's end time.
#pragma once

#include <cstdint>
#include <map>

#include "obs/trace.hpp"
#include "sim/time.hpp"

namespace rica::obs {

class SpanBook {
 public:
  explicit SpanBook(Tracer& tracer) : tracer_(tracer) {}
  SpanBook(const SpanBook&) = delete;
  SpanBook& operator=(const SpanBook&) = delete;

  /// Lifecycle taps, called by the Tracer before its sinks see the record.
  void on_packet(const PacketTrace& rec);
  void on_route(const RouteTrace& rec);

  /// Emits every still-open packet root and discovery/repair episode with
  /// detail "in_flight", interval-ended at `now` (call once, at run end,
  /// before detaching).  Iterates in key order, so the flush is
  /// deterministic.
  void finish(sim::Time now);

  /// Spans emitted so far (diagnostics/tests).
  [[nodiscard]] std::uint64_t emitted() const { return emitted_; }

 private:
  enum class Phase : std::uint8_t { kHold, kQueue, kBackoff, kAir };

  struct PacketState {
    std::uint64_t root = 0;    ///< root span id == trace id
    sim::Time root_start{};
    Phase phase = Phase::kHold;
    sim::Time phase_start{};
    std::uint32_t flow = 0;
    std::uint32_t seq = 0;
    std::uint32_t node = 0;    ///< terminal the current phase is spent at
    std::uint32_t src = 0;
    std::uint32_t dst = 0;
  };

  struct Episode {
    std::uint64_t span = 0;
    sim::Time start{};
    std::uint32_t src = 0;
    std::uint32_t dst = 0;
  };

  static std::uint64_t packet_key(std::uint32_t flow, std::uint32_t seq) {
    return (static_cast<std::uint64_t>(flow) << 32) | seq;
  }
  static std::uint64_t episode_key(std::uint32_t node, std::uint32_t dst) {
    return (static_cast<std::uint64_t>(node) << 32) | dst;
  }

  /// Closes the open phase at `at`, emitting a child span unless it is
  /// zero-length.  `cause` stamps the child's detail for queue/backoff/air
  /// phases (failure cause or "reroute"); hold phases derive their own.
  /// `air_failed` tells an air close whether the transmission was
  /// interrupted (tx_fail -> "retry") or completed (tx_end -> "airtime").
  void close_phase(PacketState& st, sim::Time at, std::string_view cause,
                   bool air_failed = false);
  void open_phase(PacketState& st, Phase phase, sim::Time at,
                  std::uint32_t node) {
    st.phase = phase;
    st.phase_start = at;
    st.node = node;
  }
  void emit(std::string_view kind, const PacketState& st, sim::Time start,
            sim::Time end, std::string_view detail);
  void emit_root(const PacketState& st, sim::Time end,
                 std::string_view detail);
  void close_episode(std::map<std::uint64_t, Episode>& book,
                     std::string_view kind, std::uint64_t key,
                     std::uint32_t node, sim::Time at,
                     std::string_view detail);

  Tracer& tracer_;
  std::map<std::uint64_t, PacketState> packets_;
  std::map<std::uint64_t, Episode> discoveries_;  ///< keyed (node, dst)
  std::map<std::uint64_t, Episode> repairs_;      ///< keyed (node, dst)
  /// Close time of the last episode per key: a hold that overlaps one is a
  /// discovery/repair wait even though the episode record closed first.
  std::map<std::uint64_t, sim::Time> discovery_end_;
  std::map<std::uint64_t, sim::Time> repair_end_;
  std::uint64_t next_id_ = 1;  ///< 0 is reserved for "no parent"
  std::uint64_t emitted_ = 0;
};

}  // namespace rica::obs
