// The source side of on-demand route discovery (§II-B), shared by RICA,
// BGCA, ABR and AODV: flood a request, hold the flow's data meanwhile, retry
// a bounded number of times, give up.  Each protocol supplies only its flood
// message and decides what to do with the packets a found route releases.
//
// Also here: the destination/source candidate window that collects every
// copy of one flood for a short wait before choosing the best.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "routing/protocol.hpp"
#include "routing/tables.hpp"
#include "sim/timer.hpp"

namespace rica::routing {

/// One flow's route discovery at its source, stored by value in the
/// protocol's own map (AODV keys it by destination, the others by flow).
/// The retry timer's callback holds this object's address, so it is neither
/// copied nor moved; util::FlatMap64 keeps its values in place.
///
/// Lifecycle: hold() buffers a packet; start() floods unless a discovery
/// is already running; every `wait` without a reply purges expired packets
/// and either stops (nothing left to deliver), gives up after kMaxAttempts
/// floods (dropping the rest as kNoRoute), or floods again; succeed() ends
/// it and release() hands the held packets back.  BGCA's and ABR's local
/// repair use only the hold/release half: their local query has its own
/// one-shot timer.
class Discovery {
 public:
  /// Source buffer bound and residency (paper §III-A), floods per
  /// discovery, and the default reply wait.
  static constexpr std::size_t kPendingCap = 10;
  static constexpr sim::Time kResidency = sim::seconds(3);
  static constexpr int kMaxAttempts = 3;
  static constexpr sim::Time kWait = sim::milliseconds(200);

  explicit Discovery(sim::Time wait = kWait) : wait_(wait) {}
  Discovery(const Discovery&) = delete;
  Discovery& operator=(const Discovery&) = delete;

  /// Buffers `pkt` until release(); a full buffer drops it as
  /// kBufferOverflow.
  void hold(ProtocolHost& host, net::DataPacket pkt) {
    pending_.hold(host, std::move(pkt));
  }

  /// Starts a discovery toward `dst` unless one is running: counts
  /// `counter`, traces discovery_start and floods.  `flood()` sends one
  /// request and returns its broadcast id.
  template <typename Flood>
  void start(ProtocolHost& host, const char* counter, net::NodeId dst,
             Flood flood) {
    if (active_) return;
    active_ = true;
    attempts_ = 1;
    host.count(counter);
    host.trace_route("discovery_start", host.id(), dst);
    send(host, dst, flood);
  }

  /// A route was found: stop retrying.
  void succeed() {
    active_ = false;
    timer_.cancel();
  }

  /// Removes and returns the held packets in FIFO order; expired ones are
  /// dropped as kExpired.
  std::vector<net::DataPacket> release(ProtocolHost& host) {
    return pending_.release(host);
  }

 private:
  template <typename Flood>
  void send(ProtocolHost& host, net::NodeId dst, Flood flood) {
    bid_ = flood();
    ProtocolHost* h = &host;
    timer_.arm_after(host.simulator(), wait_, [this, h, dst, flood] {
      expire(*h, dst, flood);
    });
  }

  template <typename Flood>
  void expire(ProtocolHost& host, net::NodeId dst, Flood flood) {
    pending_.purge_expired(host);
    if (pending_.empty()) {
      active_ = false;
      return;
    }
    if (attempts_ >= kMaxAttempts) {
      for (const auto& p : pending_.release(host)) {
        host.drop_data(p, stats::DropReason::kNoRoute);
      }
      active_ = false;
      host.trace_route("discovery_failed", host.id(), dst, bid_);
      return;
    }
    ++attempts_;
    host.trace_route("discovery_retry", host.id(), dst, bid_);
    send(host, dst, flood);
  }

  sim::Time wait_;
  std::uint32_t bid_ = 0;
  std::uint8_t attempts_ = 0;
  bool active_ = false;
  sim::Timer timer_;  ///< reply deadline; cancelled by succeed()
  PendingBuffer pending_{kPendingCap, kResidency};
};

/// A route candidate of the CSI-metric protocols (RICA, BGCA): the
/// neighbour a copy came from, the CSI hop distance it accumulated, and its
/// topological hop count.
struct CsiCandidate {
  net::NodeId first_hop = 0;
  double csi_hops = 0.0;
  std::uint16_t topo_hops = 0;

  /// The CSI-shortest order the windows choose by.
  static bool shorter(const CsiCandidate& a, const CsiCandidate& b) {
    return a.csi_hops < b.csi_hops;
  }
};

/// Flood-forwarding delay of the CSI-metric protocols (RICA, BGCA) for a
/// copy that arrived over a link of class `cls`: `per_hop` for each unit of
/// CSI hop distance beyond the first, plus a dither of up to 0.5 ms.  The
/// first copy to reach any terminal then travelled an approximately
/// CSI-shortest path.
inline sim::Time csi_flood_jitter(channel::CsiClass cls, sim::Time per_hop,
                                  sim::RandomStream& rng) {
  const double excess = channel::csi_hop_distance(cls) - 1.0;
  const double dither = rng.uniform(0.0, 0.5e6);
  return sim::Time{static_cast<std::int64_t>(
             excess * static_cast<double>(per_hop.nanos()))} +
         sim::Time{static_cast<std::int64_t>(dither)};
}

/// Collects every copy of one flood for a fixed wait, then picks the best:
/// the destination's RREQ/BQ window (§II-B "receives several RREQ's ... and
/// chooses a route with the minimal distance value") and RICA's source
/// CSI-check window (§II-C).  The owner schedules close() `wait` after the
/// add() that opened the window.
template <typename Candidate>
class CandidateWindow {
 public:
  /// Adds a copy of flood `bid`.  A copy of a new flood discards the old
  /// copies and opens a fresh window; returns true when it opened one.
  bool add(std::uint32_t bid, const Candidate& c) {
    const bool opened = !open_ || bid_ != bid;
    if (opened) {
      open_ = true;
      bid_ = bid;
      copies_.clear();
    }
    copies_.push_back(c);
    return opened;
  }

  /// Closes an open window and returns its best copy under `less`, or
  /// nullptr if the window was not open.  The copies stay readable through
  /// copies() until take() or the next window opens.
  template <typename Less>
  const Candidate* close(Less less) {
    if (!open_) return nullptr;
    open_ = false;
    return &*std::min_element(copies_.begin(), copies_.end(), less);
  }

  /// The flood the current (or last) window collected.
  [[nodiscard]] std::uint32_t bid() const { return bid_; }
  [[nodiscard]] const std::vector<Candidate>& copies() const {
    return copies_;
  }
  /// Moves the copies out, leaving the window empty.
  std::vector<Candidate> take() { return std::exchange(copies_, {}); }

 private:
  bool open_ = false;
  std::uint32_t bid_ = 0;
  std::vector<Candidate> copies_;
};

}  // namespace rica::routing
