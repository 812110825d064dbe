// Outside-in per-layer tracing: timing decorators around the two interfaces
// that separate the routing layer from the rest of the stack.
//
//   * TracedProtocol wraps each node's real routing::Protocol and times the
//     three entry points the stack calls: handle_data, on_control (keyed by
//     control-message type through the payload's variant index, a
//     precomputed slot, never a per-call string) and on_link_break.
//   * TracedHost wraps each node's routing::ProtocolHost and is what the
//     real protocol is constructed with, so every service call the protocol
//     makes (send_control, link_csi, neighbors_in_range, forward_data,
//     drain_queue, deliver_local, drop_data) is timed.
//
// Spans nest: a host call inside a handler is subtracted from the
// handler's self time, and a handler re-entered from inside a host call
// (closed-loop traffic reacting to a delivery, a link break raised while
// enqueueing) is subtracted from the host call's.  Host calls made outside
// any handler come from protocol timers and are tallied apart.  Aggregates
// stay in memory; nothing is written until the benchmark reports.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "net/node.hpp"
#include "net/packet.hpp"
#include "routing/protocol.hpp"

namespace perfbench {

inline constexpr std::size_t kControlTypes =
    std::variant_size_v<rica::net::ControlPayload>;

/// Every timed boundary.  Handlers first, then host services.
enum class Span : std::uint8_t {
  kHandleData,
  kOnLinkBreak,
  kOnControl,  ///< first of kControlTypes consecutive slots
  kSendControl = kOnControl + kControlTypes,
  kLinkCsi,
  kNeighbors,
  kForward,
  kDrain,
  kDeliver,
  kDrop,
  kCount,
};
inline constexpr std::size_t kSpanCount =
    static_cast<std::size_t>(Span::kCount);

/// `obs::control_info` names of the control payload alternatives, indexed by
/// the payload's variant index.
[[nodiscard]] const std::array<std::string_view, kControlTypes>&
control_type_names();

/// Per-span call and time totals, plus the nesting stack.
class LayerTrace {
 public:
  struct Totals {
    std::uint64_t calls = 0;
    std::int64_t incl_ns = 0;  ///< wall time inside the span
    std::int64_t self_ns = 0;  ///< minus time inside nested spans
  };

  LayerTrace() { stack_.reserve(64); }

  void enter() { stack_.push_back({now_ns(), 0}); }
  void exit(Span span);

  [[nodiscard]] const Totals& totals(Span span) const {
    return totals_[static_cast<std::size_t>(span)];
  }
  [[nodiscard]] const Totals& control(std::size_t slot) const {
    return totals_[static_cast<std::size_t>(Span::kOnControl) + slot];
  }
  /// Host calls made outside every handler (protocol timer callbacks).
  [[nodiscard]] const Totals& timer_host() const { return timer_host_; }
  /// Wall time inside outermost spans: routing self + host self.
  [[nodiscard]] std::int64_t top_level_ns() const { return top_level_ns_; }

  /// Adds another trace's totals (grid cells fold into one report).
  void merge(const LayerTrace& other);

  /// Forgets every span recorded so far.
  void clear() {
    totals_ = {};
    timer_host_ = {};
    top_level_ns_ = 0;
  }

 private:
  struct Frame {
    std::int64_t start_ns;
    std::int64_t child_ns;
  };
  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  std::vector<Frame> stack_;
  std::array<Totals, kSpanCount> totals_{};
  Totals timer_host_{};
  std::int64_t top_level_ns_ = 0;
};

/// The ProtocolHost decorator handed to the real protocol.
class TracedHost final : public rica::routing::ProtocolHost {
 public:
  TracedHost(rica::routing::ProtocolHost& inner, LayerTrace& trace)
      : inner_(inner), trace_(trace) {}

  [[nodiscard]] rica::net::NodeId id() const override { return inner_.id(); }
  rica::sim::Simulator& simulator() override { return inner_.simulator(); }
  rica::sim::RandomStream& protocol_rng() override {
    return inner_.protocol_rng();
  }
  void send_control(rica::net::ControlPacket pkt) override;
  std::optional<rica::channel::CsiClass> link_csi(
      rica::net::NodeId neighbor) override;
  std::vector<rica::net::NodeId> neighbors_in_range() override;
  void forward_data(rica::net::DataPacket pkt,
                    rica::net::NodeId next_hop) override;
  void deliver_local(const rica::net::DataPacket& pkt) override;
  void drop_data(const rica::net::DataPacket& pkt,
                 rica::stats::DropReason reason) override;
  std::vector<rica::net::DataPacket> drain_queue(
      rica::net::NodeId neighbor) override;
  [[nodiscard]] std::size_t buffered_count() const override {
    return inner_.buffered_count();
  }
  void count(const std::string& name, std::uint64_t by) override {
    inner_.count(name, by);
  }
  void trace_route(std::string_view stage, rica::net::NodeId src,
                   rica::net::NodeId dst, std::uint32_t bid, double metric,
                   std::string_view detail) override {
    inner_.trace_route(stage, src, dst, bid, metric, detail);
  }

 private:
  rica::routing::ProtocolHost& inner_;
  LayerTrace& trace_;
};

/// The Protocol decorator installed on the node.  It owns the TracedHost
/// and the real protocol (built against that host by `make`), declared in
/// that order so the protocol is destroyed before its host.
class TracedProtocol final : public rica::routing::Protocol {
 public:
  using Factory = std::function<std::unique_ptr<rica::routing::Protocol>(
      rica::routing::ProtocolHost&)>;

  TracedProtocol(rica::net::Node& node, LayerTrace& trace,
                 const Factory& make)
      : Protocol(node), host_(node, trace), inner_(make(host_)),
        trace_(trace) {}

  [[nodiscard]] rica::routing::Protocol& inner() { return *inner_; }

  void start() override { inner_->start(); }
  void handle_data(rica::net::DataPacket pkt, rica::net::NodeId from) override;
  void on_control(const rica::net::ControlPacket& pkt,
                  rica::net::NodeId from) override;
  void on_link_break(rica::net::NodeId neighbor,
                     std::vector<rica::net::DataPacket> stranded) override;
  [[nodiscard]] std::string_view name() const override {
    return inner_->name();
  }
  [[nodiscard]] double table_load() const override {
    return inner_->table_load();
  }

 private:
  TracedHost host_;
  std::unique_ptr<rica::routing::Protocol> inner_;
  LayerTrace& trace_;
};

}  // namespace perfbench
