#include "layer_trace.hpp"

#include <utility>

#include "obs/trace.hpp"

namespace perfbench {

namespace {

template <std::size_t... I>
std::array<std::string_view, kControlTypes> names_of(
    std::index_sequence<I...>) {
  return {rica::obs::control_info(rica::net::ControlPayload{
      std::in_place_index<I>})
              .name...};
}

/// RAII span: enter on construction, exit on scope end (exceptions too).
class Scope {
 public:
  Scope(LayerTrace& trace, Span span) : trace_(trace), span_(span) {
    trace_.enter();
  }
  ~Scope() { trace_.exit(span_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  LayerTrace& trace_;
  Span span_;
};

bool is_host(Span span) { return span >= Span::kSendControl; }

}  // namespace

const std::array<std::string_view, kControlTypes>& control_type_names() {
  static const auto names = names_of(std::make_index_sequence<kControlTypes>{});
  return names;
}

void LayerTrace::exit(Span span) {
  const Frame frame = stack_.back();
  stack_.pop_back();
  const std::int64_t dur = now_ns() - frame.start_ns;
  Totals& t = totals_[static_cast<std::size_t>(span)];
  ++t.calls;
  t.incl_ns += dur;
  t.self_ns += dur - frame.child_ns;
  if (!stack_.empty()) {
    stack_.back().child_ns += dur;
    return;
  }
  top_level_ns_ += dur;
  if (is_host(span)) {
    ++timer_host_.calls;
    timer_host_.incl_ns += dur;
    timer_host_.self_ns += dur - frame.child_ns;
  }
}

void LayerTrace::merge(const LayerTrace& other) {
  const auto add = [](Totals& a, const Totals& b) {
    a.calls += b.calls;
    a.incl_ns += b.incl_ns;
    a.self_ns += b.self_ns;
  };
  for (std::size_t i = 0; i < kSpanCount; ++i) {
    add(totals_[i], other.totals_[i]);
  }
  add(timer_host_, other.timer_host_);
  top_level_ns_ += other.top_level_ns_;
}

void TracedHost::send_control(rica::net::ControlPacket pkt) {
  Scope s(trace_, Span::kSendControl);
  inner_.send_control(std::move(pkt));
}

std::optional<rica::channel::CsiClass> TracedHost::link_csi(
    rica::net::NodeId neighbor) {
  Scope s(trace_, Span::kLinkCsi);
  return inner_.link_csi(neighbor);
}

std::vector<rica::net::NodeId> TracedHost::neighbors_in_range() {
  Scope s(trace_, Span::kNeighbors);
  return inner_.neighbors_in_range();
}

void TracedHost::forward_data(rica::net::DataPacket pkt,
                              rica::net::NodeId next_hop) {
  Scope s(trace_, Span::kForward);
  inner_.forward_data(std::move(pkt), next_hop);
}

void TracedHost::deliver_local(const rica::net::DataPacket& pkt) {
  Scope s(trace_, Span::kDeliver);
  inner_.deliver_local(pkt);
}

void TracedHost::drop_data(const rica::net::DataPacket& pkt,
                           rica::stats::DropReason reason) {
  Scope s(trace_, Span::kDrop);
  inner_.drop_data(pkt, reason);
}

std::vector<rica::net::DataPacket> TracedHost::drain_queue(
    rica::net::NodeId neighbor) {
  Scope s(trace_, Span::kDrain);
  return inner_.drain_queue(neighbor);
}

void TracedProtocol::handle_data(rica::net::DataPacket pkt,
                                 rica::net::NodeId from) {
  Scope s(trace_, Span::kHandleData);
  inner_->handle_data(std::move(pkt), from);
}

void TracedProtocol::on_control(const rica::net::ControlPacket& pkt,
                                rica::net::NodeId from) {
  Scope s(trace_, static_cast<Span>(static_cast<std::size_t>(Span::kOnControl) +
                                    pkt.payload.index()));
  inner_->on_control(pkt, from);
}

void TracedProtocol::on_link_break(
    rica::net::NodeId neighbor, std::vector<rica::net::DataPacket> stranded) {
  Scope s(trace_, Span::kOnLinkBreak);
  inner_->on_link_break(neighbor, std::move(stranded));
}

}  // namespace perfbench
