#include "net/wire.hpp"

#include <bit>
#include <cstddef>

namespace rica::net::wire {

namespace {

// -- shared field helpers ----------------------------------------------------

/// Writes a node address, rejecting ids that cannot exist (>= 2^24; see
/// net::kMaxNodes).  `allow_broadcast` admits kBroadcastId (the `to` field
/// of broadcast control frames); payload fields always name real terminals.
void put_node(ByteWriter& w, NodeId id, bool allow_broadcast = false) {
  if (id >= kMaxNodes && !(allow_broadcast && id == kBroadcastId)) {
    throw WireError("node id " + std::to_string(id) +
                        " exceeds the 2^24 address space",
                    w.written());
  }
  w.u32(id);
}

[[nodiscard]] NodeId get_node(ByteReader& r, bool allow_broadcast = false) {
  const std::size_t at = r.offset();
  const NodeId id = r.u32();
  if (id >= kMaxNodes && !(allow_broadcast && id == kBroadcastId)) {
    throw WireError("node id " + std::to_string(id) +
                        " exceeds the 2^24 address space",
                    at);
  }
  return id;
}

[[nodiscard]] channel::CsiClass get_csi(ByteReader& r) {
  const std::size_t at = r.offset();
  const std::uint8_t raw = r.u8();
  if (raw > static_cast<std::uint8_t>(channel::CsiClass::D)) {
    throw WireError("CSI class " + std::to_string(raw) + " out of range", at);
  }
  return static_cast<channel::CsiClass>(raw);
}

// -- per-type bodies ---------------------------------------------------------
//
// One encode/decode pair per ControlPayload alternative.  Field order is
// the struct declaration order; kControlBodyBytes in the header is the
// byte-count contract these functions must realize (check_wire_invariants
// proves it).

void put_body(ByteWriter& w, const RreqMsg& m) {
  put_node(w, m.src);
  put_node(w, m.dst);
  w.u32(m.bid);
  w.f64(m.csi_hops);
  w.u16(m.topo_hops);
}
void get_body(ByteReader& r, RreqMsg& m) {
  m.src = get_node(r);
  m.dst = get_node(r);
  m.bid = r.u32();
  m.csi_hops = r.f64();
  m.topo_hops = r.u16();
}

void put_body(ByteWriter& w, const RrepMsg& m) {
  put_node(w, m.src);
  put_node(w, m.dst);
  w.u32(m.bid);
  w.f64(m.csi_hops);
  w.u16(m.topo_hops);
}
void get_body(ByteReader& r, RrepMsg& m) {
  m.src = get_node(r);
  m.dst = get_node(r);
  m.bid = r.u32();
  m.csi_hops = r.f64();
  m.topo_hops = r.u16();
}

void put_body(ByteWriter& w, const CsiCheckMsg& m) {
  put_node(w, m.src);
  put_node(w, m.dst);
  w.u32(m.bid);
  w.f64(m.csi_hops);
  w.u16(m.topo_hops);
  w.i16(m.ttl);
  put_node(w, m.received_from);
}
void get_body(ByteReader& r, CsiCheckMsg& m) {
  m.src = get_node(r);
  m.dst = get_node(r);
  m.bid = r.u32();
  m.csi_hops = r.f64();
  m.topo_hops = r.u16();
  m.ttl = r.i16();
  m.received_from = get_node(r);
}

void put_body(ByteWriter& w, const RupdMsg& m) {
  put_node(w, m.src);
  put_node(w, m.dst);
}
void get_body(ByteReader& r, RupdMsg& m) {
  m.src = get_node(r);
  m.dst = get_node(r);
}

void put_body(ByteWriter& w, const ReerMsg& m) {
  put_node(w, m.src);
  put_node(w, m.dst);
  put_node(w, m.reporter);
}
void get_body(ByteReader& r, ReerMsg& m) {
  m.src = get_node(r);
  m.dst = get_node(r);
  m.reporter = get_node(r);
}

void put_body(ByteWriter& w, const BgcaLqMsg& m) {
  put_node(w, m.origin);
  put_node(w, m.src);
  put_node(w, m.dst);
  w.u32(m.bid);
  w.i16(m.ttl);
  w.f64(m.csi_hops);
  w.u16(m.topo_hops);
  w.u16(m.origin_hops_to_dst);
}
void get_body(ByteReader& r, BgcaLqMsg& m) {
  m.origin = get_node(r);
  m.src = get_node(r);
  m.dst = get_node(r);
  m.bid = r.u32();
  m.ttl = r.i16();
  m.csi_hops = r.f64();
  m.topo_hops = r.u16();
  m.origin_hops_to_dst = r.u16();
}

void put_body(ByteWriter& w, const BgcaLqReplyMsg& m) {
  put_node(w, m.origin);
  put_node(w, m.src);
  put_node(w, m.dst);
  w.u32(m.bid);
  w.f64(m.csi_hops);
  w.u16(m.join_hops_to_dst);
  put_node(w, m.join);
}
void get_body(ByteReader& r, BgcaLqReplyMsg& m) {
  m.origin = get_node(r);
  m.src = get_node(r);
  m.dst = get_node(r);
  m.bid = r.u32();
  m.csi_hops = r.f64();
  m.join_hops_to_dst = r.u16();
  m.join = get_node(r);
}

void put_body(ByteWriter& w, const AbrBeaconMsg& m) {
  put_node(w, m.origin);
}
void get_body(ByteReader& r, AbrBeaconMsg& m) {
  m.origin = get_node(r);
}

void put_body(ByteWriter& w, const AbrBqMsg& m) {
  put_node(w, m.src);
  put_node(w, m.dst);
  w.u32(m.bid);
  w.u32(m.tick_sum);
  w.u32(m.load_sum);
  w.u16(m.topo_hops);
}
void get_body(ByteReader& r, AbrBqMsg& m) {
  m.src = get_node(r);
  m.dst = get_node(r);
  m.bid = r.u32();
  m.tick_sum = r.u32();
  m.load_sum = r.u32();
  m.topo_hops = r.u16();
}

void put_body(ByteWriter& w, const AbrReplyMsg& m) {
  put_node(w, m.src);
  put_node(w, m.dst);
  w.u32(m.bid);
  w.u16(m.topo_hops);
}
void get_body(ByteReader& r, AbrReplyMsg& m) {
  m.src = get_node(r);
  m.dst = get_node(r);
  m.bid = r.u32();
  m.topo_hops = r.u16();
}

void put_body(ByteWriter& w, const AbrLqMsg& m) {
  put_node(w, m.origin);
  put_node(w, m.src);
  put_node(w, m.dst);
  w.u32(m.bid);
  w.i16(m.ttl);
  w.u16(m.topo_hops);
  w.u16(m.origin_hops_to_dst);
}
void get_body(ByteReader& r, AbrLqMsg& m) {
  m.origin = get_node(r);
  m.src = get_node(r);
  m.dst = get_node(r);
  m.bid = r.u32();
  m.ttl = r.i16();
  m.topo_hops = r.u16();
  m.origin_hops_to_dst = r.u16();
}

void put_body(ByteWriter& w, const AbrLqReplyMsg& m) {
  put_node(w, m.origin);
  put_node(w, m.src);
  put_node(w, m.dst);
  w.u32(m.bid);
  w.u16(m.join_hops_to_dst);
  put_node(w, m.join);
}
void get_body(ByteReader& r, AbrLqReplyMsg& m) {
  m.origin = get_node(r);
  m.src = get_node(r);
  m.dst = get_node(r);
  m.bid = r.u32();
  m.join_hops_to_dst = r.u16();
  m.join = get_node(r);
}

void put_body(ByteWriter& w, const AbrRnMsg& m) {
  put_node(w, m.src);
  put_node(w, m.dst);
  put_node(w, m.reporter);
}
void get_body(ByteReader& r, AbrRnMsg& m) {
  m.src = get_node(r);
  m.dst = get_node(r);
  m.reporter = get_node(r);
}

void put_body(ByteWriter& w, const AodvRreqMsg& m) {
  put_node(w, m.src);
  put_node(w, m.dst);
  w.u32(m.bid);
  w.u16(m.hops);
}
void get_body(ByteReader& r, AodvRreqMsg& m) {
  m.src = get_node(r);
  m.dst = get_node(r);
  m.bid = r.u32();
  m.hops = r.u16();
}

void put_body(ByteWriter& w, const AodvRrepMsg& m) {
  put_node(w, m.src);
  put_node(w, m.dst);
  w.u32(m.bid);
  w.u16(m.hops);
}
void get_body(ByteReader& r, AodvRrepMsg& m) {
  m.src = get_node(r);
  m.dst = get_node(r);
  m.bid = r.u32();
  m.hops = r.u16();
}

void put_body(ByteWriter& w, const AodvRerrMsg& m) {
  put_node(w, m.src);
  put_node(w, m.dst);
  put_node(w, m.reporter);
}
void get_body(ByteReader& r, AodvRerrMsg& m) {
  m.src = get_node(r);
  m.dst = get_node(r);
  m.reporter = get_node(r);
}

void put_body(ByteWriter& w, const LsuMsg& m) {
  put_node(w, m.origin);
  w.u32(m.seq);
  w.u16(static_cast<std::uint16_t>(m.links.size()));
  for (const auto& [neighbor, csi] : m.links) {
    put_node(w, neighbor);
    w.u8(static_cast<std::uint8_t>(csi));
  }
}
void get_body(ByteReader& r, LsuMsg& m) {
  m.origin = get_node(r);
  m.seq = r.u32();
  const std::size_t count = r.u16();
  // The declared adjacency count must exactly match the bytes on the wire;
  // a short frame throws inside the loop, a long one in expect_end().
  m.links.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const NodeId neighbor = get_node(r);
    m.links.emplace_back(neighbor, get_csi(r));
  }
}

}  // namespace

void ByteWriter::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

double ByteReader::f64() { return std::bit_cast<double>(u64()); }

std::uint16_t encoded_control_size(const ControlPayload& payload) {
  std::size_t raw = kControlHeaderBytes + kControlBodyBytes[payload.index()];
  if (const auto* lsu = std::get_if<LsuMsg>(&payload)) {
    raw += kLsuLinkBytes * lsu->links.size();
  }
  // The wire-size field is u16.  A dense large-scale adjacency row can in
  // principle name 13 105+ neighbours and overflow it; that used to be a
  // Release-mode-vanishing assert followed by a clamp that silently
  // under-charged airtime.  It is a hard error now — an emitter with a row
  // that big must split it across frames.
  if (raw > 0xFFFF) {
    throw WireError("LSU frame of " + std::to_string(raw) +
                        " bytes overflows the u16 wire-size field "
                        "(split the adjacency row across frames)",
                    raw);
  }
  return static_cast<std::uint16_t>(raw);
}

std::size_t encode_control(const ControlPacket& pkt,
                           std::vector<std::uint8_t>& out) {
  // Size first: the LSU overflow check must fire before any bytes land.
  const std::uint16_t size = encoded_control_size(pkt.payload);
  ByteWriter w(out);
  w.u8(control_tag(pkt.payload.index()));
  put_node(w, pkt.to, /*allow_broadcast=*/true);
  std::visit([&w](const auto& body) { put_body(w, body); }, pkt.payload);
  // Defensive cross-check: a serializer drifting from the size table is a
  // programming error the invariant checker also catches at startup.
  if (w.written() != size) {
    throw WireError("encoder produced " + std::to_string(w.written()) +
                        " bytes, size table says " + std::to_string(size),
                    w.written());
  }
  return w.written();
}

namespace {

/// Default-constructs the alternative at runtime index `index` and decodes
/// the body into it.  Compile-time unrolled over the variant.
template <std::size_t I = 0>
[[nodiscard]] ControlPayload decode_body(std::size_t index, ByteReader& r) {
  if constexpr (I < std::variant_size_v<ControlPayload>) {
    if (index == I) {
      std::variant_alternative_t<I, ControlPayload> body;
      get_body(r, body);
      return body;
    }
    return decode_body<I + 1>(index, r);
  } else {
    throw WireError("unreachable control tag dispatch", r.offset());
  }
}

}  // namespace

ControlPacket decode_control(const std::uint8_t* data, std::size_t size) {
  if (size > 0xFFFF) {
    throw WireError("frame of " + std::to_string(size) +
                        " bytes overflows the u16 wire-size field",
                    size);
  }
  ByteReader r(data, size);
  const std::uint8_t tag = r.u8();
  if (tag < kControlTagBase ||
      tag >= control_tag(std::variant_size_v<ControlPayload>)) {
    throw WireError("bad control type tag 0x" + std::to_string(tag), 0);
  }
  ControlPacket pkt;
  pkt.to = get_node(r, /*allow_broadcast=*/true);
  pkt.payload = decode_body(static_cast<std::size_t>(tag - kControlTagBase), r);
  r.expect_end();
  pkt.size_bytes = static_cast<std::uint16_t>(size);
  return pkt;
}

std::size_t encode_data_header(const DataPacket& pkt,
                               std::vector<std::uint8_t>& out) {
  if (pkt.gen_time.nanos() < 0) {
    throw WireError("negative generation timestamp " +
                        std::to_string(pkt.gen_time.nanos()) + " ns",
                    0);
  }
  ByteWriter w(out);
  w.u8(kDataFrameTag);
  w.u8(pkt.route_update ? 0x01 : 0x00);
  w.u32(pkt.flow);
  put_node(w, pkt.src);
  put_node(w, pkt.dst);
  w.u32(pkt.seq);
  w.i64(pkt.gen_time.nanos());
  w.u16(pkt.size_bytes);
  w.u16(pkt.hops);
  if (w.written() != kDataHeaderBytes) {
    throw WireError("data header encoder produced " +
                        std::to_string(w.written()) + " bytes, expected " +
                        std::to_string(kDataHeaderBytes),
                    w.written());
  }
  return w.written();
}

DataPacket decode_data_header(const std::uint8_t* data, std::size_t size) {
  ByteReader r(data, size);
  const std::size_t tag_at = r.offset();
  const std::uint8_t tag = r.u8();
  if (tag != kDataFrameTag) {
    throw WireError("bad data type tag 0x" + std::to_string(tag), tag_at);
  }
  const std::size_t flags_at = r.offset();
  const std::uint8_t flags = r.u8();
  if ((flags & ~0x01u) != 0) {
    throw WireError("unknown flag bits 0x" + std::to_string(flags), flags_at);
  }
  DataPacket pkt;
  pkt.route_update = (flags & 0x01u) != 0;
  pkt.flow = r.u32();
  pkt.src = get_node(r);
  pkt.dst = get_node(r);
  pkt.seq = r.u32();
  const std::size_t t_at = r.offset();
  const std::int64_t gen_ns = r.i64();
  if (gen_ns < 0) {
    throw WireError("negative generation timestamp " + std::to_string(gen_ns) +
                        " ns",
                    t_at);
  }
  pkt.gen_time = sim::Time{gen_ns};
  pkt.size_bytes = r.u16();
  pkt.hops = r.u16();
  // A frame is either the bare header (how the simulator passes it around)
  // or header + exactly the declared payload; anything else is malformed.
  if (r.remaining() != 0 && r.remaining() != pkt.size_bytes) {
    throw WireError("frame carries " + std::to_string(r.remaining()) +
                        " payload byte(s), header declares " +
                        std::to_string(pkt.size_bytes),
                    r.offset());
  }
  return pkt;
}

namespace {

template <std::size_t I = 0>
void check_alternatives() {
  if constexpr (I < std::variant_size_v<ControlPayload>) {
    using Alt = std::variant_alternative_t<I, ControlPayload>;
    ControlPacket pkt;
    pkt.payload = Alt{};
    std::vector<std::uint8_t> buf;
    const std::size_t encoded = encode_control(pkt, buf);
    const std::size_t expected = kControlHeaderBytes + kControlBodyBytes[I];
    const auto sized = encoded_control_size(pkt.payload);
    if (encoded != expected || sized != expected) {
      throw std::logic_error(
          "wire: codec for ControlPayload alternative " + std::to_string(I) +
          " emits " + std::to_string(encoded) + " bytes (sizes as " +
          std::to_string(sized) + "), kControlBodyBytes expects " +
          std::to_string(expected));
    }
    if (decode_control(buf).payload.index() != I) {
      throw std::logic_error(
          "wire: round trip of ControlPayload alternative " +
          std::to_string(I) + " changed the message type");
    }
    check_alternatives<I + 1>();
  }
}

}  // namespace

void check_wire_invariants() {
  check_alternatives();
  std::vector<std::uint8_t> buf;
  const std::size_t header = encode_data_header(DataPacket{}, buf);
  if (header != kDataHeaderBytes) {
    throw std::logic_error("wire: data header encodes to " +
                           std::to_string(header) + " bytes, expected " +
                           std::to_string(kDataHeaderBytes));
  }
}

}  // namespace rica::net::wire

namespace rica::net {

ControlPacket make_control(NodeId to, ControlPayload payload) {
  ControlPacket pkt;
  pkt.to = to;
  pkt.size_bytes = wire::encoded_control_size(payload);
  pkt.payload = std::move(payload);
  return pkt;
}

}  // namespace rica::net
