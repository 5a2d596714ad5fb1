#include "frames/ethernet.hpp"

#include <algorithm>
#include <array>

#include "util/error.hpp"

namespace plc::frames {

std::size_t EthernetFrame::wire_size() const {
  return 14 + std::max(payload.size(), kMinEthernetPayload);
}

std::vector<std::uint8_t> EthernetFrame::serialize() const {
  std::vector<std::uint8_t> bytes;
  serialize_into(bytes);
  return bytes;
}

void EthernetFrame::serialize_into(std::vector<std::uint8_t>& out) const {
  util::require(payload.size() <= kMaxEthernetPayload,
                "EthernetFrame: payload exceeds 1500 bytes");
  std::array<std::uint8_t, 14> header{};
  destination.write_to(std::span(header).subspan(0, 6));
  source.write_to(std::span(header).subspan(6, 6));
  header[12] = static_cast<std::uint8_t>(ether_type >> 8);
  header[13] = static_cast<std::uint8_t>(ether_type & 0xFF);
  out.insert(out.end(), header.begin(), header.end());
  out.insert(out.end(), payload.begin(), payload.end());
  out.resize(out.size() + (wire_size() - header.size() - payload.size()), 0);
}

EthernetFrame EthernetFrame::deserialize(
    std::span<const std::uint8_t> bytes) {
  EthernetFrame frame;
  deserialize_into(bytes, frame);
  return frame;
}

void EthernetFrame::deserialize_into(std::span<const std::uint8_t> bytes,
                                     EthernetFrame& frame) {
  util::require(bytes.size() >= 14,
                "EthernetFrame::deserialize: shorter than header");
  frame.destination = MacAddress::read_from(bytes.subspan(0, 6));
  frame.source = MacAddress::read_from(bytes.subspan(6, 6));
  frame.ether_type =
      static_cast<std::uint16_t>(bytes[12] << 8 | bytes[13]);
  frame.payload.assign(bytes.begin() + 14, bytes.end());
}

}  // namespace plc::frames
