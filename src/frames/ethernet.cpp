#include "frames/ethernet.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace plc::frames {

std::size_t EthernetFrame::wire_size() const {
  return 14 + std::max(payload.size(), kMinEthernetPayload);
}

std::vector<std::uint8_t> EthernetFrame::serialize() const {
  std::vector<std::uint8_t> bytes(wire_size());
  serialize_to(bytes);
  return bytes;
}

void EthernetFrame::serialize_to(std::span<std::uint8_t> out) const {
  util::require(payload.size() <= kMaxEthernetPayload,
                "EthernetFrame: payload exceeds 1500 bytes");
  util::require(out.size() == wire_size(),
                "EthernetFrame::serialize_to: span is not wire_size() bytes");
  std::copy_n(destination.bytes().begin(), 6, out.begin());
  std::copy_n(source.bytes().begin(), 6, out.begin() + 6);
  out[12] = static_cast<std::uint8_t>(ether_type >> 8);
  out[13] = static_cast<std::uint8_t>(ether_type & 0xFF);
  const auto padding = std::copy(payload.begin(), payload.end(),
                                 out.begin() + 14);
  std::fill(padding, out.end(), 0);
}

EthernetFrame EthernetFrame::deserialize(
    std::span<const std::uint8_t> bytes) {
  EthernetFrame frame;
  deserialize_into(bytes, frame);
  return frame;
}

void EthernetFrame::deserialize_into(std::span<const std::uint8_t> bytes,
                                     EthernetFrame& frame) {
  frame.ether_type = ether_type_of(bytes);
  frame.destination = MacAddress::read_from(bytes.subspan(0, 6));
  frame.source = MacAddress::read_from(bytes.subspan(6, 6));
  frame.payload.assign(bytes.begin() + 14, bytes.end());
}

std::uint16_t EthernetFrame::ether_type_of(
    std::span<const std::uint8_t> bytes) {
  util::require(bytes.size() >= 14,
                "EthernetFrame::deserialize: shorter than header");
  return static_cast<std::uint16_t>(bytes[12] << 8 | bytes[13]);
}

}  // namespace plc::frames
