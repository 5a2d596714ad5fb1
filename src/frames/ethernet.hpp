// Ethernet II frame representation and serialization.
//
// The emulated HomePlug AV device speaks Ethernet on its host side: data
// frames enter as Ethernet payloads and management messages (MMEs) are
// Ethernet frames with EtherType 0x88E1.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "frames/mac_address.hpp"

namespace plc::frames {

/// EtherType assigned to HomePlug AV management messages.
inline constexpr std::uint16_t kEtherTypeHomePlugAv = 0x88E1;
/// EtherType for IPv4, used by the UDP-like data traffic generators.
inline constexpr std::uint16_t kEtherTypeIpv4 = 0x0800;

/// Minimum/maximum Ethernet payload sizes (without FCS).
inline constexpr std::size_t kMinEthernetPayload = 46;
inline constexpr std::size_t kMaxEthernetPayload = 1500;

/// An Ethernet II frame (no FCS; the emulated medium never corrupts the
/// host-side link).
struct EthernetFrame {
  MacAddress destination;
  MacAddress source;
  std::uint16_t ether_type = 0;
  std::vector<std::uint8_t> payload;

  /// Total serialized size: 14-byte header + payload (padded to the
  /// minimum payload size).
  std::size_t wire_size() const;

  /// Serializes header + payload, zero-padding short payloads to
  /// kMinEthernetPayload.
  std::vector<std::uint8_t> serialize() const;

  /// Writes the serialize() bytes to `out`, which must hold exactly
  /// wire_size() bytes.
  void serialize_to(std::span<std::uint8_t> out) const;

  /// Parses a serialized frame. Throws plc::Error if shorter than the
  /// 14-byte header.
  static EthernetFrame deserialize(std::span<const std::uint8_t> bytes);

  /// Parses like deserialize into `frame`, reusing its payload capacity.
  static void deserialize_into(std::span<const std::uint8_t> bytes,
                               EthernetFrame& frame);

  /// The EtherType of a serialized frame, read without parsing the rest.
  /// Throws plc::Error if shorter than the 14-byte header.
  static std::uint16_t ether_type_of(std::span<const std::uint8_t> bytes);
};

}  // namespace plc::frames
