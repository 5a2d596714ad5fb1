// IEEE MAC-48 address value type.
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

namespace plc::frames {

/// A 6-byte Ethernet MAC address.
class MacAddress {
 public:
  constexpr MacAddress() = default;
  constexpr explicit MacAddress(std::array<std::uint8_t, 6> bytes)
      : bytes_(bytes) {}

  /// Parses "aa:bb:cc:dd:ee:ff" (case-insensitive). Throws plc::Error on
  /// malformed input.
  static MacAddress parse(std::string_view text);

  /// ff:ff:ff:ff:ff:ff.
  static constexpr MacAddress broadcast() {
    return MacAddress({0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF});
  }

  /// Deterministic per-station address used by the emulated testbed:
  /// 02:19:01:00:00:<index> (locally administered).
  static MacAddress for_station(int index);

  constexpr const std::array<std::uint8_t, 6>& bytes() const {
    return bytes_;
  }

  /// Writes the 6 bytes into `out` (size must be >= 6).
  void write_to(std::span<std::uint8_t> out) const;

  /// Reads 6 bytes from `in` (size must be >= 6).
  static MacAddress read_from(std::span<const std::uint8_t> in);

  bool is_broadcast() const { return *this == broadcast(); }

  std::string to_string() const;

  /// Compares the six bytes inline; the defaulted <=> below, which
  /// orders addresses, would call memcmp for equality too.
  friend constexpr bool operator==(const MacAddress& a, const MacAddress& b) {
    return ((a.bytes_[0] ^ b.bytes_[0]) | (a.bytes_[1] ^ b.bytes_[1]) |
            (a.bytes_[2] ^ b.bytes_[2]) | (a.bytes_[3] ^ b.bytes_[3]) |
            (a.bytes_[4] ^ b.bytes_[4]) | (a.bytes_[5] ^ b.bytes_[5])) == 0;
  }
  friend constexpr auto operator<=>(const MacAddress&,
                                    const MacAddress&) = default;

 private:
  std::array<std::uint8_t, 6> bytes_{};
};

}  // namespace plc::frames
