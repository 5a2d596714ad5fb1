// Selective-acknowledgment (SACK) delimiters.
//
// 1901 acknowledges per physical block: the receiver answers every SoF
// whose delimiter it decoded, even when every payload PB is garbled (a
// collision) — in that case the SACK carries an all-blocks-bad indication.
// This is precisely why the paper's firmware "acknowledged frames" counter
// keeps growing with N and why collision probability is estimated as
// sum(Ci)/sum(Ai) (§3.2).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace plc::frames {

/// Receiver's verdict on one MPDU.
enum class SackResult : std::uint8_t {
  /// Every PB decoded.
  kAllGood = 0,
  /// Some PBs decoded, some failed; see the bitmap.
  kPartial = 1,
  /// Delimiter decoded but every PB failed — the collision indication.
  kAllBad = 2,
};

/// A SACK delimiter: verdict plus a per-PB bitmap.
struct SackDelimiter {
  std::uint8_t src_tei = 0;  ///< Station sending the SACK (the receiver).
  std::uint8_t dst_tei = 0;  ///< Original transmitter.
  SackResult result = SackResult::kAllGood;
  /// pb_ok[i] == true when PB i of the acknowledged MPDU was received.
  std::vector<bool> pb_ok;

  /// Number of PBs acknowledged as received.
  int good_count() const;
  /// Number of PBs flagged for retransmission.
  int bad_count() const { return static_cast<int>(pb_ok.size()) - good_count(); }

  /// Sets `result` from the number of PBs the bitmap flags bad (a
  /// receiver that fills `pb_ok` in place counts them as it goes).
  void set_result(int bad_blocks);

  /// Builds the verdict/bitmap from receive outcomes.
  static SackDelimiter from_outcomes(std::uint8_t src_tei,
                                     std::uint8_t dst_tei,
                                     const std::vector<bool>& pb_ok);

  /// Byte codec: 4-byte header, ceil(n/8) bitmap bytes, CRC-8.
  std::vector<std::uint8_t> encode() const;
  static SackDelimiter decode(std::span<const std::uint8_t> bytes);
};

}  // namespace plc::frames
