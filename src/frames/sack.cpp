#include "frames/sack.hpp"

#include <algorithm>

#include "frames/mpdu.hpp"
#include "util/error.hpp"

namespace plc::frames {

int SackDelimiter::good_count() const {
  return static_cast<int>(std::count(pb_ok.begin(), pb_ok.end(), true));
}

void SackDelimiter::set_result(int bad_blocks) {
  if (bad_blocks == 0) {
    result = SackResult::kAllGood;
  } else if (bad_blocks == static_cast<int>(pb_ok.size())) {
    result = SackResult::kAllBad;
  } else {
    result = SackResult::kPartial;
  }
}

SackDelimiter SackDelimiter::from_outcomes(std::uint8_t src_tei,
                                           std::uint8_t dst_tei,
                                           const std::vector<bool>& pb_ok) {
  SackDelimiter sack;
  sack.src_tei = src_tei;
  sack.dst_tei = dst_tei;
  sack.pb_ok = pb_ok;
  sack.set_result(sack.bad_count());
  return sack;
}

std::vector<std::uint8_t> SackDelimiter::encode() const {
  util::require(pb_ok.size() <= 0xFF,
                "SackDelimiter::encode: too many PBs for one SACK");
  const std::size_t bitmap_bytes = (pb_ok.size() + 7) / 8;
  std::vector<std::uint8_t> bytes(4 + bitmap_bytes + 1, 0);
  bytes[0] = src_tei;
  bytes[1] = dst_tei;
  bytes[2] = static_cast<std::uint8_t>(result);
  bytes[3] = static_cast<std::uint8_t>(pb_ok.size());
  for (std::size_t i = 0; i < pb_ok.size(); ++i) {
    if (pb_ok[i]) {
      bytes[4 + i / 8] |= static_cast<std::uint8_t>(1U << (i % 8));
    }
  }
  bytes.back() = crc8(std::span(bytes).first(bytes.size() - 1));
  return bytes;
}

SackDelimiter SackDelimiter::decode(std::span<const std::uint8_t> bytes) {
  util::require(bytes.size() >= 5, "SackDelimiter::decode: too short");
  util::require(bytes.back() == crc8(bytes.first(bytes.size() - 1)),
                "SackDelimiter::decode: CRC mismatch");
  SackDelimiter sack;
  sack.src_tei = bytes[0];
  sack.dst_tei = bytes[1];
  sack.result = static_cast<SackResult>(bytes[2]);
  const std::size_t pb_count = bytes[3];
  const std::size_t bitmap_bytes = (pb_count + 7) / 8;
  util::require(bytes.size() == 4 + bitmap_bytes + 1,
                "SackDelimiter::decode: length/bitmap mismatch");
  sack.pb_ok.resize(pb_count);
  for (std::size_t i = 0; i < pb_count; ++i) {
    sack.pb_ok[i] = (bytes[4 + i / 8] & (1U << (i % 8))) != 0;
  }
  return sack;
}

}  // namespace plc::frames
