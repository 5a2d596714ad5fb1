// The firmware statistics bank of an emulated HomePlug AV device.
//
// Mirrors what the INT6300 exposes through the 0xA030 vendor MME: per
// (peer, priority, direction) counts of acknowledged and collided MPDUs,
// resettable from the host (the paper resets all stations' counters at
// the start of every test, §3.2).
//
// Counting rules (verified by the paper on real hardware):
//   - every transmitted MPDU whose delimiter the destination decodes is
//     *acknowledged* — including collided ones (the destination answers
//     an all-blocks-bad SACK);
//   - collided MPDUs additionally increment the *collided* counter;
// so collision probability = collided / acknowledged.
#pragma once

#include <cstdint>
#include <map>

#include "frames/mac_address.hpp"
#include "frames/mpdu.hpp"
#include "mme/ampstat.hpp"

namespace plc::emu {

/// Counters of one (peer, priority, direction) link.
struct LinkCounters {
  std::uint64_t acknowledged = 0;  ///< MPDUs acked (collided included).
  std::uint64_t collided = 0;      ///< MPDUs that collided.
  std::uint64_t fc_errors = 0;     ///< Undecodable delimiters heard.
};

/// The per-device counter bank.
class FirmwareCounters {
 public:
  /// Records `count` transmitted-and-acknowledged MPDUs (success path).
  void on_tx_acked(const frames::MacAddress& peer, frames::Priority priority,
                   std::uint64_t count);

  /// Records `count` collided MPDUs; per the hardware behaviour these are
  /// also acknowledged (all-blocks-bad SACK).
  void on_tx_collided(const frames::MacAddress& peer,
                      frames::Priority priority, std::uint64_t count);

  /// Receive-side mirror of the above.
  void on_rx_acked(const frames::MacAddress& peer, frames::Priority priority,
                   std::uint64_t count);
  void on_rx_collided(const frames::MacAddress& peer,
                      frames::Priority priority, std::uint64_t count);

  /// Reads the counters of one link (zeros when never touched).
  LinkCounters read(const frames::MacAddress& peer,
                    frames::Priority priority,
                    mme::StatDirection direction) const;

  /// Resets every counter (the ampstat reset action).
  void reset_all();

  /// Sum of acknowledged/collided over all TX links — the Ai and Ci of
  /// the paper's estimator for this station.
  LinkCounters tx_totals() const;

 private:
  /// Keyed by (peer, priority, direction) packed into one integer.
  std::map<std::uint64_t, LinkCounters> counters_;
};

}  // namespace plc::emu
