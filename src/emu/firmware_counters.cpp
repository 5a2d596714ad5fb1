#include "emu/firmware_counters.hpp"

namespace plc::emu {

namespace {

/// A link's key: the peer MAC's six bytes big-endian, then the priority
/// byte, then the direction byte, so integer order is the order of
/// (peer, priority, direction).
std::uint64_t key(const frames::MacAddress& peer, frames::Priority priority,
                  mme::StatDirection direction) {
  std::uint64_t packed = 0;
  for (const std::uint8_t byte : peer.bytes()) packed = (packed << 8) | byte;
  packed = (packed << 8) | static_cast<std::uint8_t>(priority);
  return (packed << 8) | static_cast<std::uint8_t>(direction);
}

}  // namespace

void FirmwareCounters::on_tx_acked(const frames::MacAddress& peer,
                                   frames::Priority priority,
                                   std::uint64_t count) {
  counters_[key(peer, priority, mme::StatDirection::kTx)].acknowledged +=
      count;
}

void FirmwareCounters::on_tx_collided(const frames::MacAddress& peer,
                                      frames::Priority priority,
                                      std::uint64_t count) {
  LinkCounters& link =
      counters_[key(peer, priority, mme::StatDirection::kTx)];
  // A collided MPDU is still acknowledged (all-blocks-bad SACK).
  link.acknowledged += count;
  link.collided += count;
}

void FirmwareCounters::on_rx_acked(const frames::MacAddress& peer,
                                   frames::Priority priority,
                                   std::uint64_t count) {
  counters_[key(peer, priority, mme::StatDirection::kRx)].acknowledged +=
      count;
}

void FirmwareCounters::on_rx_collided(const frames::MacAddress& peer,
                                      frames::Priority priority,
                                      std::uint64_t count) {
  LinkCounters& link =
      counters_[key(peer, priority, mme::StatDirection::kRx)];
  link.acknowledged += count;
  link.collided += count;
}

LinkCounters FirmwareCounters::read(const frames::MacAddress& peer,
                                    frames::Priority priority,
                                    mme::StatDirection direction) const {
  const auto it = counters_.find(key(peer, priority, direction));
  return it == counters_.end() ? LinkCounters{} : it->second;
}

void FirmwareCounters::reset_all() { counters_.clear(); }

LinkCounters FirmwareCounters::tx_totals() const {
  LinkCounters totals;
  for (const auto& [link_key, link] : counters_) {
    if ((link_key & 0xFF) !=
        static_cast<std::uint8_t>(mme::StatDirection::kTx)) {
      continue;
    }
    totals.acknowledged += link.acknowledged;
    totals.collided += link.collided;
    totals.fc_errors += link.fc_errors;
  }
  return totals;
}

}  // namespace plc::emu
