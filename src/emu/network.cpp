#include "emu/network.hpp"

#include <string>

#include "obs/log.hpp"
#include "obs/profiler.hpp"
#include "util/error.hpp"

namespace plc::emu {

Network::Network(std::uint64_t seed, phy::TimingConfig timing)
    : domain_(scheduler_, timing), root_rng_(seed) {}

HpavDevice& Network::add_device(const DeviceConfig& config) {
  util::require(!started_, "Network: cannot add devices after start()");
  const int tei = static_cast<int>(devices_.size()) + 1;
  auto device = std::make_unique<HpavDevice>(
      *this, tei, frames::MacAddress::for_station(tei), config,
      root_rng_.derive_seed("device-" + std::to_string(tei)));
  HpavDevice& ref = *device;
  devices_.push_back(std::move(device));
  const int participant_id = domain_.add_participant(ref);
  // Participant ids and device indices coincide by construction; the
  // sniffer tap is registered as a domain observer as well.
  util::require(participant_id + 1 == tei,
                "Network: participant/TEI numbering out of sync");
  domain_.add_observer(ref);
  return ref;
}

void Network::add_link_channel(int src_tei, int dst_tei,
                               const phy::GilbertElliottParams& params) {
  util::require(!started_,
                "Network: cannot add channels after start()");
  util::check_arg(device_by_tei(src_tei) != nullptr, "src_tei",
                  "no such device");
  util::check_arg(device_by_tei(dst_tei) != nullptr, "dst_tei",
                  "no such device");
  channels_[{src_tei, dst_tei}] =
      std::make_unique<phy::GilbertElliottChannel>(
          params, des::RandomStream(root_rng_.derive_seed(
                      "channel-" + std::to_string(src_tei) + "-" +
                      std::to_string(dst_tei))));
}

double Network::link_pb_error_rate(int src_tei, int dst_tei,
                                   double fallback) const {
  const auto it = channels_.find({src_tei, dst_tei});
  return it == channels_.end() ? fallback : it->second->pb_error_rate();
}

const phy::GilbertElliottChannel* Network::link_channel(
    int src_tei, int dst_tei) const {
  const auto it = channels_.find({src_tei, dst_tei});
  return it == channels_.end() ? nullptr : it->second.get();
}

void Network::bind_metrics(obs::Registry& registry) {
  domain_.bind_metrics(registry);
  for (const auto& device : devices_) {
    device->bind_metrics(registry);
  }
}

void Network::start() {
  util::require(!started_, "Network::start: already started");
  started_ = true;
  for (auto& [key, channel] : channels_) {
    channel->start(scheduler_);
  }
  domain_.start();
  PLC_LOG_DEBUG("emu", "network started")
      .num("devices", device_count())
      .num("link_channels", static_cast<double>(channels_.size()));
}

void Network::run_for(des::SimTime duration) {
  PROF_SCOPE("emu.run_for");
  util::require(started_, "Network::run_for: call start() first");
  scheduler_.run_until(scheduler_.now() + duration);
}

HpavDevice* Network::device_by_tei(int tei) {
  if (tei < 1 || tei > static_cast<int>(devices_.size())) return nullptr;
  return devices_[static_cast<std::size_t>(tei - 1)].get();
}

HpavDevice* Network::device_by_mac(const frames::MacAddress& mac) {
  // Devices carry MacAddress::for_station(tei): the last byte is the TEI.
  HpavDevice* device = device_by_tei(mac.bytes()[5]);
  return device != nullptr && device->mac() == mac ? device : nullptr;
}

}  // namespace plc::emu
