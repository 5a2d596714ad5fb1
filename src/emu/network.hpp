// The emulated power-line network: one contention domain, N devices on
// it — the software double of the paper's power-strip testbed.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "des/scheduler.hpp"
#include "emu/device.hpp"
#include "medium/domain.hpp"
#include "obs/metrics.hpp"
#include "phy/channel.hpp"
#include "phy/timing.hpp"

namespace plc::emu {

/// Owns the scheduler, the contention domain and the devices.
class Network {
 public:
  /// `timing` defaults to the paper's pinned configuration.
  explicit Network(std::uint64_t seed,
                   phy::TimingConfig timing = phy::TimingConfig::paper_default());

  /// Creates a device; TEIs are assigned densely from 1 and the MAC is
  /// MacAddress::for_station(tei). Must be called before start().
  HpavDevice& add_device(const DeviceConfig& config = DeviceConfig{});

  /// Installs a Gilbert-Elliott channel process on the directed link
  /// src -> dst (§4.1 substitute: time-varying per-link error rates).
  /// Must be called before start(); both devices must exist.
  void add_link_channel(int src_tei, int dst_tei,
                        const phy::GilbertElliottParams& params);

  /// Current PB error rate of the directed link, or `fallback` when no
  /// channel process is installed on it.
  double link_pb_error_rate(int src_tei, int dst_tei,
                            double fallback) const;

  /// The channel process of a link (nullptr when none installed).
  const phy::GilbertElliottChannel* link_channel(int src_tei,
                                                 int dst_tei) const;

  /// Registers the whole network into `registry`: the contention domain
  /// and every device. Call after all devices have been added (typically
  /// right before start()).
  void bind_metrics(obs::Registry& registry);

  /// Starts the contention domain (and any channel processes). Call once
  /// after adding devices.
  void start();

  /// Runs the simulation for `duration` from the current time.
  void run_for(des::SimTime duration);

  des::Scheduler& scheduler() { return scheduler_; }
  medium::ContentionDomain& domain() { return domain_; }
  const medium::ContentionDomain& domain() const { return domain_; }

  HpavDevice* device_by_tei(int tei);
  /// The device with this MAC, or nullptr (broadcast, foreign MACs).
  HpavDevice* device_by_mac(const frames::MacAddress& mac);
  int device_count() const { return static_cast<int>(devices_.size()); }
  HpavDevice& device(int index) { return *devices_.at(static_cast<std::size_t>(index)); }

 private:
  des::Scheduler scheduler_;
  medium::ContentionDomain domain_;
  des::RandomStream root_rng_;
  std::vector<std::unique_ptr<HpavDevice>> devices_;
  std::map<std::pair<int, int>, std::unique_ptr<phy::GilbertElliottChannel>>
      channels_;
  bool started_ = false;
};

}  // namespace plc::emu
