// E14 (extended, §4.1): tone-map maintenance under a time-varying
// channel. The paper lists the modulation-update MMEs among the
// vendor-secret mechanisms whose "arrival rate depends on the channel
// conditions"; here the modelled version makes that dependence
// measurable: a Gilbert-Elliott channel with varying bad-state frequency
// drives the receiver's tone-map updates, whose rate — and cost in
// goodput — is reported, with adaptation on and off.
#include <iostream>

#include "bench_main.hpp"
#include "emu/network.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace {

using namespace plc;

struct RunResult {
  double updates_per_second = 0.0;
  double goodput_mbps = 0.0;
  double fraction_bad = 0.0;
};

RunResult run_case(double mean_good_s, bool adaptation_enabled,
                   double seconds) {
  emu::Network network(0xE14);
  emu::DeviceConfig config;
  config.adaptation.enabled = adaptation_enabled;
  emu::HpavDevice& sender = network.add_device(config);
  emu::HpavDevice& receiver = network.add_device(config);

  phy::GilbertElliottParams params;
  params.mean_good = des::SimTime::from_seconds(mean_good_s);
  params.mean_bad = des::SimTime::from_seconds(0.2);
  params.good_pb_error = 0.001;
  params.bad_pb_error = 0.40;
  network.add_link_channel(sender.tei(), receiver.tei(), params);

  std::int64_t bytes = 0;
  receiver.set_host_receive([&](const frames::EthernetFrame& frame) {
    if (frame.ether_type == frames::kEtherTypeIpv4) {
      bytes += static_cast<std::int64_t>(frame.payload.size());
    }
  });

  network.start();
  sender.saturate(receiver.mac());
  network.run_for(des::SimTime::from_seconds(seconds));

  RunResult result;
  result.updates_per_second =
      static_cast<double>(receiver.tonemap_updates_sent()) / seconds;
  result.goodput_mbps =
      static_cast<double>(bytes) * 8.0 / seconds / 1e6;
  const phy::GilbertElliottChannel* channel =
      network.link_channel(sender.tei(), receiver.tei());
  result.fraction_bad =
      channel->fraction_bad(network.scheduler().now());
  return result;
}

}  // namespace

int main() {
  plc::bench::Harness harness("ext_tonemap_adaptation");
  std::cout << "=== E14: tone-map maintenance vs channel volatility "
               "===\n";
  std::cout << "(1 saturated link; Gilbert-Elliott channel, bad spells "
               "of 0.2 s at 40% PB error; 60 s per point)\n\n";

  util::TablePrinter table(
      {"mean good period (s)", "frac. time bad", "MME updates/s",
       "goodput, adapt ON (Mb/s)", "goodput, adapt OFF (Mb/s)"});
  for (const double mean_good_s : {5.0, 1.0, 0.5, 0.2}) {
    const RunResult on = run_case(mean_good_s, true, 60.0);
    const RunResult off = run_case(mean_good_s, false, 60.0);
    table.add_row({util::format_fixed(mean_good_s, 1),
                   util::format_fixed(on.fraction_bad, 3),
                   util::format_fixed(on.updates_per_second, 2),
                   util::format_fixed(on.goodput_mbps, 2),
                   util::format_fixed(off.goodput_mbps, 2)});
    const std::string prefix =
        "good" + std::to_string(static_cast<int>(mean_good_s * 10)) + ".";
    harness.scalar(prefix + "updates_per_second") = on.updates_per_second;
    harness.scalar(prefix + "goodput_on_mbps") = on.goodput_mbps;
    harness.scalar(prefix + "goodput_off_mbps") = off.goodput_mbps;
    harness.add_simulated_seconds(2 * 60.0);
  }
  table.print(std::cout);

  std::cout
      << "\nShape checks: the MME update rate rises as the channel "
         "degrades more often (the paper's \"arrival rate depends on the "
         "channel conditions\"). Adaptation wins clearly on mostly-good "
         "channels (bad spells ride on robust profiles instead of mass "
         "retransmission) and *loses* on rapidly-switching channels, "
         "where the EWMA lags the channel and robust profiles linger "
         "into good periods — the classic rate-adaptation hysteresis "
         "trade-off, and a concrete reason vendors keep this algorithm "
         "proprietary and tuned (§4.1).\n";
  return harness.finish();
}
