// A full lab session on the emulated HomePlug AV testbed, §3 style:
//
//   * build a power strip with N station devices and a destination D;
//   * saturate every station with UDP-like traffic to D at CA1;
//   * reset all firmware counters with ampstat (MME 0xA030);
//   * put D's device into sniffer mode with faifa (MME 0xA034);
//   * run the test, then read back per-station acknowledged/collided
//     counters and print the sniffer's view of the first few bursts.
//
// Usage: ./build/examples/testbed_measurement [stations] [seconds]
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "emu/network.hpp"
#include "tools/ampstat.hpp"
#include "tools/faifa.hpp"

int main(int argc, char** argv) {
  using namespace plc;
  const int n = argc > 1 ? std::atoi(argv[1]) : 3;
  const double seconds = argc > 2 ? std::atof(argv[2]) : 20.0;

  emu::Network network(0x7E57BED);
  std::vector<emu::HpavDevice*> stations;
  for (int i = 0; i < n; ++i) stations.push_back(&network.add_device());
  emu::HpavDevice& destination = network.add_device();
  std::printf("power strip: %d stations + destination %s\n", n,
              destination.mac().to_string().c_str());

  // Saturating hosts (an iperf per station, if you like), refilled
  // each time their station stages a burst.
  for (emu::HpavDevice* station : stations) {
    station->saturate(destination.mac());
  }

  // One ampstat shell per station; faifa on the destination.
  std::vector<std::unique_ptr<tools::AmpStat>> ampstats;
  for (emu::HpavDevice* station : stations) {
    ampstats.push_back(std::make_unique<tools::AmpStat>(*station));
  }
  tools::Faifa faifa(destination);

  network.start();
  network.run_for(des::SimTime::from_seconds(2.0));  // Warm-up.
  for (auto& ampstat : ampstats) {
    ampstat->reset(destination.mac(), frames::Priority::kCa1);
  }
  faifa.enable_sniffer();

  std::printf("running the test for %.0f simulated seconds...\n", seconds);
  network.run_for(des::SimTime::from_seconds(seconds));
  faifa.disable_sniffer();

  std::printf("\nper-station ampstat readings (MME 0xA030 confirms):\n");
  std::uint64_t total_acked = 0;
  std::uint64_t total_collided = 0;
  for (std::size_t i = 0; i < ampstats.size(); ++i) {
    const mme::AmpStatConfirm confirm =
        ampstats[i]->query(destination.mac(), frames::Priority::kCa1);
    std::printf("  station %zu (%s): acked %8llu  collided %7llu\n", i + 1,
                stations[i]->mac().to_string().c_str(),
                static_cast<unsigned long long>(confirm.acknowledged),
                static_cast<unsigned long long>(confirm.collided));
    total_acked += confirm.acknowledged;
    total_collided += confirm.collided;
  }
  std::printf("network collision probability sum(Ci)/sum(Ai) = %.4f\n",
              total_acked == 0 ? 0.0
                               : static_cast<double>(total_collided) /
                                     static_cast<double>(total_acked));

  std::printf("\nfirst sniffer captures at D (faifa view):\n");
  const auto& captures = faifa.captures();
  for (std::size_t i = 0; i < captures.size() && i < 8; ++i) {
    std::printf("  %s\n", tools::Faifa::format_capture(captures[i]).c_str());
  }
  const auto bursts = faifa.bursts();
  std::printf("\nsniffer saw %zu bursts; first sources:", bursts.size());
  for (std::size_t i = 0; i < bursts.size() && i < 12; ++i) {
    std::printf(" %d", bursts[i].src_tei);
  }
  std::printf("\n(long single-station runs here are 1901's short-term "
              "unfairness)\n");
  return 0;
}
