// E16 (extended): frame-length efficiency. The fixed CSMA/CA overheads
// (priority resolution, preamble, RIFS, SACK, CIFS, backoff slots, and
// the post-collision EIFS) are amortized over the frame payload, so
// normalized throughput rises with the frame duration — the reason 1901
// aggregates Ethernet frames into long MPDUs and bursts (§3.1) in the
// first place. Simulation and model across frame durations and N.
// One sim+model scenario per frame duration: the paper-default
// overheads, so only the frame length varies.
#include <iostream>
#include <string>
#include <vector>

#include "bench_main.hpp"
#include "mac/config.hpp"
#include "scenario/run.hpp"
#include "sim/parallel_runner.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

int main() {
  using namespace plc;
  bench::Harness harness("ext_frame_length");
  sim::ParallelRunner runner(util::jobs_from_env());
  const auto cache = bench::open_store_from_env();  // $PLC_CACHE_DIR
  scenario::RunOptions options;
  options.runner = &runner;
  options.store = cache.get();

  std::cout << "=== E16: normalized throughput vs frame duration ===\n";
  std::cout << "(overheads fixed at the paper's Ts/Tc residuals: success "
               "+492.64 us, collision +870.64 us)\n\n";

  util::TablePrinter table({"frame (us)", "N=2 sim", "N=2 model",
                            "N=10 sim", "N=10 model"});
  for (const int frame_us : {250, 500, 1025, 2050, 4100}) {
    scenario::Spec spec;
    spec.name = "e16-frame" + std::to_string(frame_us);
    spec.macs = {scenario::MacVariant{"CA1", mac::BackoffConfig::ca0_ca1()}};
    spec.stations = {2, 10};
    spec.frame_length = des::SimTime::from_us(frame_us);
    spec.duration = des::SimTime::from_seconds(40.0);
    spec.repetitions = 1;
    spec.seed = 0xE16;
    const scenario::RunOutcome outcome = scenario::run_scenario(spec, options);
    harness.add_simulated_seconds(outcome.report.simulated_seconds);

    std::vector<std::string> row = {std::to_string(frame_us)};
    for (const int n : spec.stations) {
      const std::string point = "CA1.n" + std::to_string(n) + ".";
      const std::string prefix = "frame" + std::to_string(frame_us) + ".n" +
                                 std::to_string(n) + ".";
      for (const char* metric : {"sim_throughput", "model_throughput"}) {
        const double value = outcome.report.scalars.at(point + metric);
        harness.scalar(prefix + metric) = value;
        row.push_back(util::format_fixed(value, 4));
      }
    }
    table.add_row(row);
  }
  table.print(std::cout);
  if (cache) bench::record_cache(harness, *cache);

  std::cout << "\nShape checks: throughput rises steeply with frame "
               "duration and saturates (overhead amortization); the gain "
               "from aggregation is largest at small frames, which is "
               "why the standard aggregates 512-byte PBs into ~2 ms "
               "MPDUs and 2-4 MPDU bursts.\n";
  return harness.finish();
}
