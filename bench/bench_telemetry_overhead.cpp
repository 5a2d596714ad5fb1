// Telemetry-plane overhead budget: what does attaching an
// obs::TelemetryHub (and scraping it) cost a parallel sweep? The PR-2
// observability invariant extends to the live plane: disabled ~ 0%
// (a null-pointer branch per task epilogue), enabled < 5% (one
// mutex-guarded hub update per completed task plus the sampler).
//
// Like BM_ProfilerOverheadPaired, two separately-timed runs cannot
// prove a single-digit budget — frequency scaling between runs easily
// exceeds the effect — so every round interleaves three batches of the
// SAME sweep (bare / disabled / enabled) in rotating order and keeps
// the per-side minimum wall time. Interference only ever adds time, so
// min-vs-min is the estimator that survives a noisy machine.
//
//   baseline  production observability (registry bound, hub absent)
//   disabled  byte-for-byte the same configuration, separately
//             constructed: with the hub detached the telemetry plane
//             costs exactly one null-pointer branch per task epilogue,
//             so this side IS the disabled plane — the measured delta
//             vs baseline is the estimator's noise floor, which is the
//             strongest "disabled ~ 0%" statement a same-build bench
//             can make
//   enabled   hub attached and scraped once per batch via the same
//             renderer the HTTP endpoint serves
//   observatory  registry plus a per-rep obs::Observatory capturing
//             every station's backoff state at every slot epilogue —
//             the heaviest opt-in plane, same < 5% budget
//
// Scalars:
//   telemetry.disabled_overhead_pct     disabled vs baseline (~0 budget)
//   telemetry.enabled_overhead_pct      enabled vs baseline  (< 5 budget)
//   telemetry.observatory_overhead_pct  observatory vs baseline (< 8)
//   telemetry.tasks_per_second          enabled-side task throughput
#include <cstdio>
#include <string>
#include <vector>

#include "bench_main.hpp"
#include "obs/metrics.hpp"
#include "obs/observatory.hpp"
#include "obs/report.hpp"
#include "obs/telemetry.hpp"
#include "sim/parallel_runner.hpp"
#include "sim/runner.hpp"

namespace {

using namespace plc;

/// One batch = one full parallel sweep. Task sizes follow the real
/// sweeps (milliseconds, not microseconds): the hub epilogue is a fixed
/// per-task price, so the budget is only meaningful at production task
/// granularity.
std::vector<sim::RunSpec> make_sweep() {
  std::vector<sim::RunSpec> specs;
  for (const int stations : {2, 5, 10, 15}) {
    sim::RunSpec spec;
    spec.stations = stations;
    spec.duration = des::SimTime::from_seconds(20.0);
    spec.repetitions = 6;
    spec.seed = 0x1901;
    // Pin the slot kernel: the budgets below hold the oracle's hooks
    // against the bare oracle. The event kernel's observed cost is
    // stated in DESIGN §11; BM_KernelRacePaired owns the kernel race.
    spec.kernel = sim::Kernel::kSlot;
    specs.push_back(spec);
  }
  return specs;
}

std::int64_t total_tasks(const std::vector<sim::RunSpec>& specs) {
  std::int64_t tasks = 0;
  for (const sim::RunSpec& spec : specs) tasks += spec.repetitions;
  return tasks;
}

}  // namespace

int main() {
  bench::Harness harness("telemetry_overhead");

  // A shared CI box shows a ±5% single-sample noise floor, so the min
  // estimator needs a deep sample pool before the gate is meaningful.
  const std::vector<sim::RunSpec> specs = make_sweep();
  const std::int64_t tasks = total_tasks(specs);
  sim::ParallelRunner runner;

  obs::Stopwatch wall;
  bool batch_had_stations = false;
  const auto timed_batch = [&](const sim::RunObservability& obs) {
    obs::Stopwatch batch;
    const std::vector<sim::RunSummary> summaries =
        runner.run_points(specs, obs);
    harness.add_simulated_seconds(summaries.front().simulated.seconds());
    batch_had_stations = summaries.front().stations.has_value();
    return batch.elapsed_seconds();
  };
  const auto keep_min = [](double& slot, double sample) {
    if (slot == 0.0 || sample < slot) slot = sample;
  };

  double baseline_min = 0.0;
  double disabled_min = 0.0;
  double enabled_min = 0.0;
  double observatory_min = 0.0;
  constexpr int kRounds = 20;  // 2 warmup + 18 measured per side.
  for (int round = 0; round < kRounds; ++round) {
    // Rotate the order so a frequency ramp inside a round cannot
    // systematically favor one side.
    for (int step = 0; step < 4; ++step) {
      const int side = (round + step) % 4;
      if (side == 2) {
        obs::Registry registry;
        obs::TelemetryHub hub;
        sim::RunObservability obs;
        obs.registry = &registry;
        obs.telemetry = &hub;
        const double seconds = timed_batch(obs);
        // One scrape per batch: the render path the HTTP endpoint pays.
        const std::string exposition = hub.openmetrics();
        if (exposition.empty()) return 1;  // Renderer always emits # EOF.
        if (round >= 2) keep_min(enabled_min, seconds);
      } else if (side == 3) {
        obs::Registry registry;
        obs::ObservatoryOptions options;
        sim::RunObservability obs;
        obs.registry = &registry;
        obs.observatory = &options;
        const double seconds = timed_batch(obs);
        if (!batch_had_stations) return 1;  // Capture must have run.
        if (round >= 2) keep_min(observatory_min, seconds);
      } else {
        obs::Registry registry;
        sim::RunObservability obs;
        obs.registry = &registry;
        const double seconds = timed_batch(obs);
        if (round >= 2) {
          keep_min(side == 0 ? baseline_min : disabled_min, seconds);
        }
      }
    }
  }

  const double disabled_pct =
      baseline_min > 0.0
          ? 100.0 * (disabled_min - baseline_min) / baseline_min
          : 0.0;
  const double enabled_pct =
      baseline_min > 0.0
          ? 100.0 * (enabled_min - baseline_min) / baseline_min
          : 0.0;
  const double observatory_pct =
      baseline_min > 0.0
          ? 100.0 * (observatory_min - baseline_min) / baseline_min
          : 0.0;
  harness.scalar("telemetry.disabled_overhead_pct") = disabled_pct;
  harness.scalar("telemetry.enabled_overhead_pct") = enabled_pct;
  harness.scalar("telemetry.observatory_overhead_pct") = observatory_pct;
  harness.scalar("telemetry.tasks_per_second") =
      enabled_min > 0.0 ? static_cast<double>(tasks) / enabled_min : 0.0;

  std::printf("telemetry overhead (min batch over %d measured rounds, "
              "%lld tasks/batch, %d workers)\n",
              kRounds - 2, static_cast<long long>(tasks), runner.jobs());
  std::printf("  baseline     %8.2f ms\n", baseline_min * 1e3);
  std::printf("  disabled     %8.2f ms  (%+.2f%% vs baseline)\n",
              disabled_min * 1e3, disabled_pct);
  std::printf("  enabled      %8.2f ms  (%+.2f%% vs baseline)\n",
              enabled_min * 1e3, enabled_pct);
  std::printf("  observatory  %8.2f ms  (%+.2f%% vs baseline)\n",
              observatory_min * 1e3, observatory_pct);
  return harness.finish();
}
