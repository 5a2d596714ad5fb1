// Kernel micro-benchmarks (google-benchmark): how fast the framework's
// engines run. Useful for sizing long parameter sweeps — the slot
// simulator processes millions of medium events per second, the full
// event-driven testbed runs hundreds of simulated seconds per wall
// second, and the analytical solvers are microseconds per point.
//
// Besides the console table, the binary writes every per-iteration result
// into BENCH_kernel_microbench.json (schema plc-run-report/1) so repeated
// runs accumulate a perf trajectory; the BM_SlotSimulatorEvents* family
// measures the observability overhead (no instrumentation vs null
// observer vs bound metrics vs tracing) on the hottest loop, and
// BM_ProfilerOverheadPaired turns the phase-profiler cost into the
// derived profiler.*_overhead_pct scalars — the overhead-budget proof:
// disabled ~0%, enabled < 5%.
#include <chrono>
#include <cstdint>

#include <benchmark/benchmark.h>

#include "analysis/exact_chain.hpp"
#include "analysis/model_1901.hpp"
#include "analysis/optimizer.hpp"
#include "bench_main.hpp"
#include "des/scheduler.hpp"
#include "mac/config.hpp"
#include "mme/ampstat.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "phy/timing.hpp"
#include "sim/event_kernel.hpp"
#include "sim/runner.hpp"
#include "sim/slot_simulator.hpp"
#include "tools/testbed.hpp"

namespace {

using namespace plc;

constexpr std::int64_t kEventsPerIteration = 10'000;

sim::SlotSimulator make_bench_simulator(int n) {
  return sim::SlotSimulator(
      sim::make_1901_entities(n, mac::BackoffConfig::ca0_ca1(), 42));
}

void run_slot_sim_loop(benchmark::State& state,
                       sim::SlotSimulator& simulator) {
  for (auto _ : state) {
    simulator.run_events(kEventsPerIteration);
  }
  state.SetItemsProcessed(state.iterations() * kEventsPerIteration);
}

void BM_SlotSimulatorEvents(benchmark::State& state) {
  sim::SlotSimulator simulator =
      make_bench_simulator(static_cast<int>(state.range(0)));
  run_slot_sim_loop(state, simulator);
}
BENCHMARK(BM_SlotSimulatorEvents)->Arg(2)->Arg(10)->Arg(50);

// Observer overhead: a bound std::function that does nothing — the cost
// of the indirect call per medium event (the pre-obs observer path).
void BM_SlotSimulatorEventsNullObserver(benchmark::State& state) {
  sim::SlotSimulator simulator =
      make_bench_simulator(static_cast<int>(state.range(0)));
  simulator.set_observer([](const sim::SlotEvent&) {});
  run_slot_sim_loop(state, simulator);
}
BENCHMARK(BM_SlotSimulatorEventsNullObserver)->Arg(10);

// Metrics overhead: registry bound, so every event does the pre-resolved
// counter adds. The acceptance budget is <= 10% vs BM_SlotSimulatorEvents.
void BM_SlotSimulatorEventsMetrics(benchmark::State& state) {
  obs::Registry registry;
  sim::SlotSimulator simulator =
      make_bench_simulator(static_cast<int>(state.range(0)));
  simulator.bind_metrics(registry);
  run_slot_sim_loop(state, simulator);
}
BENCHMARK(BM_SlotSimulatorEventsMetrics)->Arg(10);

// Tracing overhead: every event records a span into the bounded ring.
void BM_SlotSimulatorEventsTraced(benchmark::State& state) {
  obs::TraceSink trace;
  sim::SlotSimulator simulator =
      make_bench_simulator(static_cast<int>(state.range(0)));
  simulator.set_trace(&trace);
  run_slot_sim_loop(state, simulator);
}
BENCHMARK(BM_SlotSimulatorEventsTraced)->Arg(10);

// Phase-profiler overhead on the hottest loop. The PROF_SCOPE sits at
// run_events granularity (one scope per kEventsPerIteration medium
// events), so "disabled" pays a relaxed atomic load per scope and
// "enabled" pays two steady_clock reads plus a child lookup per scope.
// Two separately-timed benchmarks cannot prove either budget: frequency
// scaling between runs easily exceeds the effect (±25% observed), so this
// benchmark interleaves a disabled and an enabled batch inside ONE run
// and accumulates each side on its own timer — every noise source hits
// both alternatives alike. main() derives the
// profiler.enabled_overhead_pct scalar from the two accumulators, and
// profiler.disabled_overhead_pct by amortizing the measured per-scope
// disabled price (BM_ProfilerScopeDisabled) over one batch.
std::int64_t g_paired_disabled_min_ns = 0;
std::int64_t g_paired_enabled_min_ns = 0;

void BM_ProfilerOverheadPaired(benchmark::State& state) {
  sim::SlotSimulator disabled_sim = make_bench_simulator(10);
  sim::SlotSimulator enabled_sim = make_bench_simulator(10);
  std::int64_t disabled_min_ns = 0;
  std::int64_t enabled_min_ns = 0;
  std::int64_t batches = 0;
  using clock = std::chrono::steady_clock;
  const auto timed_batch = [](sim::SlotSimulator& simulator,
                              bool enabled) {
    obs::Profiler::set_enabled(enabled);
    const auto start = clock::now();
    simulator.run_events(kEventsPerIteration);
    const auto stop = clock::now();
    obs::Profiler::set_enabled(false);
    return std::chrono::duration_cast<std::chrono::nanoseconds>(stop -
                                                                start)
        .count();
  };
  const auto keep_min = [](std::int64_t& slot, std::int64_t sample) {
    if (slot == 0 || sample < slot) slot = sample;
  };
  for (auto _ : state) {
    // Swap which side goes first each batch: a frequency ramp inside the
    // pair would otherwise systematically favor the second slot. Keep the
    // per-side MINIMUM batch time — interference (preemption, frequency
    // dips) only ever adds time, so comparing best case against best case
    // is the estimator that survives a noisy machine.
    if (batches % 2 == 0) {
      keep_min(disabled_min_ns, timed_batch(disabled_sim, false));
      keep_min(enabled_min_ns, timed_batch(enabled_sim, true));
    } else {
      keep_min(enabled_min_ns, timed_batch(enabled_sim, true));
      keep_min(disabled_min_ns, timed_batch(disabled_sim, false));
    }
    ++batches;
  }
  state.SetItemsProcessed(state.iterations() * 2 * kEventsPerIteration);
  // The final timed run overwrites the warmup runs' results.
  g_paired_disabled_min_ns = disabled_min_ns;
  g_paired_enabled_min_ns = enabled_min_ns;
}
BENCHMARK(BM_ProfilerOverheadPaired);

// Raw cost of one enabled PROF_SCOPE (enter + exit, two clock reads and
// the parent-frame bookkeeping) — the unit price of adding a phase.
void BM_ProfilerScopeEnabled(benchmark::State& state) {
  obs::Profiler::set_enabled(true);
  for (auto _ : state) {
    PROF_SCOPE("bench.scope");
    benchmark::DoNotOptimize(state.iterations());
  }
  obs::Profiler::set_enabled(false);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProfilerScopeEnabled);

// And the disabled price: a relaxed atomic load and a branch.
void BM_ProfilerScopeDisabled(benchmark::State& state) {
  obs::Profiler::set_enabled(false);
  for (auto _ : state) {
    PROF_SCOPE("bench.scope");
    benchmark::DoNotOptimize(state.iterations());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProfilerScopeDisabled);

// --- Slot vs event kernel race -----------------------------------------
//
// Both kernels simulate identical physics, so "how many slot-equivalents
// of simulated time per wall second" is the honest throughput unit: the
// batch covers a fixed simulated duration, and slots_per_sec =
// (duration / slot_length) / wall_seconds. The workload is the paper's
// boosting regime — large CWs at N=10, where the medium idles for tens
// of slots between attempts. That is exactly where sweeps spend their
// time (long CW tails dominate run cost) and where the event kernel's
// gap batching pays: the slot path touches every idle slot, the event
// kernel jumps the whole gap in one O(N) step. The measurement reuses
// the paired-minimum idiom from BM_ProfilerOverheadPaired so frequency
// scaling hits both kernels alike; main() derives slot.slots_per_sec,
// event.slots_per_sec and event.speedup_vs_slot, which
// scripts/bench_gate.sh holds to an absolute >= 10x budget.
sim::RunSpec kernel_race_spec() {
  mac::BackoffConfig boosted;
  boosted.name = "boosted-large-cw";
  boosted.cw = {256, 512, 1024, 2048};
  boosted.dc = {0, 1, 3, 15};
  sim::RunSpec spec;
  spec.mac = boosted;
  spec.stations = 10;
  return spec;
}

const des::SimTime kKernelRaceBatch = des::SimTime::from_seconds(2.0);
std::int64_t g_kernel_race_slot_min_ns = 0;
std::int64_t g_kernel_race_event_min_ns = 0;

void BM_KernelRacePaired(benchmark::State& state) {
  const sim::RunSpec spec = kernel_race_spec();
  sim::SlotSimulator slot_kernel = sim::make_simulator(spec, 0);
  sim::EventKernel event_kernel = sim::make_event_kernel(spec, 0);
  std::int64_t slot_min_ns = 0;
  std::int64_t event_min_ns = 0;
  std::int64_t batches = 0;
  using clock = std::chrono::steady_clock;
  const auto timed_batch = [](auto& kernel) {
    const auto start = clock::now();
    kernel.run(kKernelRaceBatch);
    const auto stop = clock::now();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(stop -
                                                                start)
        .count();
  };
  const auto keep_min = [](std::int64_t& slot, std::int64_t sample) {
    if (slot == 0 || sample < slot) slot = sample;
  };
  for (auto _ : state) {
    if (batches % 2 == 0) {
      keep_min(slot_min_ns, timed_batch(slot_kernel));
      keep_min(event_min_ns, timed_batch(event_kernel));
    } else {
      keep_min(event_min_ns, timed_batch(event_kernel));
      keep_min(slot_min_ns, timed_batch(slot_kernel));
    }
    ++batches;
  }
  const double batch_slots =
      static_cast<double>(kKernelRaceBatch.ns()) /
      static_cast<double>(spec.timing.slot.ns());
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * 2 * batch_slots));
  g_kernel_race_slot_min_ns = slot_min_ns;
  g_kernel_race_event_min_ns = event_min_ns;
}
BENCHMARK(BM_KernelRacePaired);

void BM_SchedulerChurn(benchmark::State& state) {
  for (auto _ : state) {
    des::Scheduler scheduler;
    for (int i = 0; i < 1'000; ++i) {
      scheduler.schedule(des::SimTime::from_ns(i * 100), [] {});
    }
    scheduler.run_until(des::SimTime::from_us(1'000.0));
    benchmark::DoNotOptimize(scheduler.events_dispatched());
  }
  state.SetItemsProcessed(state.iterations() * 1'000);
}
BENCHMARK(BM_SchedulerChurn);

void BM_Model1901Solve(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        analysis::solve_1901(n, mac::BackoffConfig::ca0_ca1()).gamma);
  }
}
BENCHMARK(BM_Model1901Solve)->Arg(2)->Arg(10)->Arg(50);

void BM_BestUniformWindow(benchmark::State& state) {
  // boosted-cw's parse-time search: N = 5 under the paper's timing and
  // frame, one solve per scanned window.
  const phy::TimingConfig timing = phy::TimingConfig::paper_default();
  const des::SimTime frame = des::SimTime::from_ns(2'050'000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        analysis::best_uniform_window(5, timing, frame).throughput);
  }
}
BENCHMARK(BM_BestUniformWindow);

void BM_ExactPairSolveTiny(benchmark::State& state) {
  mac::BackoffConfig tiny;
  tiny.cw = {4, 8};
  tiny.dc = {0, 1};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        analysis::solve_exact_pair(tiny).collision_probability);
  }
}
BENCHMARK(BM_ExactPairSolveTiny);

void BM_ExactPairSolveCa1(benchmark::State& state) {
  // The figure2 exact leg: run_scenario's iteration cap and tolerance.
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        analysis::solve_exact_pair(mac::BackoffConfig::ca0_ca1(), 3000, 1e-10)
            .collision_probability);
  }
}
BENCHMARK(BM_ExactPairSolveCa1)->Unit(benchmark::kMillisecond);

void BM_AmpStatCodecRoundTrip(benchmark::State& state) {
  mme::AmpStatConfirm confirm;
  confirm.acknowledged = 162'220;
  confirm.collided = 12'012;
  const frames::MacAddress device = frames::MacAddress::for_station(1);
  const frames::MacAddress host =
      frames::MacAddress::parse("02:19:01:ff:ff:01");
  for (auto _ : state) {
    const frames::EthernetFrame frame =
        confirm.to_mme(device, host).to_ethernet();
    const auto parsed =
        mme::AmpStatConfirm::from_mme(mme::Mme::from_ethernet(frame));
    benchmark::DoNotOptimize(parsed->acknowledged);
  }
}
BENCHMARK(BM_AmpStatCodecRoundTrip);

void BM_EmulatedTestbedSecond(benchmark::State& state) {
  // Wall cost of one simulated second of a 3-station emulated testbed.
  for (auto _ : state) {
    tools::TestbedConfig config;
    config.stations = 3;
    config.warmup = des::SimTime::from_seconds(0.1);
    config.duration = des::SimTime::from_seconds(1.0);
    benchmark::DoNotOptimize(
        tools::run_saturated_testbed(config).total_acknowledged);
  }
}
BENCHMARK(BM_EmulatedTestbedSecond);

void BM_EmulatedTestbedSecondSevenStations(benchmark::State& state) {
  // The same at N = 7, where about one exchange in eight collides and
  // sends its burst back through the retransmission queue.
  for (auto _ : state) {
    tools::TestbedConfig config;
    config.stations = 7;
    config.warmup = des::SimTime::from_seconds(0.1);
    config.duration = des::SimTime::from_seconds(1.0);
    benchmark::DoNotOptimize(
        tools::run_saturated_testbed(config).total_acknowledged);
  }
}
BENCHMARK(BM_EmulatedTestbedSecondSevenStations);

/// Prints the usual console table AND collects every per-iteration run
/// into a RunReport, so the binary leaves a machine-readable perf record
/// behind (BENCH_kernel_microbench.json).
class TrendReporter : public benchmark::ConsoleReporter {
 public:
  explicit TrendReporter(obs::RunReport& report) : report_(report) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
      const std::string name = run.benchmark_name();
      if (run.iterations > 0) {
        report_.scalars[name + ".real_time_s_per_iter"] =
            run.real_accumulated_time /
            static_cast<double>(run.iterations);
      }
      const auto items = run.counters.find("items_per_second");
      if (items != run.counters.end()) {
        report_.scalars[name + ".items_per_second"] =
            static_cast<double>(items->second);
      }
    }
  }

 private:
  obs::RunReport& report_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;

  plc::bench::Harness harness("kernel_microbench");
  TrendReporter reporter(harness.report());
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  // Overhead-budget proof (budgets: ~0% disabled, < 5% enabled), from the
  // interleaved paired measurement so machine noise cancels.
  auto& scalars = harness.report().scalars;
  if (g_paired_disabled_min_ns > 0 && g_paired_enabled_min_ns > 0) {
    scalars["profiler.enabled_overhead_pct"] =
        100.0 * (static_cast<double>(g_paired_enabled_min_ns) /
                     static_cast<double>(g_paired_disabled_min_ns) -
                 1.0);
    // A disabled PROF_SCOPE costs one relaxed atomic load + branch;
    // amortized over one 10k-event batch it is indistinguishable from 0.
    const auto scope =
        scalars.find("BM_ProfilerScopeDisabled.real_time_s_per_iter");
    const double batch_seconds =
        static_cast<double>(g_paired_disabled_min_ns) / 1e9;
    if (scope != scalars.end() && batch_seconds > 0.0) {
      scalars["profiler.disabled_overhead_pct"] =
          100.0 * scope->second / batch_seconds;
    }
  }

  // Kernel-race scalars: slot-equivalents of simulated time per wall
  // second for each kernel, plus their ratio. bench_gate.sh enforces
  // event.slots_per_sec / slot.slots_per_sec >= 10 as an absolute budget.
  if (g_kernel_race_slot_min_ns > 0 && g_kernel_race_event_min_ns > 0) {
    const double batch_slots =
        static_cast<double>(kKernelRaceBatch.ns()) /
        static_cast<double>(kernel_race_spec().timing.slot.ns());
    scalars["slot.slots_per_sec"] =
        batch_slots * 1e9 / static_cast<double>(g_kernel_race_slot_min_ns);
    scalars["event.slots_per_sec"] =
        batch_slots * 1e9 / static_cast<double>(g_kernel_race_event_min_ns);
    scalars["event.speedup_vs_slot"] =
        static_cast<double>(g_kernel_race_slot_min_ns) /
        static_cast<double>(g_kernel_race_event_min_ns);
  }

  return harness.finish();
}
