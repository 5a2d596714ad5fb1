// The event kernel's defining contract: bit-identical results against
// the slot-stepped oracle on the same spec and seed — counters, metric
// snapshots, winner sequences, observer output and report bytes alike.
// The fast tier pins the edge cases (no contention, forced simultaneous
// expiry, DC-triggered redraws inside a gap, run boundaries straddling a
// jump), a 500-seed randomized equality sweep and the observers' bytes
// over every MAC family; the long grid runs in the slow tier.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "dcf/dcf.hpp"
#include "mac/config.hpp"
#include "macdef/registry.hpp"
#include "obs/metrics.hpp"
#include "obs/observatory.hpp"
#include "obs/profiler.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "scenario/registry.hpp"
#include "scenario/run.hpp"
#include "scenario/spec.hpp"
#include "sim/event_kernel.hpp"
#include "serial_reference.hpp"
#include "sim/parallel_runner.hpp"
#include "sim/runner.hpp"
#include "sim/slot_simulator.hpp"
#include "util/error.hpp"

namespace plc {
namespace {

using des::SimTime;

void expect_results_equal(const sim::SlotSimResults& slot,
                          const sim::SlotSimResults& event,
                          const std::string& what) {
  EXPECT_EQ(slot.idle_slots, event.idle_slots) << what;
  EXPECT_EQ(slot.successes, event.successes) << what;
  EXPECT_EQ(slot.collision_events, event.collision_events) << what;
  EXPECT_EQ(slot.collided_tx, event.collided_tx) << what;
  EXPECT_EQ(slot.elapsed.ns(), event.elapsed.ns()) << what;
  ASSERT_EQ(slot.tx_success.size(), event.tx_success.size()) << what;
  for (std::size_t i = 0; i < slot.tx_success.size(); ++i) {
    EXPECT_EQ(slot.tx_success[i], event.tx_success[i])
        << what << " station " << i;
    EXPECT_EQ(slot.tx_collision[i], event.tx_collision[i])
        << what << " station " << i;
  }
}

std::string snapshot_json(const obs::Registry& registry) {
  std::ostringstream out;
  registry.snapshot().write_json(out);
  return out.str();
}

/// Runs both kernels on the same spec (one repetition) and requires
/// equal results AND byte-equal metric snapshots.
void expect_kernels_agree(const sim::RunSpec& spec, int repetition,
                          const std::string& what) {
  obs::Registry slot_registry;
  sim::SlotSimulator simulator = sim::make_simulator(spec, repetition);
  simulator.bind_metrics(slot_registry);
  simulator.enable_winner_trace(true);
  const sim::SlotSimResults slot = simulator.run(spec.duration);

  obs::Registry event_registry;
  sim::EventKernel kernel = sim::make_event_kernel(spec, repetition);
  kernel.bind_metrics(event_registry);
  kernel.enable_winner_trace(true);
  const sim::SlotSimResults event = kernel.run(spec.duration);

  expect_results_equal(slot, event, what);
  EXPECT_EQ(simulator.winners(), kernel.winners()) << what;
  EXPECT_EQ(snapshot_json(slot_registry), snapshot_json(event_registry))
      << what;
}

// --- Edge cases ---------------------------------------------------------

// N=1: no contention ever, every backoff expiry is a success, and the
// whole run is one long chain of batched idle gaps.
TEST(EventKernel, SingleStationHasNoCollisionsAndMatchesOracle) {
  sim::RunSpec spec;
  spec.stations = 1;
  spec.duration = SimTime::from_seconds(20.0);
  expect_kernels_agree(spec, 0, "N=1");

  sim::EventKernel kernel = sim::make_event_kernel(spec, 0);
  const sim::SlotSimResults results = kernel.run(spec.duration);
  EXPECT_GT(results.successes, 0);
  EXPECT_EQ(results.collision_events, 0);
  EXPECT_EQ(results.collided_tx, 0);
}

// CW = {1, 1} draws BC = 0 every time: both stations' counters expire
// simultaneously in every single event — the pure tie-resolution path.
TEST(EventKernel, SimultaneousExpiryTiesResolveExactlyAsOracle) {
  mac::BackoffConfig config;
  config.name = "always-tie";
  config.cw = {1, 1};
  config.dc = {0, 1};
  sim::RunSpec spec;
  spec.mac = config;
  spec.stations = 2;
  spec.duration = SimTime::from_seconds(10.0);
  expect_kernels_agree(spec, 0, "forced ties");

  sim::EventKernel kernel = sim::make_event_kernel(spec, 0);
  const sim::SlotSimResults results = kernel.run(spec.duration);
  EXPECT_EQ(results.successes, 0);
  EXPECT_EQ(results.idle_slots, 0);
  EXPECT_GT(results.collision_events, 0);
  EXPECT_EQ(results.collided_tx, 2 * results.collision_events);
}

// dc = 0 at every stage: every busy event forces every non-transmitter
// through the deferral jump (redraw mid-frame), the transition most
// prone to drifting from the oracle.
TEST(EventKernel, DeferralJumpRedrawsMidGapMatchOracle) {
  mac::BackoffConfig config;
  config.name = "jump-happy";
  config.cw = {8, 16, 32, 64};
  config.dc = {0, 0, 0, 0};
  sim::RunSpec spec;
  spec.mac = config;
  spec.stations = 6;
  spec.duration = SimTime::from_seconds(20.0);
  expect_kernels_agree(spec, 0, "dc=0 everywhere");
}

// CA2/CA3 priority-class parameters with beacon-period-scale overheads:
// attempt events dwarf the slot length, so run() boundaries land inside
// gaps and overshoot attempts exactly like the slot path.
TEST(EventKernel, PrioritySlotTimingAndBoundariesStraddlingAJump) {
  sim::RunSpec spec;
  spec.mac = mac::BackoffConfig::ca2_ca3();
  spec.stations = 4;
  spec.duration = SimTime::from_seconds(5.0);
  // Long overheads: Ts/Tc span many slot lengths (the paper's priority
  // resolution slots live inside these overheads).
  spec.timing.success_overhead = des::SimTime::from_us(5000.0);
  spec.timing.collision_overhead = des::SimTime::from_us(9000.0);
  expect_kernels_agree(spec, 0, "CA2/CA3 long overheads");

  // Segmented runs must land exactly where one long run lands: each
  // run() boundary is deliberately NOT a multiple of the slot or of any
  // event duration, so segments start and stop inside backoff gaps.
  sim::EventKernel segmented = sim::make_event_kernel(spec, 0);
  sim::SlotSimResults chunked;
  for (int i = 0; i < 7; ++i) {
    chunked = segmented.run(des::SimTime::from_us(714'285.0));
  }
  sim::SlotSimulator oracle = sim::make_simulator(spec, 0);
  sim::SlotSimResults straight;
  for (int i = 0; i < 7; ++i) {
    straight = oracle.run(des::SimTime::from_us(714'285.0));
  }
  expect_results_equal(straight, chunked, "segmented runs");
}

// run_events must count batched idle slots as single medium events,
// stopping at exactly the same event boundary as the oracle.
TEST(EventKernel, RunEventsCountsBatchedIdleSlotsIndividually) {
  sim::RunSpec spec;
  spec.stations = 3;
  sim::EventKernel kernel = sim::make_event_kernel(spec, 0);
  sim::SlotSimulator oracle = sim::make_simulator(spec, 0);
  const sim::SlotSimResults event = kernel.run_events(5'000);
  const sim::SlotSimResults slot = oracle.run_events(5'000);
  expect_results_equal(slot, event, "run_events");
  EXPECT_EQ(event.idle_slots + event.successes + event.collision_events,
            5'000);
}

TEST(EventKernel, RejectsInvalidArguments) {
  sim::RunSpec spec;
  sim::EventKernel kernel = sim::make_event_kernel(spec, 0);
  EXPECT_THROW(kernel.run(SimTime::zero()), Error);
  EXPECT_THROW(kernel.run_events(0), Error);
  EXPECT_THROW(kernel.backoff_counter(-1), Error);
  EXPECT_THROW(kernel.stage(2), Error);
}

// --- Randomized equality sweep (fast tier) ------------------------------

// 500 seeds across station counts, MAC families and both run modes: any
// divergence in any transition shows up here within a few seeds.
TEST(EventKernel, RandomizedFiveHundredSeedEqualitySweep) {
  const mac::BackoffConfig ca01 = mac::BackoffConfig::ca0_ca1();
  const mac::BackoffConfig dcf_like = mac::BackoffConfig::dcf_like(8, 4);
  const dcf::DcfConfig wifi = dcf::DcfConfig::ieee80211ag();
  for (std::uint64_t seed = 0; seed < 500; ++seed) {
    sim::RunSpec spec;
    spec.seed = 0x9000 + seed;
    spec.stations = 1 + static_cast<int>(seed % 8);
    switch (seed % 3) {
      case 0:
        spec.mac = ca01;
        break;
      case 1:
        spec.mac = dcf_like;
        break;
      default:
        spec.mac = wifi;
        break;
    }
    const std::string what = "seed " + std::to_string(spec.seed);
    sim::EventKernel kernel = sim::make_event_kernel(spec, 0);
    sim::SlotSimulator oracle = sim::make_simulator(spec, 0);
    expect_results_equal(oracle.run_events(2'000), kernel.run_events(2'000),
                         what);
    if (testing::Test::HasFailure()) break;  // One seed is enough to debug.
  }
}

// --- Runner integration -------------------------------------------------

TEST(EventKernelRunner, RunPointSummariesEqualForBothKernels) {
  sim::RunSpec spec;
  spec.stations = 5;
  spec.duration = SimTime::from_seconds(10.0);
  spec.repetitions = 3;
  sim::ParallelRunner runner(2);
  spec.kernel = sim::Kernel::kSlot;
  const sim::RunSummary slot = runner.run_point(spec);
  spec.kernel = sim::Kernel::kEvent;
  const sim::RunSummary event = runner.run_point(spec);
  EXPECT_EQ(slot.medium_events, event.medium_events);
  EXPECT_EQ(slot.simulated.ns(), event.simulated.ns());
  EXPECT_EQ(slot.collision_probability.mean(),
            event.collision_probability.mean());
  EXPECT_EQ(slot.collision_probability.stddev(),
            event.collision_probability.stddev());
  EXPECT_EQ(slot.normalized_throughput.mean(),
            event.normalized_throughput.mean());
  EXPECT_EQ(slot.jain_index.mean(), event.jain_index.mean());
}

// Attaching observers never changes which kernel runs: an observed
// kEvent point runs on the event kernel (the profiler sees no slot-path
// scope) and still merges into the slot-stepped oracle's summary.
TEST(EventKernelRunner, ObserversRunOnTheEventKernel) {
  sim::RunSpec spec;
  spec.stations = 3;
  spec.duration = SimTime::from_seconds(2.0);
  spec.repetitions = 2;
  const obs::ObservatoryOptions observatory;

  const auto observed_run = [&](sim::Kernel kernel, obs::TraceSink& trace,
                                obs::TelemetryHub& hub) {
    spec.kernel = kernel;
    sim::RunObservability obs;
    obs.trace = &trace;
    obs.observatory = &observatory;
    obs.telemetry = &hub;
    return sim::ParallelRunner(2).run_point(spec, obs);
  };

  obs::Profiler& profiler = obs::Profiler::instance();
  profiler.reset();
  obs::Profiler::set_enabled(true);
  obs::TraceSink event_trace;
  obs::TelemetryHub event_hub;
  const sim::RunSummary event =
      observed_run(sim::Kernel::kEvent, event_trace, event_hub);
  obs::Profiler::set_enabled(false);
  const obs::ProfileSnapshot profile = profiler.snapshot();
  profiler.reset();
  const auto ran = [&profile](const char* scope) {
    return std::any_of(
        profile.nodes().begin(), profile.nodes().end(),
        [scope](const obs::ProfileNodeStats& node) {
          return node.name == scope;
        });
  };
  EXPECT_TRUE(ran("event_kernel.run"));
  EXPECT_FALSE(ran("slot_sim.run"));

  obs::TraceSink slot_trace;
  obs::TelemetryHub slot_hub;
  const sim::RunSummary slot =
      observed_run(sim::Kernel::kSlot, slot_trace, slot_hub);
  EXPECT_EQ(slot.medium_events, event.medium_events);
  EXPECT_EQ(slot.simulated.ns(), event.simulated.ns());
  EXPECT_EQ(slot.collision_probability.mean(),
            event.collision_probability.mean());
  EXPECT_EQ(slot.normalized_throughput.stddev(),
            event.normalized_throughput.stddev());
  ASSERT_TRUE(slot.stations.has_value());
  ASSERT_TRUE(event.stations.has_value());
  EXPECT_EQ(obs::stations_section_json({{"p", &*slot.stations}}),
            obs::stations_section_json({{"p", &*event.stations}}));
  std::ostringstream slot_json;
  slot_trace.write_chrome_trace(slot_json);
  std::ostringstream event_json;
  event_trace.write_chrome_trace(event_json);
  EXPECT_GT(event_trace.size(), 0u);
  EXPECT_EQ(slot_json.str(), event_json.str());
  EXPECT_DOUBLE_EQ(event_hub.progress().sim_seconds,
                   event.simulated.seconds());
}

TEST(EventKernelRunner, ParallelRunnerMatchesSerialForEventKernel) {
  sim::RunSpec spec;
  spec.stations = 4;
  spec.duration = SimTime::from_seconds(5.0);
  spec.repetitions = 4;
  spec.kernel = sim::Kernel::kEvent;
  const sim::RunSummary serial = serial_reference(spec);
  sim::ParallelRunner runner(4);
  const sim::RunSummary parallel =
      runner.run_point(spec, sim::RunObservability{});
  EXPECT_EQ(serial.medium_events, parallel.medium_events);
  EXPECT_EQ(serial.collision_probability.mean(),
            parallel.collision_probability.mean());
  EXPECT_EQ(serial.normalized_throughput.stddev(),
            parallel.normalized_throughput.stddev());
}

// The CI gate's contract in miniature: a registry scenario's full report
// must serialize to identical bytes under both kernels.
TEST(EventKernelRunner, ScenarioReportBytesIdenticalAcrossKernels) {
  scenario::Spec spec = scenario::Registry::get("figure2");
  spec.stations = {2, 5};
  spec.duration = SimTime::from_seconds(5.0);
  spec.repetitions = 2;
  spec.legs.testbed = false;
  spec.reference.clear();  // The paper series align with the full sweep.

  scenario::RunOptions options;
  options.out = nullptr;
  spec.kernel = sim::Kernel::kSlot;
  const scenario::RunOutcome slot = scenario::run_scenario(spec, options);
  spec.kernel = sim::Kernel::kEvent;
  const scenario::RunOutcome event = scenario::run_scenario(spec, options);
  std::ostringstream slot_json;
  slot.report.write_json(slot_json);
  std::ostringstream event_json;
  event.report.write_json(event_json);
  EXPECT_EQ(slot_json.str(), event_json.str());
}

// --- Observers on both kernels ------------------------------------------

/// Everything observers take away from one repetition: the observatory
/// reduction (stations section plus trajectory JSONL), the Chrome trace
/// with its ring counts, and the metric snapshot.
struct ObservedOutput {
  std::string stations;
  std::string trace;
  std::int64_t recorded = 0;
  std::int64_t dropped = 0;
  std::string metrics;
};

template <class Kernel>
ObservedOutput observe(Kernel kernel, const obs::ObservatoryOptions& options,
                       std::size_t trace_capacity, bool counter_samples) {
  obs::Observatory observatory(kernel.station_count(),
                               kernel.max_stage_count(), options);
  kernel.attach_observatory(&observatory);
  obs::TraceSink trace(trace_capacity);
  kernel.set_trace(&trace, counter_samples);
  obs::Registry registry;
  kernel.bind_metrics(registry);
  // Uneven boundaries: each call can stop inside an idle gap, and the
  // next one must resume the walk where the oracle resumes its slots.
  kernel.run(SimTime::from_us(41'257.0));
  kernel.run_events(1'001);
  kernel.run(SimTime::from_us(100'003.0));
  kernel.flush_observatory();
  const obs::ObservatorySummary summary = observatory.summarize();

  ObservedOutput out;
  std::ostringstream stations;
  stations << obs::stations_section_json({{"p", &summary}});
  summary.write_trajectory_jsonl(stations);
  out.stations = stations.str();
  std::ostringstream chrome;
  trace.write_chrome_trace(chrome);
  out.trace = chrome.str();
  out.recorded = trace.recorded();
  out.dropped = trace.dropped();
  out.metrics = snapshot_json(registry);
  return out;
}

// Every MAC family, with and without the deferral counter, across
// station counts and trajectory capacities (0 = none, 1 and 3 force
// stride doubling early): the observers must write the same bytes on
// both kernels. Repetition 0 samples the counters into a ring small
// enough to overwrite; repetition 1 keeps every span.
TEST(KernelObservers, SameBytesOnBothKernelsAcrossMacsStationsAndCapacities) {
  mac::BackoffConfig no_deferral = mac::BackoffConfig::ca0_ca1();
  no_deferral.dc.assign(no_deferral.dc.size(), mac::kDeferralDisabled);
  const mac::MacDef& tdma = mac::builtin_registry().get("tdma");
  const mac::MacDef& boosted = mac::builtin_registry().get("boosted-cw");
  const std::vector<sim::MacSpec> macs = {
      mac::BackoffConfig::ca0_ca1(),
      mac::BackoffConfig::ca2_ca3(),
      mac::BackoffConfig::dcf_like(8, 4),
      dcf::DcfConfig::ieee80211ag(),
      sim::MacSpec(tdma, tdma.default_config()),
      sim::MacSpec(boosted, boosted.default_config()),
      no_deferral};
  for (std::size_t m = 0; m < macs.size(); ++m) {
    for (const int n : {1, 2, 3, 7, 16}) {
      for (const std::size_t capacity : {0, 1, 3, 16, 256}) {
        for (int rep = 0; rep < 2; ++rep) {
          sim::RunSpec spec;
          spec.mac = macs[m];
          spec.stations = n;
          spec.seed = 0x0b5e + m;
          obs::ObservatoryOptions options;
          options.fairness_window = 7;
          options.trajectory_capacity = capacity;
          const std::size_t ring = rep == 0 ? 97 : std::size_t{1} << 16;
          const ObservedOutput slot =
              observe(sim::make_simulator(spec, rep), options, ring, rep == 0);
          const ObservedOutput event = observe(sim::make_event_kernel(spec, rep),
                                               options, ring, rep == 0);
          const std::string what = "mac " + std::to_string(m) + " n " +
                                   std::to_string(n) + " capacity " +
                                   std::to_string(capacity) + " rep " +
                                   std::to_string(rep);
          EXPECT_EQ(slot.stations, event.stations) << what;
          EXPECT_EQ(slot.trace, event.trace) << what;
          EXPECT_EQ(slot.recorded, event.recorded) << what;
          EXPECT_EQ(slot.dropped, event.dropped) << what;
          // The small ring must really overwrite, or the dropped-count
          // comparison proves nothing.
          if (rep == 0) {
            EXPECT_GT(event.dropped, 0) << what;
          }
          EXPECT_EQ(slot.metrics, event.metrics) << what;
          if (testing::Test::HasFailure()) return;
        }
      }
    }
  }
}

// Observers see the run; they must not steer it.
TEST(KernelObservers, AttachedObserversLeaveResultsUnchanged) {
  sim::RunSpec spec;
  spec.stations = 5;
  spec.duration = SimTime::from_seconds(3.0);
  sim::EventKernel bare = sim::make_event_kernel(spec, 0);
  bare.enable_winner_trace(true);
  sim::EventKernel observed = sim::make_event_kernel(spec, 0);
  observed.enable_winner_trace(true);
  obs::Observatory observatory(observed.station_count(),
                               observed.max_stage_count(), {});
  observed.attach_observatory(&observatory);
  obs::TraceSink trace;
  observed.set_trace(&trace, /*counter_samples=*/true);
  expect_results_equal(bare.run(spec.duration), observed.run(spec.duration),
                       "observed vs bare");
  EXPECT_EQ(bare.winners(), observed.winners());
}

// --- Long grid (slow tier) ----------------------------------------------

// Every MAC family crossed with a wide station range at full scenario
// durations; nightly only.
TEST(EventKernelGrid, LongEqualityGridAcrossMacFamiliesAndStationCounts) {
  const std::vector<sim::MacSpec> macs = {
      mac::BackoffConfig::ca0_ca1(), mac::BackoffConfig::ca2_ca3(),
      mac::BackoffConfig::dcf_like(8, 4), dcf::DcfConfig::ieee80211ag()};
  const std::vector<int> station_counts = {1, 2, 5, 10, 20, 50};
  for (std::size_t m = 0; m < macs.size(); ++m) {
    for (const int n : station_counts) {
      sim::RunSpec spec;
      spec.mac = macs[m];
      spec.stations = n;
      spec.duration = SimTime::from_seconds(50.0);
      spec.seed = 0x1901 + m;
      expect_kernels_agree(
          spec, 0, "mac " + std::to_string(m) + " n " + std::to_string(n));
      if (testing::Test::HasFailure()) return;
    }
  }
}

}  // namespace
}  // namespace plc
