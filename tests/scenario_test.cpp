// scenario::Spec / Registry / run_scenario: JSON round-trips, strict
// parsing, the RunSpec/TestbedConfig bridges, and the driver's
// jobs-independence (byte-identical reports).
#include <unistd.h>

#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "des/random.hpp"
#include "obs/profiler.hpp"
#include "obs/report.hpp"
#include "obs/telemetry.hpp"
#include "scenario/registry.hpp"
#include "scenario/run.hpp"
#include "scenario/spec.hpp"
#include "store/result_store.hpp"
#include "util/error.hpp"

namespace plc::scenario {
namespace {

Spec tiny_spec() {
  Spec spec;
  spec.name = "tiny";
  spec.title = "tiny determinism scenario";
  spec.macs = {MacVariant{"CA1", mac::BackoffConfig::ca0_ca1()},
               MacVariant{"DCF", dcf::DcfConfig{16, 1024}}};
  spec.stations = {2, 3};
  spec.duration = des::SimTime::from_seconds(1.0);
  spec.repetitions = 2;
  spec.seed = 0x7E57;
  spec.legs.sim = true;
  spec.legs.model = true;
  spec.legs.exact_pair = true;
  spec.legs.testbed = false;
  spec.reference["paper"] = {0.1, 0.2};
  return spec;
}

// --- JSON round-trips --------------------------------------------------------

TEST(SpecJson, CanonicalFormIsAFixedPoint) {
  const Spec spec = tiny_spec();
  const std::string first = spec.to_json();
  const Spec parsed = Spec::from_json(first);
  EXPECT_EQ(parsed.to_json(), first);
  EXPECT_EQ(parsed.name, spec.name);
  EXPECT_EQ(parsed.stations, spec.stations);
  EXPECT_EQ(parsed.repetitions, spec.repetitions);
  EXPECT_EQ(parsed.seed, spec.seed);
  EXPECT_EQ(parsed.duration, spec.duration);
  EXPECT_EQ(parsed.reference, spec.reference);
}

TEST(SpecJson, EveryRegistrySpecRoundTrips) {
  for (const std::string& name : Registry::names()) {
    const Spec spec = Registry::get(name);
    const std::string json = spec.to_json();
    EXPECT_EQ(Spec::from_json(json).to_json(), json) << name;
  }
}

TEST(SpecJson, SeedSurvivesAboveDoublePrecision) {
  Spec spec = tiny_spec();
  spec.seed = 0xFFFF'FFFF'FFFF'FFFFull;  // Would be lossy as a JSON number.
  const Spec parsed = Spec::from_json(spec.to_json());
  EXPECT_EQ(parsed.seed, spec.seed);
}

TEST(SpecJson, MacVariantsRoundTripBothAlternatives) {
  const Spec parsed = Spec::from_json(tiny_spec().to_json());
  ASSERT_EQ(parsed.macs.size(), 2u);
  ASSERT_NE(parsed.macs[0].mac.backoff_config(), nullptr);
  const auto& ca1 = *parsed.macs[0].mac.backoff_config();
  EXPECT_EQ(ca1.cw, mac::BackoffConfig::ca0_ca1().cw);
  EXPECT_EQ(ca1.dc, mac::BackoffConfig::ca0_ca1().dc);
  ASSERT_NE(parsed.macs[1].mac.dcf_config(), nullptr);
  EXPECT_EQ(parsed.macs[1].mac.dcf_config()->cw_min, 16);
  EXPECT_EQ(parsed.macs[1].mac.dcf_config()->cw_max, 1024);
}

TEST(SpecJson, AcceptsPresetShorthand) {
  const Spec spec = Spec::from_json(R"({
    "name": "presets",
    "macs": [
      {"label": "CA3", "type": "1901", "preset": "ca2_ca3"},
      {"label": "DCF-b", "type": "dcf", "preset": "ieee80211b"}
    ],
    "stations": [2]
  })");
  EXPECT_EQ(spec.macs[0].mac.backoff_config()->cw,
            mac::BackoffConfig::ca2_ca3().cw);
  EXPECT_EQ(spec.macs[1].mac.dcf_config()->cw_min,
            dcf::DcfConfig::ieee80211b().cw_min);
}

// The "kernel" key selects the contention kernel on parse but is never
// emitted: reports embed the spec JSON, and slot/event runs must stay
// byte-identical (the kernel-equivalence CI contract).
TEST(SpecJson, KernelKeyParsesButIsNeverEmitted) {
  Spec spec = tiny_spec();
  std::string json = spec.to_json();
  EXPECT_EQ(json.find("\"kernel\""), std::string::npos);

  // Splice the key into the canonical form: it must parse...
  const std::string with_kernel =
      "{\"kernel\": \"event\"," + json.substr(1);
  const Spec parsed = Spec::from_json(with_kernel);
  EXPECT_EQ(parsed.kernel, sim::Kernel::kEvent);
  // ...and serialize back WITHOUT it, bytes equal to the original.
  EXPECT_EQ(parsed.to_json(), json);

  EXPECT_EQ(Spec::from_json("{\"kernel\": \"slot\"," + json.substr(1)).kernel,
            sim::Kernel::kSlot);
  EXPECT_EQ(Spec::from_json(json).kernel, sim::Kernel::kEvent);
  // "auto", the old default, still parses: as the event kernel.
  EXPECT_EQ(Spec::from_json("{\"kernel\": \"auto\"," + json.substr(1)).kernel,
            sim::Kernel::kEvent);
  EXPECT_THROW(Spec::from_json("{\"kernel\": \"warp\"," + json.substr(1)),
               plc::Error);
}

// --- Strict validation -------------------------------------------------------

TEST(SpecJson, RejectsUnknownKeysAtEveryLevel) {
  EXPECT_THROW(
      Spec::from_json(R"({"name": "x", "macs": [{"label": "a", "type":
      "1901", "preset": "ca0_ca1"}], "stations": [2], "bogus": 1})"),
      plc::Error);
  EXPECT_THROW(
      Spec::from_json(R"({"name": "x", "macs": [{"label": "a", "type":
      "1901", "preset": "ca0_ca1", "bogus": 1}], "stations": [2]})"),
      plc::Error);
  EXPECT_THROW(
      Spec::from_json(R"({"name": "x", "macs": [{"label": "a", "type":
      "1901", "preset": "ca0_ca1"}], "stations": [2],
      "timing": {"bogus_ns": 1}})"),
      plc::Error);
  EXPECT_THROW(
      Spec::from_json(R"({"name": "x", "macs": [{"label": "a", "type":
      "1901", "preset": "ca0_ca1"}], "stations": [2],
      "legs": {"bogus": true}})"),
      plc::Error);
  EXPECT_THROW(
      Spec::from_json(R"({"name": "x", "macs": [{"label": "a", "type":
      "1901", "preset": "ca0_ca1"}], "stations": [2],
      "testbed": {"bogus": 1}})"),
      plc::Error);
}

TEST(SpecJson, RejectsInvalidMacShapes) {
  // CW/DC length mismatch goes through BackoffConfig::validate.
  EXPECT_THROW(
      Spec::from_json(R"({"name": "x", "macs": [{"label": "a", "type":
      "1901", "cw": [8, 16], "dc": [0]}], "stations": [2]})"),
      plc::Error);
  // DCF windows must be ordered.
  EXPECT_THROW(
      Spec::from_json(R"({"name": "x", "macs": [{"label": "a", "type":
      "dcf", "cw_min": 64, "cw_max": 16}], "stations": [2]})"),
      plc::Error);
  // Unknown MAC type.
  EXPECT_THROW(
      Spec::from_json(R"({"name": "x", "macs": [{"label": "a", "type":
      "csma-cd"}], "stations": [2]})"),
      plc::Error);
}

TEST(SpecValidate, CatchesStructuralMistakes) {
  EXPECT_THROW(
      {
        Spec spec = tiny_spec();
        spec.stations.clear();
        spec.validate();
      },
      plc::Error);
  EXPECT_THROW(
      {
        Spec spec = tiny_spec();
        spec.macs[1].label = spec.macs[0].label;  // Duplicate label.
        spec.validate();
      },
      plc::Error);
  EXPECT_THROW(
      {
        Spec spec = tiny_spec();
        spec.reference["paper"] = {0.1};  // Not aligned with stations.
        spec.validate();
      },
      plc::Error);
  EXPECT_THROW(
      {
        Spec spec = tiny_spec();
        spec.repetitions = 0;
        spec.validate();
      },
      plc::Error);
}

// --- Registry ----------------------------------------------------------------

TEST(Registry, BuiltInsArePresentAndValid) {
  const std::vector<std::string> names = Registry::names();
  for (const char* expected :
       {"figure2", "table2", "e6-throughput-vs-n", "e8-boosting",
        "e9-deferral-ablation", "dcf-comparison"}) {
    EXPECT_TRUE(Registry::contains(expected)) << expected;
  }
  for (const std::string& name : names) {
    const Spec spec = Registry::get(name);
    EXPECT_EQ(spec.name, name);
    EXPECT_NO_THROW(spec.validate());
  }
  EXPECT_FALSE(Registry::contains("no-such-scenario"));
  EXPECT_THROW(Registry::get("no-such-scenario"), plc::Error);
}

// --- Bridges -----------------------------------------------------------------

TEST(Bridge, RunSpecCarriesEveryField) {
  const Spec spec = tiny_spec();
  const sim::RunSpec run = spec.to_run_spec(3, 1);
  EXPECT_EQ(run.stations, 3);
  EXPECT_EQ(run.frame_length, spec.frame_length);
  EXPECT_EQ(run.duration, spec.duration);
  EXPECT_EQ(run.repetitions, spec.repetitions);
  EXPECT_EQ(run.timing.slot, spec.timing.slot);
  EXPECT_EQ(run.timing.success_overhead, spec.timing.success_overhead);
  ASSERT_NE(run.mac.dcf_config(), nullptr);
  // Seeds derive from (root seed, variant label, N) — reproducible and
  // distinct per point.
  const des::RandomStream root(spec.seed);
  EXPECT_EQ(run.seed, root.derive_seed("sim-DCF-n3"));
  EXPECT_NE(spec.to_run_spec(2, 1).seed, run.seed);
  EXPECT_NE(spec.to_run_spec(3, 0).seed, run.seed);
}

TEST(Bridge, TestbedConfigCarriesTimingAndDerivedSeed) {
  Spec spec = tiny_spec();
  spec.testbed_duration = des::SimTime::from_seconds(7.0);
  const tools::TestbedConfig config = spec.to_testbed_config(2, 1);
  EXPECT_EQ(config.stations, 2);
  EXPECT_EQ(config.duration, spec.testbed_duration);
  EXPECT_EQ(config.timing.slot, spec.timing.slot);
  const des::RandomStream root(spec.seed);
  EXPECT_EQ(config.seed, root.derive_seed("testbed-CA1-n2-t1"));
  EXPECT_NE(spec.to_testbed_config(2, 0).seed, config.seed);
}

TEST(Bridge, VariantIndexIsBoundsChecked) {
  const Spec spec = tiny_spec();
  EXPECT_THROW(spec.to_run_spec(2, 2), plc::Error);
  EXPECT_THROW(spec.to_testbed_config(2, 0, 2), plc::Error);
}

// --- Driver ------------------------------------------------------------------

TEST(RunScenario, ReportIsByteIdenticalAcrossJobsCounts) {
  const Spec spec = tiny_spec();
  std::vector<std::string> serialized;
  for (const int jobs : {1, 4}) {
    RunOptions options;
    options.jobs = jobs;
    const RunOutcome outcome = run_scenario(spec, options);
    EXPECT_EQ(outcome.report.wall_seconds, 0.0);
    std::ostringstream out;
    outcome.report.write_json(out);
    serialized.push_back(out.str());
  }
  EXPECT_EQ(serialized[0], serialized[1]);
}

TEST(RunScenario, ReportCarriesSpecAndScalars) {
  const Spec spec = tiny_spec();
  const RunOutcome outcome = run_scenario(spec);
  EXPECT_EQ(outcome.report.name, "tiny");
  EXPECT_EQ(outcome.report.scenario, spec.to_json());
  // One scalar per (variant, N, metric) plus exact-pair and reference.
  for (const char* key :
       {"CA1.n2.sim_collision_probability", "CA1.n2.sim_throughput",
        "CA1.n2.model_collision_probability", "CA1.n2.model_throughput",
        "CA1.n2.exact_collision_probability", "DCF.n3.sim_throughput",
        "DCF.n3.model_collision_probability", "reference.paper.n2"}) {
    EXPECT_TRUE(outcome.report.scalars.count(key) == 1) << key;
  }
  // The DCF variant must not get an exact-pair scalar.
  EXPECT_EQ(outcome.report.scalars.count("DCF.n2.exact_collision_probability"),
            0u);
  EXPECT_GT(outcome.report.simulated_seconds, 0.0);
  EXPECT_GT(outcome.report.events, 0);
  // The embedded spec re-parses to the same canonical document (the
  // provenance chain: report -> spec -> identical rerun).
  EXPECT_EQ(Spec::from_json(outcome.report.scenario).to_json(),
            outcome.report.scenario);
}

// RunOutcome::wall_seconds times run_scenario from entry to return, so
// legs outside the engine count too. A model-only spec runs no engine
// task at all.
TEST(RunScenario, WallSecondsCoversTheWholeRun) {
  Spec spec;
  spec.name = "model-only";
  spec.macs = {MacVariant{"CA1", mac::BackoffConfig::ca0_ca1()}};
  spec.stations = {2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16};
  spec.legs.sim = false;
  spec.legs.model = true;
  spec.legs.testbed = false;
  spec.legs.exact_pair = false;
  const obs::Stopwatch stopwatch;
  const RunOutcome outcome = run_scenario(spec);
  const double outside = stopwatch.elapsed_seconds();
  EXPECT_GT(outcome.wall_seconds, 0.0);
  EXPECT_GE(outcome.wall_seconds, 0.95 * outside);
  EXPECT_LE(outcome.wall_seconds, outside);
  EXPECT_EQ(outcome.serial_equivalent_seconds, 0.0);
}

TEST(RunScenario, TestbedLegProducesPerStationScalars) {
  Spec spec;
  spec.name = "testbed-tiny";
  spec.macs = {MacVariant{"CA1", mac::BackoffConfig::ca0_ca1()}};
  spec.stations = {2};
  spec.legs.sim = false;
  spec.legs.model = false;
  spec.legs.testbed = true;
  spec.testbed_tests = 2;
  spec.testbed_duration = des::SimTime::from_seconds(2.0);
  const RunOutcome outcome = run_scenario(spec);
  for (const char* key :
       {"CA1.n2.testbed_collision_mean", "CA1.n2.testbed_collision_stddev",
        "CA1.n2.testbed_collided", "CA1.n2.testbed_acknowledged"}) {
    EXPECT_TRUE(outcome.report.scalars.count(key) == 1) << key;
  }
  EXPECT_GT(outcome.report.scalars.at("CA1.n2.testbed_acknowledged"), 0.0);
}

// The hub's simulated seconds add up every leg and every run fed to it:
// the sim repetitions' elapsed time plus each testbed test's warmup and
// duration, which is what the report's simulated_seconds sums too. Its
// events are the sim repetitions' plus the testbed's medium events.
TEST(RunScenario, HubSimSecondsCoverEveryLegAndRun) {
  Spec spec;
  spec.name = "hub-sim-seconds";
  spec.macs = {MacVariant{"CA1", mac::BackoffConfig::ca0_ca1()}};
  spec.stations = {2};
  spec.duration = des::SimTime::from_seconds(0.5);
  spec.repetitions = 2;
  spec.legs.sim = true;
  spec.legs.model = false;
  spec.legs.testbed = true;
  spec.legs.exact_pair = false;
  spec.testbed_tests = 2;
  spec.testbed_duration = des::SimTime::from_seconds(0.5);
  obs::TelemetryHub hub;
  RunOptions options;
  options.jobs = 2;
  options.telemetry = &hub;
  const obs::RunReport report = run_scenario(spec, options).report;
  const double both_legs = report.simulated_seconds;
  EXPECT_NEAR(hub.progress().sim_seconds, both_legs, 1e-9);
  EXPECT_EQ(static_cast<double>(hub.progress().events),
            static_cast<double>(report.events) +
                report.metrics.total("medium.events"));
  run_scenario(spec, options);
  EXPECT_NEAR(hub.progress().sim_seconds, 2.0 * both_legs, 1e-9);
}

// --- The testbed and exact-pair legs share one engine batch -----------------
//
// These cases run as their own `threaded` ctest entry, so the TSan job
// watches the exact-pair task run beside testbed tasks.

/// Sim, testbed (N = 1, 2; 2 tests x 1 s) and a small exact pair.
Spec shared_batch_spec() {
  Spec spec;
  spec.name = "shared-batch";
  spec.macs = {
      MacVariant{"small", mac::BackoffConfig{"small", {4, 8}, {0, 1}}}};
  spec.stations = {1, 2};
  spec.duration = des::SimTime::from_seconds(0.5);
  spec.repetitions = 1;
  spec.seed = 0x5BA7;
  spec.legs.sim = true;
  spec.legs.model = false;
  spec.legs.exact_pair = true;
  spec.legs.testbed = true;
  spec.testbed_tests = 2;
  spec.testbed_duration = des::SimTime::from_seconds(1.0);
  return spec;
}

/// 2 sim points x 1 repetition, 2 x 2 testbed tests, 1 exact pair.
constexpr std::int64_t kSharedBatchTasks = 7;

std::string report_bytes(const RunOutcome& outcome) {
  std::ostringstream out;
  outcome.report.write_json(out);
  return out.str();
}

TEST(SharedBatch, ReportIsTheSameAtAnyJobs) {
  const Spec spec = shared_batch_spec();
  std::vector<std::string> reports;
  for (const int jobs : {1, 4}) {
    RunOptions options;
    options.jobs = jobs;
    const RunOutcome outcome = run_scenario(spec, options);
    for (const char* key :
         {"small.n2.exact_collision_probability",
          "small.n1.testbed_collision_mean", "small.n2.testbed_acknowledged",
          "small.n2.sim_collision_probability"}) {
      EXPECT_EQ(outcome.report.scalars.count(key), 1u) << key;
    }
    reports.push_back(report_bytes(outcome));
  }
  EXPECT_EQ(reports[0], reports[1]);
}

TEST(SharedBatch, TestbedAndExactPairRunAsOneEngineBatch) {
  obs::Profiler& profiler = obs::Profiler::instance();
  profiler.reset();
  obs::Profiler::set_enabled(true);
  RunOptions options;
  options.jobs = 2;
  run_scenario(shared_batch_spec(), options);
  obs::Profiler::set_enabled(false);
  const obs::ProfileSnapshot snapshot = profiler.snapshot();
  profiler.reset();
  std::int64_t batches = 0;
  std::int64_t tasks = 0;
  for (const obs::ProfileNodeStats& node : snapshot.nodes()) {
    if (node.name == "sim.parallel.run_tasks") batches += node.calls;
    if (node.name == "sim.parallel.task") tasks += node.calls;
  }
  // The sim batch, then testbed + exact pair.
  EXPECT_EQ(batches, 2);
  EXPECT_EQ(tasks, kSharedBatchTasks);
}

TEST(SharedBatch, ColdMissesThenWarmHitsWithTheSameBytes) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) /
                       ("plc_shared_batch_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  store::ResultStore store(dir.string());
  const Spec spec = shared_batch_spec();

  obs::TelemetryHub cold_hub;
  RunOptions options;
  options.jobs = 4;
  options.store = &store;
  options.telemetry = &cold_hub;
  const RunOutcome cold = run_scenario(spec, options);
  const store::Counters after_cold = store.counters();
  EXPECT_EQ(after_cold.hits, 0);
  EXPECT_EQ(after_cold.misses, kSharedBatchTasks);
  EXPECT_EQ(after_cold.publishes, kSharedBatchTasks);
  EXPECT_EQ(cold_hub.progress().tasks_total, kSharedBatchTasks);

  obs::TelemetryHub warm_hub;
  options.telemetry = &warm_hub;
  const RunOutcome warm = run_scenario(spec, options);
  const store::Counters after_warm = store.counters();
  EXPECT_EQ(after_warm.hits - after_cold.hits, kSharedBatchTasks);
  EXPECT_EQ(after_warm.misses, after_cold.misses);
  EXPECT_EQ(after_warm.publishes, after_cold.publishes);
  EXPECT_EQ(warm_hub.progress().tasks_total, kSharedBatchTasks);
  EXPECT_EQ(report_bytes(warm), report_bytes(cold));

  std::error_code ec;
  fs::remove_all(dir, ec);
}

}  // namespace
}  // namespace plc::scenario
