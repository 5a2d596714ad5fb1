// MAC-state observatory tests: the online estimators against their
// offline twins, the trajectory downsampler's invariants, tally
// consistency with the simulator's own counters, byte-identity of the
// "stations" reduction across serial and parallel runners, and the
// surfaces (report section, /stations endpoint, flight-recorder tail,
// scenario spec round-trip).
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <sstream>
#include <vector>

#include "metrics/fairness.hpp"
#include "obs/exposition.hpp"
#include "obs/json.hpp"
#include "obs/observatory.hpp"
#include "obs/telemetry.hpp"
#include "scenario/spec.hpp"
#include "serial_reference.hpp"
#include "sim/parallel_runner.hpp"
#include "sim/runner.hpp"
#include "sim/slot_simulator.hpp"
#include "util/error.hpp"
#include "util/math.hpp"

namespace plc {
namespace {

sim::RunSpec small_spec(int stations, int repetitions = 2) {
  sim::RunSpec spec;
  spec.stations = stations;
  spec.duration = des::SimTime::from_seconds(2.0);
  spec.repetitions = repetitions;
  spec.seed = 0x0B5;
  return spec;
}

TEST(JainIndex, BoundsAndPermutationInvariance) {
  std::mt19937_64 rng(7);
  std::uniform_real_distribution<double> value(0.0, 100.0);
  for (int trial = 0; trial < 200; ++trial) {
    const int n = 1 + static_cast<int>(rng() % 12);
    std::vector<double> counts(static_cast<std::size_t>(n));
    for (double& c : counts) c = value(rng);
    const double jain = util::jain_index(counts);
    EXPECT_GE(jain, 1.0 / static_cast<double>(n) - 1e-12);
    EXPECT_LE(jain, 1.0 + 1e-12);
    std::vector<double> shuffled = counts;
    std::shuffle(shuffled.begin(), shuffled.end(), rng);
    // Summation order changes, so only near-equality holds.
    EXPECT_NEAR(jain, util::jain_index(shuffled), 1e-12);
  }
  // Degenerate inputs score perfectly fair by convention.
  EXPECT_DOUBLE_EQ(util::jain_index({}), 1.0);
  EXPECT_DOUBLE_EQ(util::jain_index({0.0, 0.0}), 1.0);
}

// The observatory's online sliding-window Jain must be bitwise equal to
// the offline metrics::sliding_window_jain over the same winner stream —
// same additions in the same order, no approximation.
TEST(Observatory, WindowJainMatchesOfflineEstimator) {
  for (const int n : {2, 5, 9}) {
    auto entities =
        sim::make_1901_entities(n, mac::BackoffConfig::ca0_ca1(), 42);
    sim::SlotSimulator simulator(std::move(entities));
    simulator.enable_winner_trace(true);
    obs::ObservatoryOptions options;
    options.fairness_window = 50;
    obs::Observatory observatory(n, simulator.max_stage_count(), options);
    simulator.attach_observatory(&observatory);
    simulator.run(des::SimTime::from_seconds(5.0));
    simulator.flush_observatory();

    const util::RunningStats offline = metrics::sliding_window_jain(
        simulator.winners(), n, options.fairness_window);
    const obs::ObservatorySummary summary = observatory.summarize();
    ASSERT_GT(offline.count(), 0);
    EXPECT_EQ(summary.window_jain.count(), offline.count());
    EXPECT_EQ(summary.window_jain.mean(), offline.mean());
    EXPECT_EQ(summary.window_jain.stddev(), offline.stddev());
    EXPECT_EQ(summary.window_jain.min(), offline.min());
    EXPECT_EQ(summary.window_jain.max(), offline.max());
  }
}

TEST(Observatory, TallyAgreesWithSimulatorCounters) {
  const int n = 6;
  auto entities =
      sim::make_1901_entities(n, mac::BackoffConfig::ca0_ca1(), 9);
  sim::SlotSimulator simulator(std::move(entities));
  obs::Observatory observatory(n, simulator.max_stage_count(), {});
  simulator.attach_observatory(&observatory);
  const sim::SlotSimResults results =
      simulator.run(des::SimTime::from_seconds(5.0));
  simulator.flush_observatory();
  const obs::ObservatorySummary summary = observatory.summarize();

  EXPECT_EQ(summary.idle_events, results.idle_slots);
  EXPECT_EQ(summary.success_events, results.successes);
  EXPECT_EQ(summary.collision_events, results.collision_events);
  std::int64_t tally_success = 0;
  std::int64_t tally_collision = 0;
  for (int s = 0; s < n; ++s) {
    const auto& station = summary.per_station[static_cast<std::size_t>(s)];
    EXPECT_EQ(station.tx_success,
              results.tx_success[static_cast<std::size_t>(s)]);
    EXPECT_EQ(station.tx_collision,
              results.tx_collision[static_cast<std::size_t>(s)]);
    tally_success += station.tx_success;
    tally_collision += station.tx_collision;
  }
  EXPECT_EQ(tally_success, results.successes);
  EXPECT_EQ(tally_collision, results.collided_tx);
  // Per-stage rows cover the same transmissions.
  std::int64_t stage_success = 0;
  std::int64_t stage_collision = 0;
  for (const auto& stage : summary.per_stage) {
    stage_success += stage.tx_success;
    stage_collision += stage.tx_collision;
  }
  EXPECT_EQ(stage_success, results.successes);
  EXPECT_EQ(stage_collision, results.collided_tx);
}

TEST(Observatory, TrajectoryDownsamplerInvariants) {
  obs::ObservatoryOptions options;
  options.trajectory_capacity = 16;
  obs::Observatory observatory(2, 4, options);
  for (int event = 0; event < 10'000; ++event) {
    observatory.on_idle();
    if (observatory.sample_due()) {
      observatory.begin_sample(event * 100);
      observatory.record_state(1, 0, 0, 0);
      observatory.record_state(2, 1, 1, 1);
    }
    observatory.advance_event();
  }
  const obs::ObservatorySummary summary = observatory.summarize();
  EXPECT_LE(summary.trajectory.size(), options.trajectory_capacity + 1);
  EXPECT_GE(summary.trajectory.size(), options.trajectory_capacity / 2);
  // Stride is a power of two and every retained sample sits on it.
  EXPECT_EQ(summary.trajectory_stride & (summary.trajectory_stride - 1), 0);
  std::int64_t previous = -1;
  for (const auto& sample : summary.trajectory) {
    EXPECT_EQ(sample.event % summary.trajectory_stride, 0);
    EXPECT_GT(sample.event, previous);
    previous = sample.event;
    ASSERT_EQ(sample.states.size(), 2u);
  }
  EXPECT_EQ(summary.trajectory_offered, 10'000);
}

TEST(Observatory, MergeRequiresMatchingShape) {
  obs::Observatory a(2, 4, {});
  obs::Observatory b(3, 4, {});
  obs::ObservatorySummary merged = a.summarize();
  EXPECT_THROW(merged.merge(b.summarize()), Error);
  // Merging into a default summary adopts the other side wholesale.
  obs::ObservatorySummary fresh;
  fresh.merge(a.summarize());
  EXPECT_EQ(fresh.stations, 2);
  EXPECT_EQ(fresh.repetitions, 1);
}

// The acceptance invariant: the "stations" reduction is byte-identical
// whether repetitions ran serially or sharded across a pool.
TEST(Observatory, SerialAndParallelStationsAgree) {
  const sim::RunSpec spec = small_spec(5, 3);
  obs::ObservatoryOptions options;
  sim::RunObservability attach;
  attach.observatory = &options;

  const sim::RunSummary serial =
      serial_reference(spec, nullptr, nullptr, &options);
  sim::ParallelRunner runner(3);
  const sim::RunSummary parallel = runner.run_point(spec, attach);

  ASSERT_TRUE(serial.stations.has_value());
  ASSERT_TRUE(parallel.stations.has_value());
  const std::string serial_json = obs::stations_section_json(
      {{"point", &*serial.stations}});
  const std::string parallel_json = obs::stations_section_json(
      {{"point", &*parallel.stations}});
  EXPECT_EQ(serial_json, parallel_json);
}

TEST(Observatory, ReportCarriesStationsOnlyWhenAttached) {
  const sim::RunSpec spec = small_spec(3, 1);
  sim::ParallelRunner runner(2);
  sim::RunObservability plain;
  const obs::RunReport without =
      runner.run_point_report(spec, "plain", plain);
  EXPECT_TRUE(without.stations.empty());
  std::ostringstream without_json;
  without.write_json(without_json);
  // The spec echoes a "stations" count, so look for the section schema.
  EXPECT_EQ(without_json.str().find("plc-stations/1"), std::string::npos);

  obs::ObservatoryOptions options;
  sim::RunObservability attach;
  attach.observatory = &options;
  const obs::RunReport with = runner.run_point_report(spec, "obs", attach);
  EXPECT_NE(with.stations.find("plc-stations/1"), std::string::npos);
  EXPECT_GT(with.scalars.count("window_jain_mean"), 0u);
  // The section is valid JSON with the expected shape.
  const obs::JsonValue parsed = obs::parse_json(with.stations);
  const obs::JsonValue* points = parsed.find("points");
  ASSERT_NE(points, nullptr);
  const obs::JsonValue* point = points->find("n3");
  ASSERT_NE(point, nullptr);
  EXPECT_EQ(point->find("stations")->number, 3);
  EXPECT_EQ(point->find("per_station")->items.size(), 3u);
}

TEST(Observatory, StationsEndpointServesHubView) {
  obs::TelemetryHub hub;
  obs::ExpositionServer server(hub, {});
  // Empty until a summary arrives, but well-formed.
  std::string response =
      server.handle_request("GET /stations HTTP/1.1\r\n\r\n");
  EXPECT_NE(response.find("plc-stations/1"), std::string::npos);

  const sim::RunSpec spec = small_spec(4, 1);
  obs::ObservatoryOptions options;
  sim::RunObservability attach;
  attach.observatory = &options;
  attach.telemetry = &hub;
  sim::ParallelRunner(2).run_point(spec, attach);
  response = server.handle_request("GET /stations HTTP/1.1\r\n\r\n");
  EXPECT_NE(response.find("point-0"), std::string::npos);
  // The headline gauges surface as plc_station_* families.
  const std::string metrics =
      server.handle_request("GET /metrics HTTP/1.1\r\n\r\n");
  EXPECT_NE(metrics.find("plc_station_window_jain_mean"), std::string::npos);
  EXPECT_NE(metrics.find("plc_station_tx_success"), std::string::npos);
}

TEST(TelemetryHub, ProbesReplaceAndRemoveByName) {
  obs::TelemetryHub hub;
  hub.add_probe("x", [] { return 1.0; });
  hub.add_probe("x", [] { return 2.0; });
  obs::Snapshot snapshot = hub.metrics_snapshot();
  const obs::MetricSample* sample = snapshot.find("x");
  ASSERT_NE(sample, nullptr);
  EXPECT_DOUBLE_EQ(sample->value, 2.0);
  hub.remove_probe("x");
  hub.remove_probe("never-registered");  // No-op.
  // The gauge keeps its last value, but the probe no longer refreshes it.
  snapshot = hub.metrics_snapshot();
  EXPECT_DOUBLE_EQ(snapshot.find("x")->value, 2.0);
}

TEST(Observatory, FlightSectionWritesStateTail) {
  obs::Observatory observatory(2, 4, {});
  observatory.on_success(1, 500);
  observatory.begin_sample(500);
  observatory.record_state(3, 1, 0, 0);
  observatory.record_state(7, 2, 1, 1);
  observatory.advance_event();
  std::ostringstream out;
  obs::JsonWriter writer(out);
  observatory.write_flight_section(writer, 8);
  const obs::JsonValue parsed = obs::parse_json(out.str());
  EXPECT_EQ(parsed.find("stations")->number, 2);
  ASSERT_NE(parsed.find("last"), nullptr);
  EXPECT_EQ(parsed.find("last")->items.size(), 2u);
  EXPECT_EQ(parsed.find("last")->items[1].find("bc")->number, 7);
  EXPECT_EQ(parsed.find("tail")->items.size(), 1u);
}

TEST(ScenarioSpec, ObservatoryRoundTripsAndDefaultsOff) {
  scenario::Spec spec;
  spec.name = "obs-round-trip";
  spec.macs[0].label = "CA1";
  // Disabled: no "observatory" key, so pre-observatory fixtures are
  // byte-stable.
  EXPECT_EQ(spec.to_json().find("observatory"), std::string::npos);

  spec.observatory = true;
  spec.observatory_window = 25;
  spec.observatory_trajectory = 64;
  const scenario::Spec parsed = scenario::Spec::from_json(spec.to_json());
  EXPECT_TRUE(parsed.observatory);
  EXPECT_EQ(parsed.observatory_window, 25);
  EXPECT_EQ(parsed.observatory_trajectory, 64);
  EXPECT_EQ(parsed.to_json(), spec.to_json());

  EXPECT_THROW(scenario::Spec::from_json(
                   R"({"name": "x", "macs": [{"label": "A", "type": "1901",)"
                   R"( "preset": "ca0_ca1"}], "stations": [2],)"
                   R"( "observatory": {"bogus": 1}})"),
               Error);
}

}  // namespace
}  // namespace plc
