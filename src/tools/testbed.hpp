// The paper's measurement procedure (§3), end to end, on the emulated
// testbed: N saturated stations send UDP-like traffic at CA1 to one
// destination D on a single power strip; every station's counters are
// reset via ampstat at the start of the test; at the end, ampstat reads
// per-station acknowledged (Ai) and collided (Ci) MPDUs and the network
// collision probability is sum(Ci)/sum(Ai). Optionally the destination
// runs faifa's sniffer for burst/fairness/MME-overhead traces.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "emu/network.hpp"
#include "medium/domain.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/parallel_runner.hpp"
#include "tools/faifa.hpp"

namespace plc::obs {
class TelemetryHub;
}

namespace plc::tools {

/// Configuration of one testbed run.
struct TestbedConfig {
  int stations = 2;                 ///< N transmitting stations (plus D).
  des::SimTime duration = des::SimTime::from_seconds(240.0);  ///< §3.2.
  des::SimTime warmup = des::SimTime::from_seconds(2.0);
  std::uint64_t seed = 0x1901;
  emu::DeviceConfig device;         ///< Applied to every device.
  phy::TimingConfig timing = phy::TimingConfig::paper_default();
  bool sniff_at_destination = false;
  /// When positive, every station also emits periodic management frames
  /// to the destination at CA2 (E10, the MME-overhead methodology).
  des::SimTime mme_interval = des::SimTime::zero();
  int mme_payload_bytes = 100;

  // Observability (optional, non-owning; must outlive the run). The
  // registry receives the whole network's instruments (domain and
  // devices); the trace sink records every medium event.
  obs::Registry* registry = nullptr;
  obs::TraceSink* trace = nullptr;
  /// Live hub: the run goes in checkpoints of one simulated second, and
  /// the hub gets add_sim(checkpoint, medium events in it) after each.
  /// Attached or not, the run is the same.
  obs::TelemetryHub* telemetry = nullptr;
};

/// Results of one run.
struct TestbedResult {
  std::vector<std::uint64_t> acknowledged;  ///< Ai per station.
  std::vector<std::uint64_t> collided;      ///< Ci per station.
  std::uint64_t total_acknowledged = 0;     ///< sum Ai.
  std::uint64_t total_collided = 0;         ///< sum Ci.
  /// The paper's estimator sum(Ci)/sum(Ai).
  double collision_probability = 0.0;
  /// Ground truth from the medium (cross-check; the tests assert it
  /// agrees with the MME-reported estimator).
  medium::DomainStats domain;
  /// Sniffer-derived metrics (when sniff_at_destination).
  double mme_overhead = 0.0;
  std::vector<int> data_burst_sources;
  /// Raw sniffer captures (when sniff_at_destination) — can be persisted
  /// with tools::write_capture_file for offline analysis.
  std::vector<mme::SnifferIndication> captures;
  std::int64_t frames_delivered_to_destination = 0;
};

/// Runs the procedure. Builds N station devices plus the destination,
/// saturates the stations, resets statistics after warm-up, measures for
/// `duration`, and reads everything back through the MME tools — the
/// whole §3 code path, byte-encoded MMEs included.
TestbedResult run_saturated_testbed(const TestbedConfig& config);

/// Results of a batch of testbed runs (see run_testbed_suite).
struct TestbedSuiteResult {
  /// One result per config, indexed like the input.
  std::vector<TestbedResult> runs;
  /// Sum of the per-run wall times — what a serial loop would have spent.
  double serial_equivalent_seconds = 0.0;
};

/// Canonical JSON of one test's result-determining configuration — the
/// testbed leg's store key coordinate, mirroring sim::canonical_point_json.
/// The device configuration is deliberately absent: scenario testbed
/// legs always run the default emu::DeviceConfig, so changing those
/// defaults or the device's constants is a simulation-semantics change
/// covered by store::kResultEpoch. A "version" field changes when a
/// testbed entry's stored content changes for the same inputs (its
/// metric snapshot included), which orphans earlier testbed entries
/// only.
std::string testbed_point_json(const TestbedConfig& config);

/// A batch of independent testbed tests as one leg of the task engine
/// (sim::ParallelRunner::run_tasks): one task per config, each filling
/// its slot of `runs`. `configs` are point-major with `tests_per_point`
/// consecutive tests per point; a test's index within its point is the
/// rep coordinate of its store key and task span, and `obs.store_legs`
/// carries one leg label per point (e.g. "testbed/CA1"). The leg reads
/// store_legs and telemetry of `obs`, which with `configs` must outlive
/// the run. The engine runs each test on a private registry and absorbs
/// the snapshots into its registry in config order, and each test feeds
/// `obs.telemetry`, so the configs' own `registry` and `telemetry` are
/// ignored. Configs must not attach trace sinks: a sink is not
/// shareable across workers, so the leg rejects them (run such configs
/// through run_saturated_testbed).
/// Bit-identical to running the configs serially in order, for any jobs
/// count, cold or warm.
class TestbedLeg final : public sim::TaskLeg {
 public:
  TestbedLeg(const std::vector<TestbedConfig>& configs, int tests_per_point,
             const sim::RunObservability& obs,
             std::vector<TestbedResult>* runs);

  std::size_t size() const override { return configs_.size(); }
  std::pair<std::size_t, int> coordinates(std::size_t task) const override;
  store::Key key(std::size_t task) const override;
  void run(std::size_t task, obs::Registry* metrics) override;
  std::string encode(std::size_t task,
                     const obs::Snapshot& metrics) const override;
  bool decode(std::size_t task, const obs::JsonValue& payload,
              obs::Snapshot* metrics) override;

 private:
  const std::vector<TestbedConfig>& configs_;
  std::size_t tests_;
  const sim::RunObservability& obs_;
  std::vector<TestbedResult>* runs_;
};

/// Runs a TestbedLeg as its own batch on `runner`. Of `obs` the engine
/// reads registry, store, telemetry, cancel, and trace with task_spans.
TestbedSuiteResult run_testbed_suite(sim::ParallelRunner& runner,
                                     const std::vector<TestbedConfig>& configs,
                                     int tests_per_point,
                                     const sim::RunObservability& obs);

/// The same, as one point on a fresh runner of `jobs` workers (<= 0: one
/// per hardware thread) without a store. The configs must share one
/// registry (or none), which receives every test's snapshot in config
/// order — the Figure 2 bench binds all 7×10 runs to the harness
/// registry.
TestbedSuiteResult run_testbed_suite(const std::vector<TestbedConfig>& configs,
                                     int jobs);

}  // namespace plc::tools
