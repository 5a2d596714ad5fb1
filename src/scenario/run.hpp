// The scenario driver: executes every leg a Spec enables and packages
// the outcome as one deterministic obs::RunReport.
//
// Determinism contract: the report depends only on the spec (and the
// build), never on the jobs count or the clock. The sim, testbed and
// exact-pair legs run as tasks on one sim::ParallelRunner — bit-identical
// for any jobs count, cold or warm — while the model leg stays inline in
// the table printer. The report's wall_seconds stays 0, so two runs of
// the same spec produce byte-identical JSON whatever --jobs was.
// Wall-clock accounting is returned separately in RunOutcome for the CLI
// summary and the bench harnesses.
#pragma once

#include <atomic>
#include <iosfwd>

#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "scenario/spec.hpp"

namespace plc::obs {
class TelemetryHub;
}

namespace plc::sim {
class ParallelRunner;
}

namespace plc::store {
class ResultStore;
}

namespace plc::scenario {

/// Execution knobs orthogonal to the experiment description.
struct RunOptions {
  /// Worker count for the engine legs; <= 0 means $PLC_JOBS / hardware
  /// threads (util::ThreadPool::resolve_jobs semantics).
  int jobs = 0;
  /// When set, the driver prints the per-variant result tables here
  /// (the CLI passes std::cout; tests pass nullptr for silence).
  std::ostream* out = nullptr;
  /// When set, simulator and testbed instruments are bound here instead
  /// of the driver's internal registry and the report's metric snapshot
  /// is left empty — the bench harnesses own the snapshot step.
  obs::Registry* registry = nullptr;
  /// Result cache (see plc::store). When set, every sim, testbed and
  /// exact-pair task consults the store before running and publishes on
  /// completion; a fully warm run reproduces the cold run's report
  /// byte-for-byte, and the report carries a run-invariant "cache"
  /// provenance section.
  store::ResultStore* store = nullptr;
  /// Live telemetry hub (see obs::TelemetryHub): fed the engine legs'
  /// task lifecycle and simulated seconds plus store counters as probe
  /// gauges. Strictly a live view for the exposition server — never
  /// feeds the report, so attaching it preserves byte-identical output.
  obs::TelemetryHub* telemetry = nullptr;
  /// Shared runner for the engine legs. A long-lived caller (the serve
  /// scheduler) passes one runner so consecutive scenarios reuse one
  /// warm ThreadPool instead of spawning and joining workers per job.
  /// Overrides `jobs` (the runner's pool size wins); nullptr (the
  /// default) constructs a per-run runner. Results are byte-identical
  /// either way.
  sim::ParallelRunner* runner = nullptr;
  /// Cooperative cancellation (see sim::RunObservability::cancel).
  /// Checked on entry and before every engine task; a cancelled run
  /// throws plc::Error("sweep cancelled").
  const std::atomic<bool>* cancel = nullptr;
};

/// One scenario execution.
struct RunOutcome {
  /// Deterministic report: name = spec.name, the serialized spec under
  /// "scenario", one scalar per (variant, N, metric), wall_seconds = 0.
  obs::RunReport report;
  /// Wall-clock seconds of run_scenario from entry to return: every leg,
  /// the table rendering and the report assembly (not part of the
  /// report).
  double wall_seconds = 0.0;
  /// Sum of the engine tasks' wall times — their honest serial-equivalent
  /// cost.
  double serial_equivalent_seconds = 0.0;
};

/// Validates and runs `spec`: the sim leg as one parallel sweep over
/// every (MAC variant x station count), the testbed leg (variant 0; the
/// emulated devices run their HomePlug AV firmware configuration), the
/// exact N = 2 chain as one task per 1901 variant, and the model leg per
/// point, inline.
RunOutcome run_scenario(const Spec& spec, const RunOptions& options = {});

}  // namespace plc::scenario
