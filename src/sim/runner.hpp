// Experiment description for repeated slot-simulator runs.
//
// The paper reports averages over repeated tests (Figure 2 averages 10
// testbed runs); a sweep point mirrors that: it is simulated
// `repetitions` times with independent derived seeds and the mean and
// sample standard deviation of each metric are reported. The runs
// themselves go through sim::ParallelRunner (parallel_runner.hpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "macdef/registry.hpp"
#include "obs/observatory.hpp"
#include "obs/report.hpp"
#include "sim/event_kernel.hpp"
#include "sim/slot_simulator.hpp"
#include "util/stats.hpp"

namespace plc::obs {
class TelemetryHub;
}

namespace plc::scenario {
struct Spec;
}

namespace plc::store {
class ResultStore;
}

namespace plc::sim {

/// Which MAC a sweep point runs: a (MacDef, config) pair from the MAC
/// registry (see macdef/registry.hpp). Any registered def works; the
/// implicit MacSpec constructors keep concrete-config call sites
/// (`spec.mac = mac::BackoffConfig::ca0_ca1()`) compiling.
using MacSpec = mac::MacSpec;

/// Which contention kernel executes a sweep point's repetitions. Both
/// produce bit-identical results and observer output on the same spec
/// (the kernel-equivalence CI job holds this across the scenario
/// registry), and attaching an observer never changes which one runs.
enum class Kernel : std::uint8_t {
  /// Event-driven (EventKernel): the production kernel, the default.
  kEvent = 0,
  /// The slot-stepped oracle (SlotSimulator), for equivalence checks.
  kSlot = 1,
};

/// Parses "event" or "slot" ("auto", the old default, reads as "event");
/// throws plc::Error on anything else.
Kernel kernel_from_name(std::string_view name);

/// One sweep point's configuration.
struct RunSpec {
  RunSpec() = default;

  /// Builds the spec for one station count (and MAC variant) of a
  /// declarative scenario::Spec — the single bridge between the
  /// experiment description and the simulator. Defined in
  /// scenario/spec.cpp (the scenario layer depends on sim, not the
  /// reverse).
  explicit RunSpec(const scenario::Spec& scenario, int stations,
                   std::size_t variant = 0);

  /// Defaults to the registry default def ("1901" with CA0/CA1).
  MacSpec mac;
  int stations = 2;
  phy::TimingConfig timing = phy::TimingConfig::paper_default();
  des::SimTime frame_length = default_frame_length();
  des::SimTime duration = des::SimTime::from_seconds(50.0);
  int repetitions = 10;
  std::uint64_t seed = 0x1901;
  /// Kernel selection (see Kernel). Deliberately NOT part of
  /// canonical_point_json: both kernels compute the same physics, so
  /// slot and event runs share one store cache entry.
  Kernel kernel = Kernel::kEvent;
};

/// Aggregated metrics over the repetitions of one sweep point.
struct RunSummary {
  util::RunningStats collision_probability;
  util::RunningStats normalized_throughput;
  util::RunningStats jain_index;  ///< Long-term fairness of success shares.
  /// Medium events and simulated time, summed over all repetitions.
  std::int64_t medium_events = 0;
  des::SimTime simulated = des::SimTime::zero();
  /// MAC-state observatory reduction over all repetitions (engaged only
  /// when RunObservability::observatory is set). Merged in repetition
  /// order, so it is byte-identical for any --jobs.
  std::optional<obs::ObservatorySummary> stations;
};

/// Observability attachments for a sweep point (all optional,
/// non-owning; they must outlive the run).
struct RunObservability {
  /// Bound into every repetition's simulator, so counters and histograms
  /// accumulate across repetitions — the repeated-run aggregation path.
  obs::Registry* registry = nullptr;
  /// Records the event trace of repetition 0 only (repetitions are
  /// statistically identical; one trace window is the useful artifact).
  obs::TraceSink* trace = nullptr;
  /// Also sample per-station BC/DC/BPC counter series into the trace.
  bool trace_counter_samples = false;
  /// Result cache (see plc::store): consulted before each task runs — a
  /// validated hit skips the run and restores the task's results
  /// (metrics included) bit-identically — and published to on
  /// completion. Requires `store_legs`. Repetition-0 tasks with a trace
  /// sink attached always execute (the trace is not cached), but still
  /// publish.
  store::ResultStore* store = nullptr;
  /// Logical leg labels, one per point: per spec passed to run_points
  /// (e.g. "sim/CA1"), per station count of a testbed suite (e.g.
  /// "testbed/CA1") — the leg coordinate of the cache key. Must be
  /// non-null with one label per point when `store` is set.
  const std::vector<std::string>* store_legs = nullptr;
  /// Live telemetry hub (see obs::TelemetryHub): fed the task lifecycle
  /// (started/finished with queue-wait and store hit/miss), every
  /// finished task's metric snapshot, and the simulated seconds and
  /// medium events of each run where it simulates (a sim repetition when
  /// its kernel returns, a testbed test per one-second checkpoint).
  /// Strictly a live view for /metrics, /progress and --progress — it
  /// never feeds reports, so attaching it cannot change any output byte.
  obs::TelemetryHub* telemetry = nullptr;
  /// Also emit one scheduler span per (point, rep) task into `trace`
  /// after the barrier merge — name "task" on a per-worker track (see
  /// obs::worker_track) with point/rep/store_hit/queue_wait_us args, so
  /// Perfetto shows the parallel schedule next to the repetition-0
  /// medium trace. Opt-in because it adds wall-clock events to an
  /// otherwise deterministic trace.
  bool task_spans = false;
  /// MAC-state observatory knobs (nullptr = detached, the default).
  /// When set, every repetition runs with per-station FSM capture and
  /// the point summary lands in RunSummary::stations (and the reports'
  /// "stations" section). Observatory repetitions always execute live —
  /// the trajectory is not cached — but still publish to `store`.
  const obs::ObservatoryOptions* observatory = nullptr;
  /// When set alongside `observatory`, receives a copy of the merged
  /// point summary (repetition-0 trajectory included) — the CLI's
  /// --stations-out export hook. Single-point runs only.
  obs::ObservatorySummary* stations_sink = nullptr;
  /// Cooperative cancellation flag (e.g. a serve job's DELETE, or a
  /// drain). Checked at task granularity — a task that already started
  /// runs to completion: when it reads true, not-yet-started tasks throw
  /// plc::Error("sweep cancelled"), which the pool barrier rethrows to
  /// the caller. The store stays consistent (finished tasks published,
  /// the rest absent), so a resubmit resumes from what completed.
  const std::atomic<bool>* cancel = nullptr;
};

/// Builds the simulator for a spec with the given repetition index
/// (exposed for harnesses needing traces/observers).
SlotSimulator make_simulator(const RunSpec& spec, int repetition);

/// Event-driven twin of make_simulator: same per-repetition seed
/// derivation ("rep-<i>"), same per-station stream fan-out, so the two
/// kernels replay identical randomness for any (spec, repetition).
EventKernel make_event_kernel(const RunSpec& spec, int repetition);

/// Canonical JSON of a RunSpec's result-determining content — the
/// "point" coordinate of a plc::store cache key. Covers the MAC
/// parameters (excluding the cosmetic preset name), stations, timing,
/// frame length, duration and the root seed; excludes `repetitions`
/// (the repetition index is a separate key coordinate, and each
/// repetition's seed is a pure function of the root seed) and `kernel`
/// (both kernels compute identical results, so slot and event runs
/// share one cache entry by design). Field order
/// is fixed here, so the same spec always serializes to the same bytes
/// regardless of where it came from.
std::string canonical_point_json(const RunSpec& spec);

}  // namespace plc::sim
