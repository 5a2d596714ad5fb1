// The live telemetry plane: a thread-safe aggregation hub between the
// (deliberately lock-free, thread-confined) metrics path and live
// consumers — the OpenMetrics exposition server, the CLI's --progress
// heartbeat (progress_line), and the "timeseries" section of a run
// report. The hub is the only progress accumulator: whatever counts
// tasks, simulated seconds or events live reads it.
//
// Design constraints, inherited from the rest of the obs layer:
//
//   - obs::Registry is not thread-safe and must stay that way (a counter
//     increment is a bare integer add). The hub therefore never touches
//     per-event state: workers run on their private registries exactly
//     as before and feed the hub once per *completed task* (absorb()),
//     so the enabled-path cost is one mutex acquisition per task — tens
//     of microseconds of work guarding milliseconds of simulation.
//   - The hub is a live view only. It never feeds the run report, so a
//     run with --listen produces a byte-identical report to one
//     without (the determinism contract of scenario reports).
//   - Disabled means absent: every producer hook is behind a
//     `hub != nullptr` check; no hub, no work, no locks.
//
// The hub keeps three things under one mutex: its own Registry (task
// lifecycle counters plus everything absorbed from finished tasks), a
// TimeSeriesSet sampled on a wall-clock interval, and registered probe
// callbacks (e.g. plc::store counters — already atomic, safe to read
// live) evaluated at snapshot/sample time.
#pragma once

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/observatory.hpp"
#include "obs/report.hpp"
#include "obs/timeseries.hpp"

namespace plc::obs {

/// Renders a metrics snapshot in the OpenMetrics text exposition format
/// (one "# TYPE" header per family, counters with the _total suffix,
/// histograms as summary _count/_sum pairs, "# EOF" terminator). Metric
/// and label names are sanitized to the OpenMetrics charset with a
/// "plc_" prefix; label values go through openmetrics_escape.
std::string openmetrics_render(const Snapshot& snapshot);

class TelemetryHub {
 public:
  /// What one finished sweep task reports to the hub.
  struct TaskEnd {
    bool used_store = false;  ///< A result store was consulted.
    bool store_hit = false;   ///< ... and returned a validated hit.
    double queue_wait_seconds = 0.0;  ///< submit -> start latency.
    double task_seconds = 0.0;        ///< start -> end wall time.
  };

  /// A point-in-time view of sweep progress for the /progress endpoint
  /// and the --progress heartbeat.
  struct Progress {
    std::int64_t tasks_total = 0;
    std::int64_t tasks_completed = 0;
    std::int64_t tasks_in_flight = 0;
    std::int64_t store_hits = 0;
    std::int64_t store_misses = 0;
    double wall_seconds = 0.0;
    /// Completions per wall second over the current busy period.
    double tasks_per_second = 0.0;
    /// Remaining / throughput; negative when unknown (no completions
    /// yet or no task goal announced).
    double eta_seconds = -1.0;
    double sim_seconds = 0.0;
    std::int64_t events = 0;
  };

  // --- producer side (runners; every call is one mutex acquisition) ---

  /// Announces `total` more tasks (cumulative across legs). Announcing
  /// while no announced task is outstanding starts a new busy period,
  /// the window tasks_per_second is measured over, so time the hub sat
  /// idle (serve's hub lives as long as the daemon) does not count.
  void begin_tasks(std::int64_t total);
  void task_started();
  void task_finished(const TaskEnd& end);
  /// Adds simulated progress where it was simulated: a sim repetition
  /// when its kernel returns, a testbed run at each one-second
  /// checkpoint. The total covers every leg and run fed to the hub; a
  /// store hit adds nothing, because nothing was simulated.
  void add_sim(double delta_seconds, std::int64_t delta_events);
  /// Folds a finished task's metric snapshot into the hub registry.
  void absorb(const Snapshot& snapshot);

  /// Registers a gauge evaluated at snapshot/sample time — and once at
  /// registration, so the family is scrapeable immediately (e.g. a
  /// store's atomic counters). `probe` must stay callable until removed
  /// (or for the hub's lifetime) and be safe to call from any thread.
  /// Re-registering a name replaces the previous probe, so repeated
  /// sweeps against one hub never accumulate duplicates.
  void add_probe(std::string name, std::function<double()> probe);

  /// Unregisters a probe by name (no-op when absent). Callers whose
  /// probes capture shorter-lived state (ParallelRunner's pool gauges)
  /// must remove them before that state dies.
  void remove_probe(const std::string& name);

  /// Folds a finished repetition's observatory summary into the live
  /// per-point view (merged in arrival order — a live approximation,
  /// never report input) and refreshes the plc_station_* gauges.
  void publish_stations(const std::string& key,
                        const ObservatorySummary& summary);

  /// The /stations payload: "plc-stations/1" over the live per-point
  /// summaries ("points" is empty until a summary arrives).
  std::string stations_json() const;

  // --- consumer side (exposition server, CLI epilogue) ---

  /// Merged snapshot: absorbed task metrics + lifecycle series + probes.
  /// (Non-const: evaluating probes and taking the interval sample update
  /// the hub's own series.)
  Snapshot metrics_snapshot();
  /// The /metrics payload (see openmetrics_render).
  std::string openmetrics();
  /// The /progress payload ("plc-progress/1").
  std::string progress_json() const;
  Progress progress() const;

  // Non-blocking variants for the flight recorder's crash path: a
  // crashing thread may already hold the hub mutex, so these try_lock
  // and report false instead of deadlocking inside a signal handler.
  bool try_progress(Progress* out) const;
  bool try_metrics_snapshot(Snapshot* out);

  /// Forces one time-series sample now (consumers normally rely on the
  /// interval-throttled samples taken on task completion and scrapes).
  void sample_now();
  /// The "timeseries" report section (JSON array; see TimeSeriesSet).
  std::string timeseries_json() const;
  std::string timeseries_jsonl() const;

  double wall_seconds() const { return stopwatch_.elapsed_seconds(); }

 private:
  /// Evaluates probes into gauges; callers hold mutex_.
  void refresh_probes_locked();
  /// Takes a time-series sample when the interval elapsed; holds mutex_.
  void maybe_sample_locked();
  void sample_locked(double now_seconds);
  Snapshot snapshot_locked() const;
  Progress progress_locked() const;

  mutable std::mutex mutex_;
  Stopwatch stopwatch_;
  Registry registry_;
  TimeSeriesSet series_;
  std::vector<std::pair<std::string, std::function<double()>>> probes_;
  /// Live per-point observatory summaries, keyed in arrival order.
  std::vector<std::pair<std::string, ObservatorySummary>> stations_;
  double last_sample_seconds_ = -1.0;

  // Lifecycle state mirrored into registry_ instruments, kept as plain
  // integers too so progress() needs no snapshot walk.
  std::int64_t tasks_total_ = 0;
  std::int64_t tasks_completed_ = 0;
  std::int64_t tasks_in_flight_ = 0;
  std::int64_t store_hits_ = 0;
  std::int64_t store_misses_ = 0;
  double sim_seconds_ = 0.0;
  std::int64_t events_ = 0;
  // The current busy period (see begin_tasks): its start on stopwatch_
  // and the completed count then.
  double busy_since_seconds_ = 0.0;
  std::int64_t completed_at_busy_start_ = 0;
};

/// Renders a duration for the heartbeat's ETA field with an adaptive
/// unit: "3.2s", "4m10s", "2h05m"; "?" for negative/unknown values.
std::string format_duration_brief(double seconds);

/// The --progress heartbeat line for a hub view, without a newline:
///
///   progress: 2.5/10.0 sim-s (25.0%)  1.23M ev/s  tasks 1/4  ETA 3.2s
///
/// `goal_sim_seconds` is the simulated time at which the run is done.
/// The ETA comes from completed-task throughput when tasks were
/// announced — store hits retire in microseconds, so caching shortens
/// it honestly — and otherwise from the simulated-time fraction. A
/// `final_line` reads 100% and ends in "done in <wall>s".
std::string progress_line(const TelemetryHub::Progress& progress,
                          double goal_sim_seconds, bool final_line);

}  // namespace plc::obs
