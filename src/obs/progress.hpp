// Periodic one-line progress heartbeat for long runs.
//
// A ProgressMeter knows the simulated-time goal of a run and is fed the
// current simulated time plus a processed-event count — either through
// the des::SchedulerObserver hook (one testbed run: attach with
// Scheduler::add_observer) or one task_complete() per retired task (the
// parallel runner's sim leg). At most once per `interval_wall_seconds`
// of wall time it prints one status line to its sink (stderr by
// default):
//
//   progress: 12.0/60.0 sim-s (20.0%)  1.23M ev/s  ETA 3.2s
//
// The per-event cost is a modulo-counter check; the stopwatch is only
// consulted every kCheckEvery events. finish() always prints a final
// 100% line so even sub-interval runs leave one heartbeat behind.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "des/scheduler.hpp"
#include "des/time.hpp"
#include "obs/report.hpp"

namespace plc::obs {

/// Renders a duration for the heartbeat's ETA field with an adaptive
/// unit: "3.2s", "4m10s", "2h05m"; "?" for negative/unknown values.
std::string format_duration_brief(double seconds);

/// Not thread-safe: concurrent producers (parallel-runner workers) must
/// serialize their task_complete()/finish() calls behind one mutex.
class ProgressMeter final : public des::SchedulerObserver {
 public:
  struct Options {
    double interval_wall_seconds = 1.0;
    /// Sink for the status lines; nullptr means std::cerr.
    std::ostream* out = nullptr;
    const char* label = "progress";
  };

  /// `goal` is the simulated time at which the run counts as 100% done.
  explicit ProgressMeter(des::SimTime goal);
  ProgressMeter(des::SimTime goal, Options options);

  /// des::SchedulerObserver: one dispatched scheduler event.
  void on_event_dispatched(des::SimTime when, std::int64_t dispatched,
                           std::size_t pending) override;

  /// Announces a sweep task goal (cumulative across legs). Once set,
  /// the ETA comes from completed-task throughput — tasks are what the
  /// parallel runner actually retires, so the estimate respects caching
  /// (store hits complete in microseconds) and uneven task sizes in a
  /// way the raw simulated-time fraction cannot.
  void set_task_goal(std::int64_t total_tasks);
  /// One task retired after simulating `simulated` in `events` medium
  /// events: adds both to the running totals and prints a status line if
  /// the interval has elapsed.
  void task_complete(des::SimTime simulated, std::int64_t events);

  /// Prints the final status line (idempotent per call site; call once).
  void finish(des::SimTime now, std::int64_t events);

  std::int64_t lines_printed() const { return lines_printed_; }

  /// How many events between stopwatch checks.
  static constexpr std::int64_t kCheckEvery = 8192;

 private:
  /// Prints a status line unless one went out less than an interval ago.
  void sample(des::SimTime now, std::int64_t events);
  void report(des::SimTime now, std::int64_t events, bool final_line);

  des::SimTime goal_;
  Options options_;
  Stopwatch stopwatch_;
  std::int64_t check_countdown_ = kCheckEvery;
  double last_report_seconds_ = 0.0;
  std::int64_t lines_printed_ = 0;
  std::int64_t task_goal_ = 0;  ///< 0 = no task goal; sim-time ETA.
  std::int64_t tasks_completed_ = 0;
  des::SimTime tasks_simulated_ = des::SimTime::zero();
  std::int64_t tasks_events_ = 0;
};

}  // namespace plc::obs
