// Periodic one-line progress heartbeat for long runs.
//
// A ProgressMeter knows the simulated-time goal of a run and has one
// input, task_complete(): a span of simulated time and the events it
// took. The parallel runner's sim leg calls it once per retired
// repetition, and a testbed run once per simulated-second checkpoint
// (tools::run_saturated_testbed). At most once per
// `interval_wall_seconds` of wall time it prints one status line to its
// sink (stderr by default):
//
//   progress: 12.0/60.0 sim-s (20.0%)  1.23M ev/s  ETA 3.2s
//
// finish() always prints a final 100% line so even sub-interval runs
// leave one heartbeat behind.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "des/time.hpp"
#include "obs/report.hpp"

namespace plc::obs {

/// Renders a duration for the heartbeat's ETA field with an adaptive
/// unit: "3.2s", "4m10s", "2h05m"; "?" for negative/unknown values.
std::string format_duration_brief(double seconds);

/// Not thread-safe: concurrent producers (parallel-runner workers) must
/// serialize their task_complete()/finish() calls behind one mutex.
class ProgressMeter {
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

  /// Announces a sweep task goal (cumulative across legs). Once set,
  /// the ETA comes from completed-task throughput — tasks are what the
  /// parallel runner actually retires, so the estimate respects caching
  /// (store hits complete in microseconds) and uneven task sizes in a
  /// way the raw simulated-time fraction cannot.
  void set_task_goal(std::int64_t total_tasks);
  /// One task (or testbed checkpoint) retired after simulating
  /// `simulated` in `events` events: adds both to the running totals and
  /// prints a status line if the interval has elapsed.
  void task_complete(des::SimTime simulated, std::int64_t events);

  /// Prints the final status line (idempotent per call site; call once).
  void finish(des::SimTime now, std::int64_t events);

  std::int64_t lines_printed() const { return lines_printed_; }
  /// The events task_complete() has been handed so far.
  std::int64_t events_completed() const { return tasks_events_; }

 private:
  void report(des::SimTime now, std::int64_t events, bool final_line);

  des::SimTime goal_;
  Options options_;
  Stopwatch stopwatch_;
  double last_report_seconds_ = 0.0;
  std::int64_t lines_printed_ = 0;
  std::int64_t task_goal_ = 0;  ///< 0 = no task goal; sim-time ETA.
  std::int64_t tasks_completed_ = 0;
  des::SimTime tasks_simulated_ = des::SimTime::zero();
  std::int64_t tasks_events_ = 0;
};

}  // namespace plc::obs
