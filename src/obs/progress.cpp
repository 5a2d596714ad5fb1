#include "obs/progress.hpp"

#include <iostream>
#include <ostream>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace plc::obs {

std::string format_duration_brief(double seconds) {
  if (seconds < 0.0) return "?";
  if (seconds < 60.0) return util::format_fixed(seconds, 1) + "s";
  const auto total = static_cast<std::int64_t>(seconds);
  const auto pad2 = [](std::int64_t value) {
    return (value < 10 ? "0" : "") + std::to_string(value);
  };
  if (total < 3600) {
    return std::to_string(total / 60) + "m" + pad2(total % 60) + "s";
  }
  return std::to_string(total / 3600) + "h" + pad2((total % 3600) / 60) +
         "m";
}

ProgressMeter::ProgressMeter(des::SimTime goal)
    : ProgressMeter(goal, Options{}) {}

ProgressMeter::ProgressMeter(des::SimTime goal, Options options)
    : goal_(goal), options_(options) {
  util::check_arg(goal > des::SimTime::zero(), "goal", "must be positive");
}

void ProgressMeter::set_task_goal(std::int64_t total_tasks) {
  task_goal_ += total_tasks;
}

void ProgressMeter::task_complete(des::SimTime simulated,
                                  std::int64_t events) {
  ++tasks_completed_;
  tasks_simulated_ += simulated;
  tasks_events_ += events;
  const double elapsed = stopwatch_.elapsed_seconds();
  if (elapsed - last_report_seconds_ < options_.interval_wall_seconds) {
    return;
  }
  last_report_seconds_ = elapsed;
  report(tasks_simulated_, tasks_events_, /*final_line=*/false);
}

void ProgressMeter::finish(des::SimTime now, std::int64_t events) {
  report(now, events, /*final_line=*/true);
}

void ProgressMeter::report(des::SimTime now, std::int64_t events,
                           bool final_line) {
  std::ostream& out = options_.out != nullptr ? *options_.out : std::cerr;
  const double elapsed = stopwatch_.elapsed_seconds();
  const double fraction =
      final_line ? 1.0
                 : static_cast<double>(now.ns()) /
                       static_cast<double>(goal_.ns());
  const double events_per_second =
      elapsed > 0.0 ? static_cast<double>(events) / elapsed : 0.0;

  std::string line = options_.label;
  line += ": ";
  line += util::format_fixed(now.seconds(), 1);
  line += "/";
  line += util::format_fixed(goal_.seconds(), 1);
  line += " sim-s (";
  line += util::format_fixed(100.0 * fraction, 1);
  line += "%)  ";
  if (events_per_second >= 1e6) {
    line += util::format_fixed(events_per_second / 1e6, 2);
    line += "M ev/s";
  } else {
    line += util::format_fixed(events_per_second / 1e3, 1);
    line += "k ev/s";
  }
  if (task_goal_ > 0) {
    line += "  tasks ";
    line += std::to_string(tasks_completed_);
    line += "/";
    line += std::to_string(task_goal_);
  }
  if (!final_line && task_goal_ > 0) {
    // Task-throughput ETA: remaining tasks over the retire rate. More
    // truthful than the sim-time fraction under caching and uneven
    // task sizes; unknown ("?") until the first task retires.
    double eta = -1.0;
    if (tasks_completed_ > 0 && elapsed > 0.0) {
      const double rate = static_cast<double>(tasks_completed_) / elapsed;
      eta = static_cast<double>(task_goal_ - tasks_completed_) / rate;
    }
    line += "  ETA ";
    line += format_duration_brief(eta);
  } else if (!final_line && fraction > 0.0) {
    line += "  ETA ";
    line += format_duration_brief(elapsed / fraction - elapsed);
  } else if (final_line) {
    line += "  done in ";
    line += util::format_fixed(elapsed, 1);
    line += "s";
  }
  line += "\n";
  out << line << std::flush;
  ++lines_printed_;
}

}  // namespace plc::obs
