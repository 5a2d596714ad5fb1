#include "obs/flight_recorder.hpp"

#include <csignal>
#include <cstdlib>
#include <exception>
#include <sstream>
#include <unistd.h>
#include <utility>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/observatory.hpp"
#include "obs/profiler.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "util/fs.hpp"

namespace plc::obs {

namespace {

constexpr int kSignals[] = {SIGSEGV, SIGABRT, SIGFPE, SIGBUS};
constexpr std::size_t kSignalCount = sizeof(kSignals) / sizeof(kSignals[0]);

struct sigaction g_previous_actions[kSignalCount];
std::terminate_handler g_previous_terminate = nullptr;

const char* signal_name(int sig) {
  switch (sig) {
    case SIGSEGV: return "SIGSEGV";
    case SIGABRT: return "SIGABRT";
    case SIGFPE: return "SIGFPE";
    case SIGBUS: return "SIGBUS";
  }
  return "signal";
}

void crash_signal_handler(int sig) {
  FlightRecorder::instance().dump(std::string("signal ") + signal_name(sig));
  // Restore the default disposition and re-raise, so the process still
  // dies with the original signal (exit code, core file) as if the
  // recorder had never been armed.
  std::signal(sig, SIG_DFL);
  ::raise(sig);
}

[[noreturn]] void crash_terminate_handler() {
  std::string reason = "std::terminate";
  if (std::current_exception() != nullptr) {
    try {
      throw;
    } catch (const std::exception& error) {
      reason += ": ";
      reason += error.what();
    } catch (...) {
      reason += ": non-standard exception";
    }
  }
  FlightRecorder::instance().dump(reason);
  if (g_previous_terminate != nullptr &&
      g_previous_terminate != &crash_terminate_handler) {
    g_previous_terminate();
  }
  std::abort();
}

const char* phase_label(TracePhase phase) {
  switch (phase) {
    case TracePhase::kSpan: return "span";
    case TracePhase::kCounter: return "counter";
    case TracePhase::kInstant: return "instant";
  }
  return "unknown";
}

}  // namespace

FlightRecorder& FlightRecorder::instance() {
  static FlightRecorder recorder;
  return recorder;
}

void FlightRecorder::arm(Options options) {
  options_ = std::move(options);
  dumped_.store(false, std::memory_order_relaxed);
  if (armed_) return;
  struct sigaction action {};
  action.sa_handler = &crash_signal_handler;
  sigemptyset(&action.sa_mask);
  for (std::size_t i = 0; i < kSignalCount; ++i) {
    ::sigaction(kSignals[i], &action, &g_previous_actions[i]);
  }
  g_previous_terminate = std::set_terminate(&crash_terminate_handler);
  armed_ = true;
}

void FlightRecorder::disarm() {
  if (!armed_) return;
  for (std::size_t i = 0; i < kSignalCount; ++i) {
    ::sigaction(kSignals[i], &g_previous_actions[i], nullptr);
  }
  std::set_terminate(g_previous_terminate);
  g_previous_terminate = nullptr;
  armed_ = false;
  trace_ = nullptr;
  registry_ = nullptr;
  hub_ = nullptr;
  observatory_.store(nullptr, std::memory_order_release);
}

std::string FlightRecorder::dump_path() const {
  return options_.directory + "/plc-crash-" + std::to_string(::getpid()) +
         ".json";
}

std::string FlightRecorder::dump(const std::string& reason) {
  // First crash wins; a cascading second fault (e.g. SIGABRT raised by
  // the terminate path) must not overwrite the interesting dump.
  if (dumped_.exchange(true, std::memory_order_acq_rel)) return "";
  const std::string path = dump_path();
  try {
    util::write_file_atomic(path, render(reason), /*create_dirs=*/true);
  } catch (...) {
    return "";
  }
  return path;
}

std::string FlightRecorder::render(const std::string& reason) const {
  std::ostringstream out;
  JsonWriter json(out);
  json.begin_object();
  json.field("schema", "plc-flight-record/1");
  json.field("reason", reason);
  json.field("pid", static_cast<std::int64_t>(::getpid()));

  json.key("profile_stack").begin_array();
  for (const std::string& scope : Profiler::current_stack()) {
    json.value(scope);
  }
  json.end_array();

  if (hub_ != nullptr) {
    TelemetryHub::Progress progress;
    if (hub_->try_progress(&progress)) {
      json.key("progress").begin_object();
      json.field("wall_seconds", progress.wall_seconds);
      json.field("tasks_total", progress.tasks_total);
      json.field("tasks_completed", progress.tasks_completed);
      json.field("tasks_in_flight", progress.tasks_in_flight);
      json.field("sim_seconds", progress.sim_seconds);
      json.field("events", progress.events);
      json.end_object();
    }
  }

  // Metrics: prefer the hub's merged view (try_lock; skipped if the
  // crashing thread held the hub mutex), fall back to the attached raw
  // registry. The registry read is unsynchronized by design — at crash
  // time a torn counter beats no counters.
  bool have_metrics = false;
  Snapshot snapshot;
  if (hub_ != nullptr && hub_->try_metrics_snapshot(&snapshot)) {
    have_metrics = true;
  } else if (registry_ != nullptr) {
    snapshot = registry_->snapshot();
    have_metrics = true;
  }
  if (have_metrics) {
    json.key("metrics");
    snapshot.write_into(json);
  }

  if (const Observatory* observatory =
          observatory_.load(std::memory_order_acquire)) {
    // Same honesty budget as the registry read: the observatory belongs
    // to the (crashed) simulation thread, so the read is unsynchronized
    // — a torn FSM tail beats none.
    json.key("stations");
    observatory->write_flight_section(json, /*tail=*/16);
  }

  if (trace_ != nullptr) {
    const std::vector<TraceEvent> events = trace_->events();
    const std::size_t keep =
        events.size() > options_.trace_tail ? options_.trace_tail
                                            : events.size();
    json.key("trace").begin_object();
    json.field("recorded", trace_->recorded());
    json.field("kept", static_cast<std::int64_t>(keep));
    json.key("events").begin_array();
    for (std::size_t i = events.size() - keep; i < events.size(); ++i) {
      const TraceEvent& event = events[i];
      json.begin_object();
      json.field("phase", phase_label(event.phase));
      json.field("track", static_cast<std::int64_t>(event.track));
      json.field("name", event.name);
      json.field("cat", event.category);
      json.field("ts_ns", event.start.ns());
      if (event.phase == TracePhase::kSpan) {
        json.field("dur_ns", event.duration.ns());
      }
      if (event.arg_count > 0) {
        json.key("args").begin_object();
        for (int a = 0; a < event.arg_count; ++a) {
          const auto index = static_cast<std::size_t>(a);
          json.field(event.arg_names[index], event.arg_values[index]);
        }
        json.end_object();
      }
      json.end_object();
    }
    json.end_array();
    json.end_object();
  }

  json.end_object();
  out << '\n';
  return out.str();
}

}  // namespace plc::obs
