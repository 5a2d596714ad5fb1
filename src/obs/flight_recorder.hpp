// Crash flight recorder: when a run dies (SIGSEGV, SIGABRT, SIGFPE,
// SIGBUS, or an unhandled exception reaching std::terminate), dump the
// last window of observability state to plc-crash-<pid>.json so the
// post-mortem starts with data instead of a bare core:
//
//   - the last K trace events of the attached TraceSink (what the
//     simulator was doing),
//   - a metrics snapshot of the attached Registry or TelemetryHub
//     (how far it got),
//   - the crashing thread's open profiler scope stack (where it was),
//   - sweep progress, when a hub is attached.
//
// Honesty note on signal safety: a crash dump from a signal handler can
// never be fully async-signal-safe — serializing JSON allocates. This
// recorder is deliberately best-effort: it runs only when the process
// is already lost, writes through the atomic writer so a half-written
// dump never masquerades as a complete one, takes hub state via
// try_lock (skipping it rather than deadlocking if the crashing thread
// held the hub mutex), and re-raises the signal with default
// disposition afterwards so exit codes and cores are unchanged.
//
// The recorder is process-global (signal handlers are): arm() installs
// the handlers, attach_*() points it at the run's observability state,
// disarm() restores the previous handlers (used by tests and at orderly
// CLI exit so stale pointers can never be dereferenced by a later
// crash).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

namespace plc::obs {

class Observatory;
class Registry;
class TelemetryHub;
class TraceSink;

class FlightRecorder {
 public:
  struct Options {
    /// Directory receiving plc-crash-<pid>.json.
    std::string directory = ".";
    /// How many of the newest trace events to keep in the dump.
    std::size_t trace_tail = 256;
  };

  static FlightRecorder& instance();

  /// Installs the signal and terminate handlers. Idempotent; the last
  /// options win.
  void arm(Options options);
  /// Restores the previously installed handlers and detaches state.
  void disarm();
  bool armed() const { return armed_; }

  // Observability state to include in a dump; all optional, nullptr
  // detaches. The pointee must outlive the recorder's armed window.
  void attach_trace(const TraceSink* trace) { trace_ = trace; }
  void attach_registry(const Registry* registry) { registry_ = registry; }
  void attach_hub(TelemetryHub* hub) { hub_ = hub; }
  /// When a MAC observatory is live, dumps carry each station's backoff
  /// FSM tail (the "stations" section) — what every station was doing
  /// right before the crash. The runner's repetition-0 tasks attach from
  /// their worker threads (hence the atomic) and detach before the
  /// observatory goes out of scope.
  void attach_observatory(const Observatory* observatory) {
    observatory_.store(observatory, std::memory_order_release);
  }

  /// Writes the dump now (also used by the crash path) and returns its
  /// path; "" when a dump was already written (first crash wins).
  std::string dump(const std::string& reason);

  /// The dump path the recorder would write ("<dir>/plc-crash-<pid>.json").
  std::string dump_path() const;

 private:
  FlightRecorder() = default;

  std::string render(const std::string& reason) const;

  Options options_;
  bool armed_ = false;
  std::atomic<bool> dumped_{false};
  const TraceSink* trace_ = nullptr;
  const Registry* registry_ = nullptr;
  TelemetryHub* hub_ = nullptr;
  std::atomic<const Observatory*> observatory_{nullptr};
};

}  // namespace plc::obs
