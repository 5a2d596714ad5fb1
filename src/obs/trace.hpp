// Event tracing for the simulator stack.
//
// Producers (the slot simulator, the contention domain, harness code)
// record fixed-size TraceEvents into a bounded ring buffer; when the
// buffer is full the oldest events are overwritten, so tracing a
// multi-hour run keeps the most recent window instead of exhausting
// memory. Recording is allocation-free: names are static strings and
// arguments are a small inline array.
//
// Two exporters:
//   - write_jsonl: one JSON object per line, for ad-hoc scripting;
//   - write_chrome_trace: the Chrome trace_event JSON-array format, which
//     opens directly in about://tracing or https://ui.perfetto.dev —
//     per-station tracks of idle/success/collision spans plus optional
//     BC/DC/BPC counter series.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <vector>

#include "des/time.hpp"

namespace plc::obs {

/// Track ids map to Chrome trace "threads": the medium itself is track 0
/// and station i renders as track i + 1 (named "station i" by the
/// exporter's thread-name metadata).
inline constexpr std::int32_t kMediumTrack = 0;
constexpr std::int32_t station_track(int station) { return station + 1; }

/// Scheduler tracks: parallel-sweep task spans render on one track per
/// worker thread, far above any plausible station id so the ranges can
/// never collide (the exporter labels them "worker N").
inline constexpr std::int32_t kWorkerTrackBase = 1 << 20;
constexpr std::int32_t worker_track(int worker) {
  return kWorkerTrackBase + worker;
}

enum class TracePhase : std::uint8_t {
  kSpan = 0,     ///< A duration on a track (Chrome phase "X").
  kCounter = 1,  ///< Sampled counter values (Chrome phase "C").
  kInstant = 2,  ///< A point event (Chrome phase "i").
};

/// One trace record. `name`/`category`/`arg_names` must point at static
/// strings (string literals); the sink stores the pointers verbatim.
struct TraceEvent {
  TracePhase phase = TracePhase::kSpan;
  std::int32_t track = kMediumTrack;
  const char* name = "";
  const char* category = "plc";
  des::SimTime start = des::SimTime::zero();
  des::SimTime duration = des::SimTime::zero();

  static constexpr int kMaxArgs = 4;
  std::array<const char*, kMaxArgs> arg_names{};
  std::array<double, kMaxArgs> arg_values{};
  int arg_count = 0;

  /// Appends a numeric argument (ignored beyond kMaxArgs).
  void add_arg(const char* arg_name, double value) {
    if (arg_count >= kMaxArgs) return;
    arg_names[static_cast<std::size_t>(arg_count)] = arg_name;
    arg_values[static_cast<std::size_t>(arg_count)] = value;
    ++arg_count;
  }
};

/// Bounded ring buffer of trace events.
class TraceSink {
 public:
  static constexpr std::size_t kDefaultCapacity = 1 << 16;

  explicit TraceSink(std::size_t capacity = kDefaultCapacity);

  /// Records one event; O(1), overwrites the oldest event when full.
  void record(const TraceEvent& event);

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return capacity_; }
  /// Total record() calls over the sink's lifetime.
  std::int64_t recorded() const { return recorded_; }
  /// Events lost to ring-buffer overwrites.
  std::int64_t dropped() const {
    return recorded_ - static_cast<std::int64_t>(size_);
  }

  void clear();

  /// Records `other`'s retained events here, oldest first, and carries
  /// its dropped count over — how the parallel runner merges a task's
  /// private ring into the caller's sink without hiding its overflow.
  void splice(const TraceSink& other);

  /// The retained events, oldest first.
  std::vector<TraceEvent> events() const;

  /// One JSON object per line: phase, track, name, ts_ns, dur_ns, args.
  void write_jsonl(std::ostream& out) const;

  /// Chrome trace_event format: a JSON array of "X"/"C"/"i" events with
  /// pid/tid/ts/dur (microsecond timestamps) plus thread-name metadata,
  /// loadable in about://tracing and Perfetto.
  void write_chrome_trace(std::ostream& out) const;

 private:
  std::vector<TraceEvent> ring_;
  std::size_t capacity_;
  std::size_t head_ = 0;  ///< Next write position.
  std::size_t size_ = 0;
  std::int64_t recorded_ = 0;
};

}  // namespace plc::obs
