#include "obs/trace.hpp"

#include <algorithm>
#include <ostream>
#include <set>
#include <string>

#include "obs/json.hpp"
#include "util/error.hpp"

namespace plc::obs {

namespace {

const char* phase_name(TracePhase phase) {
  switch (phase) {
    case TracePhase::kSpan: return "span";
    case TracePhase::kCounter: return "counter";
    case TracePhase::kInstant: return "instant";
  }
  return "unknown";
}

const char* chrome_phase(TracePhase phase) {
  switch (phase) {
    case TracePhase::kSpan: return "X";
    case TracePhase::kCounter: return "C";
    case TracePhase::kInstant: return "i";
  }
  return "X";
}

void write_args(JsonWriter& json, const TraceEvent& event) {
  json.key("args").begin_object();
  for (int i = 0; i < event.arg_count; ++i) {
    const auto index = static_cast<std::size_t>(i);
    json.field(event.arg_names[index], event.arg_values[index]);
  }
  json.end_object();
}

}  // namespace

TraceSink::TraceSink(std::size_t capacity) : capacity_(capacity) {
  util::check_arg(capacity >= 1, "capacity", "must be >= 1");
  ring_.reserve(std::min<std::size_t>(capacity, 4096));
}

void TraceSink::record(const TraceEvent& event) {
  ++recorded_;
  if (ring_.size() < capacity_) {
    ring_.push_back(event);
    ++size_;
    return;
  }
  ring_[head_] = event;
  head_ = (head_ + 1) % capacity_;
}

void TraceSink::clear() {
  ring_.clear();
  head_ = 0;
  size_ = 0;
}

void TraceSink::splice(const TraceSink& other) {
  for (const TraceEvent& event : other.events()) record(event);
  recorded_ += other.dropped();
}

std::vector<TraceEvent> TraceSink::events() const {
  std::vector<TraceEvent> out;
  out.reserve(size_);
  for (std::size_t i = 0; i < size_; ++i) {
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  }
  return out;
}

void TraceSink::write_jsonl(std::ostream& out) const {
  for (const TraceEvent& event : events()) {
    JsonWriter json(out);
    json.begin_object();
    json.field("phase", phase_name(event.phase));
    json.field("track", static_cast<std::int64_t>(event.track));
    json.field("name", event.name);
    json.field("cat", event.category);
    json.field("ts_ns", event.start.ns());
    if (event.phase == TracePhase::kSpan) {
      json.field("dur_ns", event.duration.ns());
    }
    if (event.arg_count > 0) write_args(json, event);
    json.end_object();
    out << '\n';
  }
}

void TraceSink::write_chrome_trace(std::ostream& out) const {
  const std::vector<TraceEvent> retained = events();

  JsonWriter json(out);
  json.begin_array();

  // Process and per-track thread-name metadata, so Perfetto labels the
  // tracks "medium" / "station N" instead of bare thread ids.
  json.begin_object();
  json.field("name", "process_name").field("ph", "M");
  json.field("pid", 1).field("tid", 0);
  json.key("args").begin_object().field("name", "plcsim").end_object();
  json.end_object();
  std::set<std::int32_t> tracks;
  for (const TraceEvent& event : retained) tracks.insert(event.track);
  for (const std::int32_t track : tracks) {
    std::string label;
    if (track == kMediumTrack) {
      label = "medium";
    } else if (track >= kWorkerTrackBase) {
      label = "worker " + std::to_string(track - kWorkerTrackBase);
    } else {
      label = "station " + std::to_string(track - 1);
    }
    json.begin_object();
    json.field("name", "thread_name").field("ph", "M");
    json.field("pid", 1).field("tid", static_cast<std::int64_t>(track));
    json.key("args").begin_object().field("name", label).end_object();
    json.end_object();
  }

  for (const TraceEvent& event : retained) {
    json.begin_object();
    if (event.phase == TracePhase::kCounter && event.track != kMediumTrack) {
      // Chrome keys counter series by (pid, name): suffix the station so
      // each station renders its own counter track.
      json.field("name", std::string(event.name) + "/station " +
                             std::to_string(event.track - 1));
    } else {
      json.field("name", event.name);
    }
    json.field("cat", event.category);
    json.field("ph", chrome_phase(event.phase));
    json.field("pid", 1);
    json.field("tid", static_cast<std::int64_t>(event.track));
    json.field("ts", static_cast<double>(event.start.ns()) / 1e3);
    if (event.phase == TracePhase::kSpan) {
      json.field("dur", static_cast<double>(event.duration.ns()) / 1e3);
    }
    if (event.phase == TracePhase::kInstant) json.field("s", "t");
    if (event.arg_count > 0 || event.phase == TracePhase::kCounter) {
      write_args(json, event);
    }
    json.end_object();
  }
  json.end_array();
  out << '\n';
}

}  // namespace plc::obs
