#include "obs/telemetry.hpp"

#include <sstream>
#include <utility>

#include "obs/json.hpp"
#include "util/strings.hpp"

namespace plc::obs {

namespace {

/// Minimum wall-clock spacing between time-series samples.
constexpr double kSampleIntervalSeconds = 0.25;

/// Maps an internal metric name ("slot_sim.events") onto the OpenMetrics
/// charset [a-zA-Z0-9_:] with a "plc_" prefix ("plc_slot_sim_events").
std::string openmetrics_name(const std::string& name) {
  std::string out = "plc_";
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

/// Label names allow a slightly smaller charset (no colon).
std::string openmetrics_label_name(const std::string& name) {
  std::string out;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  if (out.empty() || (out[0] >= '0' && out[0] <= '9')) out.insert(0, "_");
  return out;
}

std::string label_set(const Labels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [name, value] : labels) {
    if (!first) out += ",";
    first = false;
    out += openmetrics_label_name(name);
    out += "=\"";
    out += openmetrics_escape(value);
    out += "\"";
  }
  out += "}";
  return out;
}

const char* openmetrics_type(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "summary";
  }
  return "untyped";
}

}  // namespace

std::string openmetrics_render(const Snapshot& snapshot) {
  // Group samples by family: OpenMetrics requires all samples of one
  // MetricFamily to be consecutive under a single # TYPE line. The
  // registry hands back series in registration order, which interleaves
  // label sets of the same name with other metrics — so bucket by
  // (name, kind) first, keeping first-appearance order.
  std::vector<std::pair<std::string, MetricKind>> families;
  std::vector<std::vector<const MetricSample*>> buckets;
  for (const MetricSample& sample : snapshot.samples()) {
    std::size_t slot = families.size();
    for (std::size_t i = 0; i < families.size(); ++i) {
      if (families[i].first == sample.name &&
          families[i].second == sample.kind) {
        slot = i;
        break;
      }
    }
    if (slot == families.size()) {
      families.emplace_back(sample.name, sample.kind);
      buckets.emplace_back();
    }
    buckets[slot].push_back(&sample);
  }

  std::string out;
  for (std::size_t f = 0; f < families.size(); ++f) {
    const std::string family = openmetrics_name(families[f].first);
    const MetricKind kind = families[f].second;
    out += "# TYPE " + family + " " + openmetrics_type(kind) + "\n";
    for (const MetricSample* sample : buckets[f]) {
      const std::string labels = label_set(sample->labels);
      switch (kind) {
        case MetricKind::kCounter:
          out += family + "_total" + labels + " " +
                 util::format_double(sample->value) + "\n";
          break;
        case MetricKind::kGauge:
          out += family + labels + " " + util::format_double(sample->value) +
                 "\n";
          break;
        case MetricKind::kHistogram:
          out += family + "_count" + labels + " " +
                 std::to_string(sample->distribution.count()) + "\n";
          out += family + "_sum" + labels + " " +
                 util::format_double(sample->distribution.sum()) + "\n";
          break;
      }
    }
  }
  out += "# EOF\n";
  return out;
}

void TelemetryHub::begin_tasks(std::int64_t total) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (tasks_completed_ >= tasks_total_) {
    busy_since_seconds_ = stopwatch_.elapsed_seconds();
    completed_at_busy_start_ = tasks_completed_;
  }
  tasks_total_ += total;
  registry_.gauge("sweep.tasks_total").set(static_cast<double>(tasks_total_));
  // Materialize the queue/store series up front so the very first
  // /metrics scrape of a sweep already exposes every family.
  registry_.counter("sweep.tasks_completed");
  registry_.gauge("sweep.tasks_in_flight");
  registry_.counter("sweep.store_hits");
  registry_.counter("sweep.store_misses");
  registry_.histogram("sweep.queue_wait_seconds");
  registry_.histogram("sweep.task_seconds");
  maybe_sample_locked();
}

void TelemetryHub::task_started() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++tasks_in_flight_;
  registry_.gauge("sweep.tasks_in_flight")
      .set(static_cast<double>(tasks_in_flight_));
}

void TelemetryHub::task_finished(const TaskEnd& end) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++tasks_completed_;
  if (tasks_in_flight_ > 0) --tasks_in_flight_;
  registry_.counter("sweep.tasks_completed").add();
  registry_.gauge("sweep.tasks_in_flight")
      .set(static_cast<double>(tasks_in_flight_));
  if (end.used_store) {
    if (end.store_hit) {
      ++store_hits_;
      registry_.counter("sweep.store_hits").add();
    } else {
      ++store_misses_;
      registry_.counter("sweep.store_misses").add();
    }
  }
  registry_.histogram("sweep.queue_wait_seconds")
      .observe(end.queue_wait_seconds);
  registry_.histogram("sweep.task_seconds").observe(end.task_seconds);
  maybe_sample_locked();
}

void TelemetryHub::add_sim(double delta_seconds, std::int64_t delta_events) {
  std::lock_guard<std::mutex> lock(mutex_);
  sim_seconds_ += delta_seconds;
  events_ += delta_events;
  registry_.gauge("sweep.sim_seconds").set(sim_seconds_);
  registry_.gauge("sweep.events_observed").set(static_cast<double>(events_));
  maybe_sample_locked();
}

void TelemetryHub::absorb(const Snapshot& snapshot) {
  std::lock_guard<std::mutex> lock(mutex_);
  registry_.absorb(snapshot);
}

void TelemetryHub::add_probe(std::string name,
                             std::function<double()> probe) {
  std::lock_guard<std::mutex> lock(mutex_);
  // Seed the gauge now so the family shows up in scrapes that land
  // before the first refresh — and survives after remove_probe.
  registry_.gauge(name).set(probe());
  for (auto& entry : probes_) {
    if (entry.first == name) {
      entry.second = std::move(probe);
      return;
    }
  }
  probes_.emplace_back(std::move(name), std::move(probe));
}

void TelemetryHub::remove_probe(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = probes_.begin(); it != probes_.end(); ++it) {
    if (it->first == name) {
      probes_.erase(it);
      return;
    }
  }
}

void TelemetryHub::publish_stations(const std::string& key,
                                    const ObservatorySummary& summary) {
  std::lock_guard<std::mutex> lock(mutex_);
  ObservatorySummary* slot = nullptr;
  for (auto& entry : stations_) {
    if (entry.first == key) {
      slot = &entry.second;
      break;
    }
  }
  if (slot == nullptr) {
    stations_.emplace_back(key, ObservatorySummary{});
    slot = &stations_.back().second;
  }
  slot->merge(summary);

  // Mirror the headline reductions as plc_station_* gauges so scrapes
  // see the fairness/drift picture without parsing /stations.
  const Labels point{{"point", key}};
  registry_.gauge("station.window_jain_mean", point)
      .set(slot->window_jain.mean());
  registry_.gauge("station.success_events", point)
      .set(static_cast<double>(slot->success_events));
  registry_.gauge("station.collision_events", point)
      .set(static_cast<double>(slot->collision_events));
  registry_.gauge("station.longest_burst", point)
      .set(static_cast<double>(slot->longest_burst));
  for (std::size_t s = 0; s < slot->per_station.size(); ++s) {
    Labels labels{{"point", key}, {"station", std::to_string(s)}};
    registry_.gauge("station.tx_success", labels)
        .set(static_cast<double>(slot->per_station[s].tx_success));
    registry_.gauge("station.tx_collision", labels)
        .set(static_cast<double>(slot->per_station[s].tx_collision));
  }
  maybe_sample_locked();
}

std::string TelemetryHub::stations_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<std::string, const ObservatorySummary*>> points;
  points.reserve(stations_.size());
  for (const auto& [key, summary] : stations_) {
    points.emplace_back(key, &summary);
  }
  return stations_section_json(points);
}

void TelemetryHub::refresh_probes_locked() {
  for (const auto& [name, probe] : probes_) {
    registry_.gauge(name).set(probe());
  }
}

Snapshot TelemetryHub::snapshot_locked() const {
  return registry_.snapshot();
}

Snapshot TelemetryHub::metrics_snapshot() {
  std::lock_guard<std::mutex> lock(mutex_);
  refresh_probes_locked();
  return snapshot_locked();
}

std::string TelemetryHub::openmetrics() {
  std::lock_guard<std::mutex> lock(mutex_);
  refresh_probes_locked();
  maybe_sample_locked();
  return openmetrics_render(snapshot_locked());
}

TelemetryHub::Progress TelemetryHub::progress() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return progress_locked();
}

bool TelemetryHub::try_progress(Progress* out) const {
  std::unique_lock<std::mutex> lock(mutex_, std::try_to_lock);
  if (!lock.owns_lock()) return false;
  *out = progress_locked();
  return true;
}

bool TelemetryHub::try_metrics_snapshot(Snapshot* out) {
  std::unique_lock<std::mutex> lock(mutex_, std::try_to_lock);
  if (!lock.owns_lock()) return false;
  refresh_probes_locked();
  *out = snapshot_locked();
  return true;
}

TelemetryHub::Progress TelemetryHub::progress_locked() const {
  Progress view;
  view.tasks_total = tasks_total_;
  view.tasks_completed = tasks_completed_;
  view.tasks_in_flight = tasks_in_flight_;
  view.store_hits = store_hits_;
  view.store_misses = store_misses_;
  view.wall_seconds = stopwatch_.elapsed_seconds();
  view.sim_seconds = sim_seconds_;
  view.events = events_;
  const double busy_seconds = view.wall_seconds - busy_since_seconds_;
  const std::int64_t busy_completed =
      tasks_completed_ - completed_at_busy_start_;
  if (busy_seconds > 0.0 && busy_completed > 0) {
    view.tasks_per_second =
        static_cast<double>(busy_completed) / busy_seconds;
    if (tasks_total_ > tasks_completed_) {
      view.eta_seconds =
          static_cast<double>(tasks_total_ - tasks_completed_) /
          view.tasks_per_second;
    } else if (tasks_total_ > 0) {
      view.eta_seconds = 0.0;
    }
  }
  return view;
}

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

std::string progress_line(const TelemetryHub::Progress& progress,
                          double goal_sim_seconds, bool final_line) {
  const double elapsed = progress.wall_seconds;
  double fraction = 1.0;
  if (!final_line) {
    fraction = goal_sim_seconds > 0.0
                   ? progress.sim_seconds / goal_sim_seconds
                   : 0.0;
  }
  const double events_per_second =
      elapsed > 0.0 ? static_cast<double>(progress.events) / elapsed : 0.0;

  std::string line = "progress: ";
  line += util::format_fixed(progress.sim_seconds, 1);
  line += "/";
  line += util::format_fixed(goal_sim_seconds, 1);
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
  if (progress.tasks_total > 0) {
    line += "  tasks ";
    line += std::to_string(progress.tasks_completed);
    line += "/";
    line += std::to_string(progress.tasks_total);
  }
  if (final_line) {
    line += "  done in ";
    line += util::format_fixed(elapsed, 1);
    line += "s";
  } else if (progress.tasks_total > 0) {
    line += "  ETA ";
    line += format_duration_brief(progress.eta_seconds);
  } else if (fraction > 0.0) {
    line += "  ETA ";
    line += format_duration_brief(elapsed / fraction - elapsed);
  }
  return line;
}

std::string TelemetryHub::progress_json() const {
  const Progress view = progress();
  std::ostringstream out;
  JsonWriter json(out);
  json.begin_object();
  json.field("schema", "plc-progress/1");
  json.field("wall_seconds", view.wall_seconds);
  json.key("tasks").begin_object();
  json.field("total", view.tasks_total);
  json.field("completed", view.tasks_completed);
  json.field("in_flight", view.tasks_in_flight);
  json.field("per_second", view.tasks_per_second);
  json.end_object();
  json.field("eta_seconds", view.eta_seconds);
  json.field("sim_seconds", view.sim_seconds);
  json.field("events", view.events);
  json.key("store").begin_object();
  json.field("hits", view.store_hits);
  json.field("misses", view.store_misses);
  json.end_object();
  json.end_object();
  return out.str();
}

void TelemetryHub::maybe_sample_locked() {
  const double now = stopwatch_.elapsed_seconds();
  if (last_sample_seconds_ >= 0.0 &&
      now - last_sample_seconds_ < kSampleIntervalSeconds) {
    return;
  }
  sample_locked(now);
}

void TelemetryHub::sample_locked(double now_seconds) {
  last_sample_seconds_ = now_seconds;
  refresh_probes_locked();
  const Snapshot snapshot = registry_.snapshot();
  for (const MetricSample& sample : snapshot.samples()) {
    switch (sample.kind) {
      case MetricKind::kCounter:
      case MetricKind::kGauge: {
        std::string name = sample.name;
        for (const auto& [label, value] : sample.labels) {
          name += "{" + label + "=" + value + "}";
        }
        series_.record(name, now_seconds, sample.value);
        break;
      }
      case MetricKind::kHistogram:
        // Sampled as the running count: the rate of observations is the
        // quantity a time series can show; the distribution itself
        // lives in /metrics.
        series_.record(sample.name + ".count", now_seconds,
                       static_cast<double>(sample.distribution.count()));
        break;
    }
  }
}

void TelemetryHub::sample_now() {
  std::lock_guard<std::mutex> lock(mutex_);
  sample_locked(stopwatch_.elapsed_seconds());
}

std::string TelemetryHub::timeseries_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return series_.to_json();
}

std::string TelemetryHub::timeseries_jsonl() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream out;
  series_.write_jsonl(out);
  return out.str();
}

}  // namespace plc::obs
