#include "obs/metrics.hpp"

#include <algorithm>
#include <ostream>

#include "obs/json.hpp"
#include "util/error.hpp"

namespace plc::obs {

namespace {

Labels normalized(Labels labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}

/// Flattens (name, sorted labels) into a unique map key. Separators are
/// control characters, which label values never legitimately contain.
std::string series_key(const std::string& name, const Labels& labels) {
  std::string key = name;
  for (const auto& [label, value] : labels) {
    key += '\x1f';
    key += label;
    key += '\x1e';
    key += value;
  }
  return key;
}

}  // namespace

std::string_view to_string(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "unknown";
}

void Snapshot::merge(const Snapshot& other) {
  for (const MetricSample& theirs : other.samples_) {
    MetricSample* mine = nullptr;
    for (MetricSample& candidate : samples_) {
      if (candidate.name == theirs.name && candidate.labels == theirs.labels) {
        mine = &candidate;
        break;
      }
    }
    if (mine == nullptr) {
      samples_.push_back(theirs);
      continue;
    }
    util::require(mine->kind == theirs.kind,
                  "Snapshot::merge: kind mismatch for series " + theirs.name);
    switch (theirs.kind) {
      case MetricKind::kCounter:
        mine->value += theirs.value;
        break;
      case MetricKind::kGauge:
        mine->value = theirs.value;
        break;
      case MetricKind::kHistogram:
        mine->distribution.merge(theirs.distribution);
        break;
    }
  }
}

const MetricSample* Snapshot::find(std::string_view name,
                                   const Labels& labels) const {
  const Labels wanted = normalized(labels);
  for (const MetricSample& sample : samples_) {
    if (sample.name == name && sample.labels == wanted) return &sample;
  }
  return nullptr;
}

double Snapshot::total(std::string_view name) const {
  double sum = 0.0;
  for (const MetricSample& sample : samples_) {
    if (sample.name == name) sum += sample.value;
  }
  return sum;
}

void Snapshot::write_json(std::ostream& out) const {
  JsonWriter json(out);
  write_into(json);
}

void Snapshot::write_into(JsonWriter& json) const {
  json.begin_array();
  for (const MetricSample& sample : samples_) {
    json.begin_object();
    json.field("name", sample.name);
    if (!sample.labels.empty()) {
      json.key("labels").begin_object();
      for (const auto& [label, value] : sample.labels) {
        json.field(label, value);
      }
      json.end_object();
    }
    json.field("kind", to_string(sample.kind));
    if (sample.kind == MetricKind::kHistogram) {
      const util::RunningStats& d = sample.distribution;
      json.field("count", d.count());
      json.field("sum", d.sum());
      json.field("mean", d.mean());
      json.field("stddev", d.stddev());
      json.field("min", d.min());
      json.field("max", d.max());
    } else {
      json.field("value", sample.value);
    }
    json.end_object();
  }
  json.end_array();
}

Registry::Entry& Registry::find_or_create(std::string name, Labels labels,
                                          MetricKind kind) {
  labels = normalized(std::move(labels));
  const std::string key = series_key(name, labels);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    Entry& entry = entries_[it->second];
    util::require(entry.kind == kind,
                  "Registry: series '" + name +
                      "' already registered with a different kind");
    return entry;
  }
  index_.emplace(key, entries_.size());
  Entry& entry = entries_.emplace_back();
  entry.name = std::move(name);
  entry.labels = std::move(labels);
  entry.kind = kind;
  return entry;
}

Counter& Registry::counter(std::string name, Labels labels) {
  return find_or_create(std::move(name), std::move(labels),
                        MetricKind::kCounter)
      .counter;
}

Gauge& Registry::gauge(std::string name, Labels labels) {
  return find_or_create(std::move(name), std::move(labels), MetricKind::kGauge)
      .gauge;
}

Histogram& Registry::histogram(std::string name, Labels labels) {
  return find_or_create(std::move(name), std::move(labels),
                        MetricKind::kHistogram)
      .histogram;
}

void Registry::absorb(const Snapshot& snapshot) {
  for (const MetricSample& sample : snapshot.samples()) {
    switch (sample.kind) {
      case MetricKind::kCounter:
        counter(sample.name, sample.labels)
            .add(static_cast<std::int64_t>(sample.value));
        break;
      case MetricKind::kGauge:
        gauge(sample.name, sample.labels).set(sample.value);
        break;
      case MetricKind::kHistogram:
        histogram(sample.name, sample.labels).merge(sample.distribution);
        break;
    }
  }
}

Snapshot Registry::snapshot() const {
  Snapshot snapshot;
  snapshot.samples_.reserve(entries_.size());
  for (const Entry& entry : entries_) {
    MetricSample sample;
    sample.name = entry.name;
    sample.labels = entry.labels;
    sample.kind = entry.kind;
    switch (entry.kind) {
      case MetricKind::kCounter:
        sample.value = static_cast<double>(entry.counter.value());
        break;
      case MetricKind::kGauge:
        sample.value = entry.gauge.value();
        break;
      case MetricKind::kHistogram:
        sample.distribution = entry.histogram.stats();
        break;
    }
    snapshot.samples_.push_back(std::move(sample));
  }
  return snapshot;
}

}  // namespace plc::obs
