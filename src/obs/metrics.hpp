// The metrics registry of the observability layer (`plc::obs`).
//
// Components register named instruments once (counters, gauges,
// histograms, optionally labeled per station / per link) and keep the
// returned pointer/reference for the hot path: an increment is a single
// integer add on pre-resolved storage, no lookup, no locking, no
// allocation. Snapshots are point-in-time copies that can be merged
// across repeated runs (counters and histograms accumulate; gauges take
// the most recent value), which is exactly the paper's
// average-over-repeated-tests aggregation path.
//
// The registry owns instrument storage in a deque, so references handed
// out stay valid for the registry's lifetime regardless of later
// registrations.
#pragma once

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/stats.hpp"

namespace plc::obs {

class JsonWriter;

/// Label set identifying one series of a metric, e.g. {{"station", "3"},
/// {"outcome", "success"}}. Order-insensitive (normalized internally).
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Monotonic integer counter. Hot-path safe: add() is a single add.
class Counter {
 public:
  void add(std::int64_t delta = 1) { value_ += delta; }
  std::int64_t value() const { return value_; }

 private:
  std::int64_t value_ = 0;
};

/// Last-value instrument (queue depths, tasks in flight).
class Gauge {
 public:
  void set(double value) { value_ = value; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Distribution instrument backed by the streaming Welford accumulator.
class Histogram {
 public:
  void observe(double value) { stats_.add(value); }
  /// Folds an already-accumulated distribution in (parallel Welford);
  /// used when absorbing a worker's snapshot into a live registry.
  void merge(const util::RunningStats& other) { stats_.merge(other); }
  const util::RunningStats& stats() const { return stats_; }

 private:
  util::RunningStats stats_;
};

enum class MetricKind : std::uint8_t { kCounter = 0, kGauge = 1, kHistogram = 2 };

std::string_view to_string(MetricKind kind);

/// One metric series inside a snapshot.
struct MetricSample {
  std::string name;
  Labels labels;
  MetricKind kind = MetricKind::kCounter;
  /// Counter/gauge value (counters as exact doubles up to 2^53).
  double value = 0.0;
  /// Histogram payload (count/mean/stddev/min/max/sum).
  util::RunningStats distribution;
};

/// A point-in-time copy of a registry's series.
class Snapshot {
 public:
  Snapshot() = default;
  /// Builds a snapshot directly from samples. Registries normally mint
  /// snapshots themselves; this exists for code that reconstructs a
  /// previously serialized snapshot (the plc::store payload codec).
  explicit Snapshot(std::vector<MetricSample> samples)
      : samples_(std::move(samples)) {}

  const std::vector<MetricSample>& samples() const { return samples_; }
  bool empty() const { return samples_.empty(); }

  /// Merges `other` into this snapshot: counters add, histograms merge
  /// their distributions, gauges take `other`'s (most recent) value.
  /// Series present only in `other` are appended.
  void merge(const Snapshot& other);

  /// Finds a series by exact name and labels; nullptr when absent.
  const MetricSample* find(std::string_view name,
                           const Labels& labels = {}) const;

  /// Sums the values of every series named `name`, whatever its labels
  /// (0 when there is none), e.g. all medium.events types.
  double total(std::string_view name) const;

  /// Emits the snapshot as a JSON array of series objects.
  void write_json(std::ostream& out) const;

  /// Same, as one value inside an enclosing JSON document.
  void write_into(JsonWriter& json) const;

 private:
  friend class Registry;
  std::vector<MetricSample> samples_;
};

/// The registry. Non-copyable; instruments live as long as the registry.
/// Deliberately not thread-safe — an increment must stay a bare integer
/// add. A registry and the instrument references it hands out belong to
/// one thread; parallel code gives every worker task its own registry and
/// absorb()s the snapshots at the barrier (see sim::ParallelRunner).
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Returns the instrument for (name, labels), creating it on first use.
  /// Throws plc::Error when the same series was registered with a
  /// different kind.
  Counter& counter(std::string name, Labels labels = {});
  Gauge& gauge(std::string name, Labels labels = {});
  Histogram& histogram(std::string name, Labels labels = {});

  /// Folds a snapshot into the live instruments with Snapshot::merge
  /// semantics (counters add, histograms merge, gauges take the
  /// snapshot's value), creating missing series. This is how a parallel
  /// runner lands its workers' per-task registries in the caller's
  /// registry — workers never share instruments; the runner absorbs
  /// their snapshots in task-index order at the barrier. Throws
  /// plc::Error on a kind mismatch with an existing series.
  void absorb(const Snapshot& snapshot);

  Snapshot snapshot() const;
  std::size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    std::string name;
    Labels labels;
    MetricKind kind = MetricKind::kCounter;
    Counter counter;
    Gauge gauge;
    Histogram histogram;
  };

  Entry& find_or_create(std::string name, Labels labels, MetricKind kind);

  std::deque<Entry> entries_;  ///< Deque: stable addresses across growth.
  std::map<std::string, std::size_t> index_;  ///< Flattened key -> entry.
};

}  // namespace plc::obs
