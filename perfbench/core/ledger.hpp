// The per-layer ledger: spans recorded by the benchmark around every
// call it makes into a layer's public function.
//
// Spans live in memory (one mutex-guarded vector, so the serve clients
// can record from two threads) and are written out once, at the end, as
// Chrome trace_event JSON — the same format `plcsim --trace` emits. A
// disabled ledger records nothing, so untraced runs pay one branch per
// call site.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  int id = -1;
  int parent = -1;      ///< Span id of the caller, -1 for a root.
  int op = -1;          ///< Op the span belongs to (shared by its tree).
  std::string layer;    ///< "sim", "store", ... or "op" for op roots.
  std::string name;     ///< The public entry point, e.g. "run_points".
  double start = 0.0;   ///< Seconds since the ledger's epoch.
  double end = 0.0;
  int thread = 0;       ///< Client thread (Chrome "tid").

  double duration() const { return end - start; }
};

/// Busy and self time of one layer.
struct LayerTime {
  double busy = 0.0;  ///< Sum of the layer's outermost span durations.
  double self = 0.0;  ///< busy minus the time their child spans cover.
  std::int64_t count = 0;  ///< Spans recorded for the layer.
};

/// Length of the union of [start, end) intervals clipped to
/// [lo, hi) — what a span's children cover of it.
double covered_seconds(std::vector<std::pair<double, double>> intervals,
                       double lo, double hi);

/// Per-layer busy/self/count over `spans`. A span nested inside a span
/// of the same layer counts toward `count` but not again toward busy.
std::map<std::string, LayerTime> layer_times(const std::vector<Span>& spans);

class Ledger {
 public:
  explicit Ledger(bool enabled);

  bool enabled() const { return enabled_; }

  /// Seconds since the ledger was constructed (steady clock).
  double now() const;

  /// RAII span: opened on construction, recorded on destruction (or
  /// close()). On a disabled ledger it only keeps the clock readings.
  class Scope {
   public:
    Scope(Ledger& ledger, std::string layer, std::string name, int op,
          int parent = -1, int thread = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Span id, for children; -1 on a disabled ledger.
    int id() const { return span_.id; }
    /// Ends the span now (idempotent) and returns its duration.
    double close();

   private:
    Ledger& ledger_;
    Span span_;
    bool open_ = true;
  };

  /// Copy of every recorded span, ordered by id.
  std::vector<Span> spans() const;

  /// Writes the spans as a Chrome trace_event JSON document ("X"
  /// events, microsecond timestamps, parent/op/layer in args).
  void write_chrome_trace(std::ostream& out) const;

 private:
  int next_id();
  void record(const Span& span);

  bool enabled_;
  std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex mutex_;
  int next_id_ = 0;          ///< Guarded by mutex_.
  std::vector<Span> spans_;  ///< Guarded by mutex_.
};

}  // namespace perfbench
