// Shared epilogue for every bench binary: each `bench_*` packages its run
// into an obs::RunReport and leaves a machine-readable BENCH_<name>.json
// behind, so repeated runs accumulate the perf trajectory that
// `plc-benchdiff` (and scripts/bench_gate.sh) compare against a baseline.
//
// Usage:
//   int main() {
//     plc::bench::Harness harness("ext_frame_length");
//     ... run experiments, harness.report().scalars["..."] = ...;
//     return harness.finish();
//   }
//
// finish() stamps wall time, snapshots the harness registry into the
// report (pass harness.registry() into testbed/runner observability to
// make the medium.* counters land there), recovers the event count from
// the medium.events total when the harness didn't set one, attaches the
// phase-profiler aggregate when PLC_PROFILE is on, and saves the file —
// into $PLC_BENCH_DIR when set, else the working directory.
#pragma once

#include <cstdlib>
#include <exception>
#include <iostream>
#include <memory>
#include <string>

#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/report.hpp"
#include "store/result_store.hpp"
#include "util/strings.hpp"
#include "util/thread_pool.hpp"

namespace plc::bench {

/// Directory BENCH_*.json files land in: $PLC_BENCH_DIR or "." — always
/// with a trailing separator applied by output_path().
inline std::string output_path(const std::string& name) {
  std::string path = "BENCH_" + name + ".json";
  if (const char* dir = std::getenv("PLC_BENCH_DIR");
      dir != nullptr && dir[0] != '\0') {
    std::string prefix(dir);
    if (prefix.back() != '/') prefix.push_back('/');
    path = prefix + path;
  }
  return path;
}

class Harness {
 public:
  explicit Harness(std::string name) { report_.name = std::move(name); }

  obs::RunReport& report() { return report_; }
  /// Bind this into testbed/runner observability so medium and device
  /// counters accumulate across every run the bench performs.
  obs::Registry& registry() { return registry_; }

  /// Convenience accessor mirroring report().scalars[key].
  double& scalar(const std::string& key) { return report_.scalars[key]; }

  /// Accumulates simulated seconds across sweep points.
  void add_simulated_seconds(double seconds) {
    report_.simulated_seconds += seconds;
  }

  /// Stamps the report, saves BENCH_<name>.json and returns the process
  /// exit code: 0, or 2 after one "bench_<name>: error: ..." line on
  /// stderr when the report cannot be saved (e.g. $PLC_BENCH_DIR does not
  /// exist). Call exactly once, as `return harness.finish();`.
  int finish() {
    report_.wall_seconds = stopwatch_.elapsed_seconds();
    report_.metrics = registry_.snapshot();
    if (report_.events == 0) {
      report_.events =
          static_cast<std::int64_t>(report_.metrics.total("medium.events"));
    }
    if (obs::Profiler::enabled()) {
      report_.profile = obs::Profiler::instance().snapshot();
    }
    const std::string path = output_path(report_.name);
    try {
      report_.save(path);
    } catch (const std::exception& e) {
      std::cerr << "bench_" << report_.name << ": error: cannot save "
                << path << ": " << e.what() << "\n";
      return 2;
    }
    PLC_LOG_INFO("bench", "report saved")
        .str("path", path)
        .num("scalars", static_cast<double>(report_.scalars.size()))
        .num("wall_seconds", report_.wall_seconds);
    std::cout << "\nwrote " << path << " (" << report_.scalars.size()
              << " scalars";
    if (report_.events > 0) {
      std::cout << ", " << report_.events << " medium events";
    }
    if (report_.simulated_seconds > 0.0 && report_.wall_seconds > 0.0) {
      std::cout << ", "
                << util::format_fixed(report_.sim_seconds_per_wall_second(),
                                      1)
                << " sim-s/wall-s";
    }
    std::cout << ")\n";
    return 0;
  }

 private:
  obs::Stopwatch stopwatch_;
  obs::Registry registry_;
  obs::RunReport report_;
};

/// Records the parallel accounting of a bench in its report: how many
/// workers ran, the wall time (for scenario benches RunOutcome's, which
/// covers the whole run_scenario call, serial legs included), the summed
/// per-task wall time, and the resulting speedup scalar
/// ("parallel.speedup_vs_serial" — named so the bench gate's throughput
/// patterns never match it; it is wall-clock noise, not a regression
/// signal). Also prints a one-line summary.
inline void record_parallel(Harness& harness, int jobs, double wall_seconds,
                            double serial_equivalent_seconds) {
  const double speedup = wall_seconds > 0.0 && serial_equivalent_seconds > 0.0
                             ? serial_equivalent_seconds / wall_seconds
                             : 1.0;
  harness.scalar("parallel.jobs") =
      static_cast<double>(util::ThreadPool::resolve_jobs(jobs));
  harness.scalar("parallel.wall_seconds") = wall_seconds;
  harness.scalar("parallel.serial_equivalent_seconds") =
      serial_equivalent_seconds;
  harness.scalar("parallel.speedup_vs_serial") = speedup;
  std::cout << "\nparallel: jobs="
            << util::ThreadPool::resolve_jobs(jobs) << "  speedup="
            << util::format_fixed(speedup, 2) << "x (serial-equivalent "
            << util::format_fixed(serial_equivalent_seconds, 2) << " s in "
            << util::format_fixed(wall_seconds, 2) << " s wall)\n";
}

/// Opens the shared result store at $PLC_CACHE_DIR, or returns null when
/// the variable is unset/empty. Heavy benches pass the store into
/// scenario::RunOptions so nightly re-runs skip already-computed
/// (leg, point, rep) tasks; results are bit-identical either way, so the
/// cache only changes wall time, never the gated scalars.
inline std::unique_ptr<store::ResultStore> open_store_from_env() {
  if (const char* dir = std::getenv("PLC_CACHE_DIR");
      dir != nullptr && dir[0] != '\0') {
    return std::make_unique<store::ResultStore>(dir);
  }
  return nullptr;
}

/// Records the store's traffic in the report ("cache.*" scalars — named,
/// like parallel.*, so the bench gate's throughput patterns never match
/// them; hit counts depend on what previous runs left in the store and
/// are context, not a regression signal). Also prints a one-line summary.
inline void record_cache(Harness& harness, const store::ResultStore& cache) {
  const store::Counters counters = cache.counters();
  harness.scalar("cache.hits") = static_cast<double>(counters.hits);
  harness.scalar("cache.misses") = static_cast<double>(counters.misses);
  harness.scalar("cache.publishes") = static_cast<double>(counters.publishes);
  const std::int64_t lookups = counters.hits + counters.misses;
  std::cout << "\ncache: " << counters.hits << " hit(s), "
            << counters.misses << " miss(es)";
  if (lookups > 0) {
    std::cout << " ("
              << util::format_fixed(
                     100.0 * static_cast<double>(counters.hits) /
                         static_cast<double>(lookups),
                     1)
              << "% hit rate)";
  }
  std::cout << ", " << counters.publishes << " published\n";
}

}  // namespace plc::bench
